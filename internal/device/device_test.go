package device

import (
	"strings"
	"testing"
)

func TestBuildBenchmarkSuite(t *testing.T) {
	for _, d := range BenchmarkSuite() {
		b, err := d.Build()
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		if err := b.Structure.Validate(); err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		st := b.Stats(d.Name, d.Kind.String())
		if st.Atoms <= 0 || st.Layers <= 0 || st.MatrixOrder <= 0 {
			t.Fatalf("%s: degenerate stats %+v", d.Name, st)
		}
		if st.MatrixOrder != st.Atoms*st.OrbitalsAtom {
			t.Fatalf("%s: inconsistent matrix order", d.Name)
		}
		if st.BlockSize*st.Layers != st.MatrixOrder {
			t.Fatalf("%s: blocks do not tile the matrix", d.Name)
		}
	}
}

func TestBuildModels(t *testing.T) {
	full := Description{Name: "x", Kind: SiNanowire, CellsX: 2, CellsY: 1, CellsZ: 1, FullBand: true}
	b, err := full.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Stats("x", "y").OrbitalsAtom; got != 10 {
		t.Fatalf("sp3d5s* orbitals/atom = %d", got)
	}
	full.Spin = true
	b2, err := full.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := b2.Stats("x", "y").OrbitalsAtom; got != 20 {
		t.Fatalf("spinful sp3d5s* orbitals/atom = %d", got)
	}
	reduced := Description{Name: "x", Kind: SiNanowire, CellsX: 2, CellsY: 1, CellsZ: 1}
	b3, err := reduced.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := b3.Stats("x", "y").OrbitalsAtom; got != 5 {
		t.Fatalf("sp3s* orbitals/atom = %d", got)
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := (Description{Name: "short", Kind: SiNanowire, CellsX: 1, CellsY: 1, CellsZ: 1}).Build(); err == nil {
		t.Fatal("accepted single-cell transport length")
	}
	if _, err := (Description{Name: "flat", Kind: SiNanowire, CellsX: 3}).Build(); err == nil {
		t.Fatal("accepted zero cross-section")
	}
	if _, err := (Description{Name: "bad", Kind: Kind(42), CellsX: 3}).Build(); err == nil {
		t.Fatal("accepted unknown kind")
	}
}

func TestPassivationDefaults(t *testing.T) {
	semic := Description{Name: "w", Kind: SiNanowire, CellsX: 2, CellsY: 1, CellsZ: 1}
	b, err := semic.Build()
	if err != nil {
		t.Fatal(err)
	}
	if b.Options.PassivationShift != 12 {
		t.Fatalf("semiconductor default passivation %g, want 12", b.Options.PassivationShift)
	}
	gnr := Description{Name: "g", Kind: ArmchairGNR, CellsX: 3, CellsY: 5}
	bg, err := gnr.Build()
	if err != nil {
		t.Fatal(err)
	}
	if bg.Options.PassivationShift != 0 {
		t.Fatalf("GNR passivation %g, want 0", bg.Options.PassivationShift)
	}
	custom := semic
	custom.PassivationShift = 7
	bc, err := custom.Build()
	if err != nil {
		t.Fatal(err)
	}
	if bc.Options.PassivationShift != 7 {
		t.Fatal("custom passivation not honored")
	}
}

func TestKindStrings(t *testing.T) {
	for _, k := range []Kind{SiNanowire, SiUTB, GaAsNanowire, ArmchairGNR, ZigzagGNR, Chain} {
		if s := k.String(); s == "" || strings.HasPrefix(s, "Kind(") {
			t.Fatalf("kind %d has no name", int(k))
		}
	}
}

func TestGeAndInAsKinds(t *testing.T) {
	for _, k := range []Kind{GeNanowire, InAsNanowire} {
		d := Description{Name: k.String(), Kind: k, CellsX: 2, CellsY: 1, CellsZ: 1}
		b, err := d.Build()
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		if err := b.Structure.Validate(); err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		st := b.Stats(d.Name, k.String())
		if st.Atoms != 16 {
			t.Fatalf("%s: %d atoms", k, st.Atoms)
		}
	}
}
