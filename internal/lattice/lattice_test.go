package lattice

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestVec3Arithmetic(t *testing.T) {
	v := Vec3{1, 2, 3}
	w := Vec3{4, -5, 6}
	if v.Add(w) != (Vec3{5, -3, 9}) {
		t.Fatal("Add")
	}
	if v.Sub(w) != (Vec3{-3, 7, -3}) {
		t.Fatal("Sub")
	}
	if v.Scale(2) != (Vec3{2, 4, 6}) {
		t.Fatal("Scale")
	}
	if v.Dot(w) != 4-10+18 {
		t.Fatal("Dot")
	}
	if math.Abs(Vec3{3, 4, 0}.Norm()-5) > 1e-15 {
		t.Fatal("Norm")
	}
}

func TestLinearChain(t *testing.T) {
	s, err := NewLinearChain(0.5, 5)
	if err != nil {
		t.Fatal(err)
	}
	if s.NAtoms() != 5 || s.NLayers() != 5 {
		t.Fatalf("chain has %d atoms, %d layers", s.NAtoms(), s.NLayers())
	}
	// Interior atoms have 2 neighbors, ends have 1.
	if len(s.Neighbors[0]) != 1 || len(s.Neighbors[2]) != 2 || len(s.Neighbors[4]) != 1 {
		t.Fatalf("chain coordination wrong: %d %d %d",
			len(s.Neighbors[0]), len(s.Neighbors[2]), len(s.Neighbors[4]))
	}
	// The transport ends continue into contacts, so no site of a clean
	// chain carries dangling (passivatable) bonds.
	for i, a := range s.Atoms {
		if a.Dangling != 0 {
			t.Fatalf("site %d reports %d dangling bonds; transport ends must not count", i, a.Dangling)
		}
	}
}

func TestZincblendeNanowireCounts(t *testing.T) {
	const a = 0.5431 // Si
	s, err := NewZincblendeNanowire(a, 3, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	// 8 atoms per conventional cell.
	if want := 8 * 3 * 2 * 2; s.NAtoms() != want {
		t.Fatalf("atom count %d, want %d", s.NAtoms(), want)
	}
	if s.NLayers() != 3 {
		t.Fatalf("layer count %d, want 3", s.NLayers())
	}
	for i := 0; i < s.NLayers(); i++ {
		if s.LayerSize(i) != 8*2*2 {
			t.Fatalf("layer %d size %d, want 32", i, s.LayerSize(i))
		}
	}
}

func TestZincblendeNanowireBonds(t *testing.T) {
	const a = 0.5431
	s, err := NewZincblendeNanowire(a, 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := a * math.Sqrt(3) / 4
	maxCoord := 0
	for i, nbrs := range s.Neighbors {
		if len(nbrs) > 4 {
			t.Fatalf("atom %d has %d neighbors (> 4)", i, len(nbrs))
		}
		if len(nbrs) > maxCoord {
			maxCoord = len(nbrs)
		}
		for _, nb := range nbrs {
			if math.Abs(nb.Delta.Norm()-want) > 1e-9 {
				t.Fatalf("bond length %g, want %g", nb.Delta.Norm(), want)
			}
			// Zinc-blende bonds always connect the two sublattices.
			if s.Atoms[i].Species == s.Atoms[nb.Index].Species {
				t.Fatal("bond connects same species in zinc-blende lattice")
			}
		}
	}
	if maxCoord != 4 {
		t.Fatalf("no fully-coordinated atoms found in 2x2x2 wire (max %d)", maxCoord)
	}
}

func TestNeighborSymmetry(t *testing.T) {
	s, err := NewZincblendeNanowire(0.5431, 2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, nbrs := range s.Neighbors {
		for _, nb := range nbrs {
			found := false
			for _, back := range s.Neighbors[nb.Index] {
				if back.Index == i && back.WrapY == -nb.WrapY {
					d := back.Delta.Add(nb.Delta)
					if d.Norm() < 1e-9 {
						found = true
						break
					}
				}
			}
			if !found {
				t.Fatalf("bond %d→%d has no reverse partner", i, nb.Index)
			}
		}
	}
}

func TestZincblendeLayersIdentical(t *testing.T) {
	s, err := NewZincblendeNanowire(0.5431, 4, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Every layer must be the same atomic motif shifted by LayerPeriod:
	// compare intra-layer fractional coordinates of layer 0 and layer 2.
	for l := 1; l < s.NLayers(); l++ {
		for k, idx := range s.LayerAtoms[l] {
			ref := s.Atoms[s.LayerAtoms[0][k]]
			got := s.Atoms[idx]
			dx := got.Pos.X - ref.Pos.X - float64(l)*s.LayerPeriod
			if math.Abs(dx) > 1e-9 ||
				math.Abs(got.Pos.Y-ref.Pos.Y) > 1e-9 ||
				math.Abs(got.Pos.Z-ref.Pos.Z) > 1e-9 ||
				got.Species != ref.Species {
				t.Fatalf("layer %d atom %d does not match layer 0 motif", l, k)
			}
		}
	}
}

func TestUTBHasWrappedBonds(t *testing.T) {
	s, err := NewZincblendeUTB(0.5431, 2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !s.PeriodicY {
		t.Fatal("UTB not marked periodic")
	}
	wrapped := 0
	for _, nbrs := range s.Neighbors {
		for _, nb := range nbrs {
			if nb.WrapY != 0 {
				wrapped++
			}
		}
	}
	if wrapped == 0 {
		t.Fatal("UTB has no bonds wrapping the transverse period")
	}
	// Periodicity in y removes the y-surface dangling bonds: the UTB must
	// have strictly fewer dangling bonds than the equivalent wire.
	wire, _ := NewZincblendeNanowire(0.5431, 2, 1, 1)
	dUTB, dWire := 0, 0
	for i := range s.Atoms {
		dUTB += s.Atoms[i].Dangling
		dWire += wire.Atoms[i].Dangling
	}
	if dUTB >= dWire {
		t.Fatalf("UTB dangling %d not below wire dangling %d", dUTB, dWire)
	}
}

func TestArmchairGNR(t *testing.T) {
	for _, nRows := range []int{3, 5, 7} {
		s, err := NewArmchairGNR(nRows, 4)
		if err != nil {
			t.Fatal(err)
		}
		if s.NLayers() != 4 {
			t.Fatalf("AGNR layers = %d", s.NLayers())
		}
		// Standard N-AGNR unit cell holds 2N atoms.
		if s.LayerSize(0) != 2*nRows {
			t.Fatalf("N=%d AGNR layer has %d atoms, want %d", nRows, s.LayerSize(0), 2*nRows)
		}
		for i, nbrs := range s.Neighbors {
			if len(nbrs) > 3 {
				t.Fatalf("AGNR atom %d has %d neighbors", i, len(nbrs))
			}
		}
	}
}

func TestZigzagGNR(t *testing.T) {
	s, err := NewZigzagGNR(4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if s.NLayers() != 5 {
		t.Fatalf("ZGNR layers = %d", s.NLayers())
	}
	// Each zigzag chain contributes 2 atoms per period.
	if s.LayerSize(0) != 2*4 {
		t.Fatalf("ZGNR layer size = %d, want 8", s.LayerSize(0))
	}
	interior := 0
	for _, nbrs := range s.Neighbors {
		if len(nbrs) == 3 {
			interior++
		}
	}
	if interior == 0 {
		t.Fatal("no 3-coordinated atoms in zigzag GNR")
	}
}

func TestGeneratorInputValidation(t *testing.T) {
	if _, err := NewZincblendeNanowire(0.5, 0, 1, 1); err == nil {
		t.Fatal("accepted zero-length wire")
	}
	if _, err := NewZincblendeNanowire(-1, 1, 1, 1); err == nil {
		t.Fatal("accepted negative lattice constant")
	}
	if _, err := NewArmchairGNR(1, 1); err == nil {
		t.Fatal("accepted too-narrow AGNR")
	}
	if _, err := NewZigzagGNR(0, 1); err == nil {
		t.Fatal("accepted zero-chain ZGNR")
	}
	if _, err := NewLinearChain(0.5, 0); err == nil {
		t.Fatal("accepted empty chain")
	}
}

// TestDanglingUniformAcrossLayers pins the contact-consistency property:
// every layer of a uniform wire must carry the same dangling-bond pattern,
// or the passivation shift would make the end layers differ from the lead
// continuation and silently break the open boundary conditions.
func TestDanglingUniformAcrossLayers(t *testing.T) {
	for _, gen := range []func() (*Structure, error){
		func() (*Structure, error) { return NewZincblendeNanowire(0.5431, 4, 1, 1) },
		func() (*Structure, error) { return NewZincblendeUTB(0.5431, 3, 1, 1) },
		func() (*Structure, error) { return NewArmchairGNR(5, 4) },
	} {
		s, err := gen()
		if err != nil {
			t.Fatal(err)
		}
		for l := 1; l < s.NLayers(); l++ {
			for k := range s.LayerAtoms[l] {
				ref := s.Atoms[s.LayerAtoms[0][k]].Dangling
				got := s.Atoms[s.LayerAtoms[l][k]].Dangling
				if got != ref {
					t.Fatalf("layer %d atom %d has %d dangling bonds, layer 0 has %d",
						l, k, got, ref)
				}
			}
		}
	}
}

func TestValidateCatchesLongBonds(t *testing.T) {
	s, err := NewLinearChain(0.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt: connect layer 0 directly to layer 3.
	s.Neighbors[0] = append(s.Neighbors[0], Neighbor{Index: 3, Delta: Vec3{1.5, 0, 0}})
	if err := s.Validate(); err == nil {
		t.Fatal("Validate missed a bond spanning 3 layers")
	}
}

// TestValidateRefusesNonPeriodicBond: a bond of a layer past the reference
// ones (layers 0 and 1) one ulp off its reference bond, or with no
// reference at all, is refused by name.
func TestValidateRefusesNonPeriodicBond(t *testing.T) {
	for name, corrupt := range map[string]func(s *Structure, i int){
		"one ulp off": func(s *Structure, i int) {
			d := &s.Neighbors[i][0].Delta
			d.X = math.Nextafter(d.X, math.Inf(1))
		},
		"no reference": func(s *Structure, i int) { s.Neighbors[i][0].WrapY = 1 },
	} {
		s, err := NewZincblendeNanowire(0.5431, 3, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		corrupt(s, s.LayerAtoms[2][0])
		if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "not periodic") {
			t.Errorf("%s: Validate returned %v", name, err)
		}
	}
}

func TestQuickWireLayerUniformity(t *testing.T) {
	f := func(cx, cy, cz uint8) bool {
		nx := int(cx%3) + 2
		ny := int(cy%2) + 1
		nz := int(cz%2) + 1
		s, err := NewZincblendeNanowire(0.5431, nx, ny, nz)
		if err != nil {
			return false
		}
		if s.NAtoms() != 8*nx*ny*nz {
			return false
		}
		return s.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
