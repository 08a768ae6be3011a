package wavefunction

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/device"
	"repro/internal/negf"
	"repro/internal/sched"
	"repro/internal/sparse"
	"repro/internal/tb"
)

// TestDomainsMatchSerialEveryFamily is ROADMAP (3)'s acceptance property
// `-domains P ≡ P = 1`: every T1 device family, under the sinusoidal
// potential negf's oracle tests use (different contacts at the two ends,
// every interior layer its own block), solved at seeded energies with P ∈
// {2, 3, nl} domains returns T, and the DOS, A_L and A_R of every layer,
// within 1e-9·max(1, |x|) of the serial solve. The domain solvers share the serial one's Σ cache, so
// the comparison isolates the open-boundary solve. It catches, for example,
// supW indexing ξ_{d-1}^l without the offset of ξ_{d-1}^f in its interface
// group: every family fails at P = 2 and 3 (at P = nl the constraint rows
// make the two halves equal, and the mutation is invisible).
func TestDomainsMatchSerialEveryFamily(t *testing.T) {
	pool := sched.New(2)
	for _, d := range device.BenchmarkSuite() {
		h := familyUnderPotential(t, d)
		serial, err := NewSolver(h, 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		serial.Cache = negf.NewSelfEnergyCache()
		count := 8
		if testing.Short() {
			count = 2
		}
		rng := rand.New(rand.NewSource(29))
		energies := make([]float64, count)
		for k := range energies {
			energies[k] = -2 + 5*rng.Float64()
		}
		var held int
		for _, p := range []int{2, 3, h.Layers()} {
			split, err := NewSolver(h, 1e-6)
			if err != nil {
				t.Fatal(err)
			}
			split.Domains, split.Pool, split.Cache = p, pool, serial.Cache
			for _, e := range energies {
				want, wantErr := serial.Solve(e, true)
				got, gotErr := split.Solve(e, true)
				if (wantErr != nil) != (gotErr != nil) {
					t.Fatalf("%s P=%d E=%v: serial error %v, domains error %v", d.Name, p, e, wantErr, gotErr)
				}
				if wantErr != nil {
					t.Logf("%s E=%v skipped: %v", d.Name, e, wantErr)
					continue
				}
				held++
				far := func(a, b float64) bool { return !(math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b))) }
				if far(got.T, want.T) {
					t.Errorf("%s P=%d E=%v: T = %.12g, serial %.12g", d.Name, p, e, got.T, want.T)
				}
				for i := range want.SpectralL {
					if far(dos(got, i), dos(want, i)) || far(got.SpectralL[i], want.SpectralL[i]) || far(got.SpectralR[i], want.SpectralR[i]) {
						t.Errorf("%s P=%d E=%v layer %d: DOS %.12g A_L %.12g A_R %.12g, serial %.12g %.12g %.12g", d.Name, p, e, i,
							dos(got, i), got.SpectralL[i], got.SpectralR[i], dos(want, i), want.SpectralL[i], want.SpectralR[i])
						break
					}
				}
			}
		}
		if held == 0 {
			t.Errorf("%s: every energy was skipped; the comparison is vacuous", d.Name)
		}
	}
}

// familyUnderPotential assembles a T1 device family under the sinusoidal
// potential negf's oracle tests use: different contacts at the two ends,
// every interior layer its own block.
func familyUnderPotential(t *testing.T, d device.Description) *sparse.BlockTridiag {
	t.Helper()
	b, err := d.Build()
	if err != nil {
		t.Fatal(err)
	}
	nl := d.CellsX
	b.Options.Potential = make([]float64, b.Structure.NAtoms())
	for i, a := range b.Structure.Atoms {
		b.Options.Potential[i] = 0.15 * math.Sin(2*math.Pi*(float64(a.Layer)+0.5)/float64(nl))
	}
	h, err := tb.Assemble(b.Structure, b.Material, b.Options)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestWFMatchesNEGFEveryFamily is the cross-formalism invariant WF ≡ NEGF
// as a property: every T1 family under familyUnderPotential, at seeded
// energies through bands and gaps, solved by both formalisms on one Σ
// cache, returns T within 1e-8·(1 + T) and every layer's A_L, A_R and DOS
// within the spectral tolerance 1e-6·(1 + x) — the two formalisms report
// one DOS, (A_L + A_R)/2π.
func TestWFMatchesNEGFEveryFamily(t *testing.T) {
	for _, d := range device.BenchmarkSuite() {
		h := familyUnderPotential(t, d)
		wf, err := NewSolver(h, 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		gf, err := negf.NewSolver(h, 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		wf.Cache = negf.NewSelfEnergyCache()
		gf.Cache = wf.Cache
		rng := rand.New(rand.NewSource(31))
		for k := 0; k < 6; k++ {
			e := -2 + 5*rng.Float64()
			rw, errW := wf.Solve(e, true)
			rg, errG := gf.Solve(e, true)
			if errW != nil || errG != nil {
				t.Fatalf("%s E=%v: WF error %v, NEGF error %v", d.Name, e, errW, errG)
			}
			if math.Abs(rw.T-rg.T) > 1e-8*(1+rg.T) {
				t.Errorf("%s E=%v: WF T = %.12g, NEGF %.12g", d.Name, e, rw.T, rg.T)
			}
			far := func(a, b float64) bool { return !(math.Abs(a-b) <= 1e-6*(1+math.Abs(b))) }
			for i := range rg.SpectralL {
				if far(dos(rw, i), dos(rg, i)) || far(rw.SpectralL[i], rg.SpectralL[i]) || far(rw.SpectralR[i], rg.SpectralR[i]) {
					t.Errorf("%s E=%v layer %d: WF DOS %.12g A_L %.12g A_R %.12g, NEGF %.12g %.12g %.12g", d.Name, e, i,
						dos(rw, i), rw.SpectralL[i], rw.SpectralR[i], dos(rg, i), rg.SpectralL[i], rg.SpectralR[i])
					break
				}
			}
		}
	}
}
