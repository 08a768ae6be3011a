package dephasing

import (
	"math"
	"testing"

	"repro/internal/lattice"
	"repro/internal/negf"
	"repro/internal/sparse"
	"repro/internal/tb"
)

func chainH(t *testing.T, n int, pot []float64) *sparse.BlockTridiag {
	t.Helper()
	s, err := lattice.NewLinearChain(0.5, n)
	if err != nil {
		t.Fatal(err)
	}
	h, err := tb.Assemble(s, tb.SingleBandChain(0, -1), tb.Options{Potential: pot})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestValidation(t *testing.T) {
	h := chainH(t, 4, nil)
	if _, err := NewSolver(h, 0, 0.1); err == nil {
		t.Fatal("accepted zero broadening")
	}
	if _, err := NewSolver(h, 1e-6, -0.1); err == nil {
		t.Fatal("accepted negative dephasing strength")
	}
}

// TestBallisticLimit: at D = 0 the SCBA solver must reproduce the Caroli
// transmission of the coherent NEGF solver exactly.
func TestBallisticLimit(t *testing.T) {
	pot := []float64{0, 0, 0.4, 0.4, 0, 0}
	h := chainH(t, 6, pot)
	deph, err := NewSolver(h, 1e-6, 0)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := negf.NewSolver(h, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []float64{-1.2, -0.3, 0.5, 1.1} {
		te, err := deph.EffectiveTransmission(e)
		if err != nil {
			t.Fatalf("E=%g: %v", e, err)
		}
		tb0, err := ref.Transmission(e)
		if err != nil {
			t.Fatalf("E=%g: %v", e, err)
		}
		// Agreement is limited by the finite contact broadening η, which
		// acts as a weak absorbing probe in the Meir-Wingreen evaluation.
		if math.Abs(te-tb0) > 1e-4*(1+tb0) {
			t.Fatalf("E=%g: SCBA D=0 T=%g vs ballistic %g", e, te, tb0)
		}
	}
}

// TestCurrentConservation: the converged SCBA currents at the two contacts
// must balance exactly — dephasing redistributes but never absorbs
// carriers (elastic scattering).
func TestCurrentConservation(t *testing.T) {
	h := chainH(t, 8, nil)
	deph, err := NewSolver(h, 1e-6, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []float64{-1.0, 0.0, 0.7} {
		r, err := deph.Solve(e, 1, 0)
		if err != nil {
			t.Fatalf("E=%g: %v", e, err)
		}
		// Conservation is exact in the model; the residual is the O(η)
		// absorption of the finite numerical broadening.
		if math.Abs(r.CurrentL+r.CurrentR) > 1e-4*(1+math.Abs(r.CurrentL)) {
			t.Fatalf("E=%g: I_L=%g, I_R=%g — not conserved", e, r.CurrentL, r.CurrentR)
		}
		if r.CurrentL <= 0 {
			t.Fatalf("E=%g: forward current %g not positive", e, r.CurrentL)
		}
	}
}

// TestDephasingSuppressesBallisticFlow: on a clean single-mode wire,
// adding dephasing must reduce the effective transmission below 1.
func TestDephasingSuppressesBallisticFlow(t *testing.T) {
	h := chainH(t, 10, nil)
	const e = 0.3
	tOf := func(d float64) float64 {
		deph, err := NewSolver(h, 1e-6, d)
		if err != nil {
			t.Fatal(err)
		}
		te, err := deph.EffectiveTransmission(e)
		if err != nil {
			t.Fatal(err)
		}
		return te
	}
	t0 := tOf(0)
	t1 := tOf(0.02)
	t2 := tOf(0.08)
	if math.Abs(t0-1) > 1e-4 {
		t.Fatalf("clean ballistic T = %g", t0)
	}
	if !(t2 < t1 && t1 < t0) {
		t.Fatalf("dephasing did not suppress monotonically: %g, %g, %g", t0, t1, t2)
	}
}

// TestOhmicScaling: with fixed dephasing, the resistance excess
// 1/T_eff − 1 must grow with device length (the Büttiker-chain ohmic
// limit), in contrast to the length-independent ballistic result.
func TestOhmicScaling(t *testing.T) {
	const e, d = 0.2, 0.05
	excess := func(n int) float64 {
		h := chainH(t, n, nil)
		deph, err := NewSolver(h, 1e-6, d)
		if err != nil {
			t.Fatal(err)
		}
		te, err := deph.EffectiveTransmission(e)
		if err != nil {
			t.Fatal(err)
		}
		return 1/te - 1
	}
	r8 := excess(8)
	r16 := excess(16)
	r24 := excess(24)
	if !(r8 < r16 && r16 < r24) {
		t.Fatalf("resistance not increasing with length: %g, %g, %g", r8, r16, r24)
	}
	// Roughly linear growth: the incremental resistance per added segment
	// should be comparable between the two intervals (within 50%).
	d1 := (r16 - r8) / 8
	d2 := (r24 - r16) / 8
	if d2 < 0.5*d1 || d2 > 2*d1 {
		t.Fatalf("resistance growth not ohmic-like: %g vs %g per site", d1, d2)
	}
}

// TestDOSStaysNormalizedUnderDephasing: dephasing broadens but must not
// create or destroy spectral weight dramatically at a fixed energy window
// (sanity rather than a strict sum rule, since we probe one energy).
func TestDOSPositiveUnderDephasing(t *testing.T) {
	h := chainH(t, 6, nil)
	deph, err := NewSolver(h, 1e-6, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := deph.Solve(0.4, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range r.DOS {
		if d < -1e-10 {
			t.Fatalf("negative DOS %g at site %d under dephasing", d, i)
		}
	}
}

// TestCachedSelfEnergies: an SCBA solver routed through the shared
// sweep-scale cache reproduces the uncached solver to 1e-12 and actually
// exercises the cache (repeat energies hit; the decimation runs once per
// energy, serving both leads of the uniform chain).
func TestCachedSelfEnergies(t *testing.T) {
	h := chainH(t, 6, []float64{0, 0, 0.3, 0.3, 0, 0})
	plain, err := NewSolver(h, 1e-6, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := NewSolver(h, 1e-6, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	cached.Cache = negf.NewSelfEnergyCache()

	energies := []float64{-0.5, 0.2, 0.9}
	for pass := 0; pass < 2; pass++ { // second pass re-solves every energy
		for _, e := range energies {
			want, err := plain.Solve(e, 1, 0)
			if err != nil {
				t.Fatalf("plain E=%g: %v", e, err)
			}
			got, err := cached.Solve(e, 1, 0)
			if err != nil {
				t.Fatalf("cached E=%g: %v", e, err)
			}
			if d := math.Abs(got.TEff - want.TEff); d > 1e-12 {
				t.Fatalf("E=%g: cached TEff differs by %g", e, d)
			}
			if d := math.Abs(got.CurrentL - want.CurrentL); d > 1e-12 {
				t.Fatalf("E=%g: cached CurrentL differs by %g", e, d)
			}
		}
	}
	st := cached.Cache.Stats()
	if want := int64(len(energies)); st.Misses != 2*want || st.Decimations != want {
		t.Fatalf("stats = %+v; want %d misses served by %d decimations", st, 2*want, want)
	}
	if st.Hits != int64(2*len(energies)) {
		t.Fatalf("second pass should hit every energy: %+v", st)
	}
}
