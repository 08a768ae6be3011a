package wavefunction

import (
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/lattice"
	"repro/internal/linalg"
	"repro/internal/negf"
	"repro/internal/perf"
	"repro/internal/sparse"
	"repro/internal/tb"
)

func TestModesSingleBandChain(t *testing.T) {
	const eps0, hop, a = 0.1, -1.0, 0.5
	h00 := linalg.FromRows([][]complex128{{complex(eps0, 0)}})
	h01 := linalg.FromRows([][]complex128{{complex(hop, 0)}})
	for _, e := range []float64{eps0 - 1.2, eps0, eps0 + 0.8, eps0 + 1.7} {
		m, err := Modes(h00, h01, e, a)
		if err != nil {
			t.Fatalf("E=%g: %v", e, err)
		}
		if len(m.Lambdas) != 2 {
			t.Fatalf("E=%g: found %d propagating modes, want 2", e, len(m.Lambdas))
		}
		if m.NumRight() != 1 || m.NumLeft() != 1 {
			t.Fatalf("E=%g: %d right / %d left movers, want 1/1", e, m.NumRight(), m.NumLeft())
		}
		// λ must be e^{±ika} with cos(ka) = (E−ε)/2t.
		coska := (e - eps0) / (2 * hop)
		ka := math.Acos(coska)
		vWant := math.Abs(-2 * hop * a * math.Sin(ka))
		for i, l := range m.Lambdas {
			if math.Abs(real(l)-coska) > 1e-8 || math.Abs(math.Abs(imag(l))-math.Abs(math.Sin(ka))) > 1e-8 {
				t.Fatalf("E=%g: λ=%v inconsistent with cos(ka)=%g", e, l, coska)
			}
			if math.Abs(math.Abs(m.Velocities[i])-vWant) > 1e-8 {
				t.Fatalf("E=%g: |v|=%g, want %g", e, math.Abs(m.Velocities[i]), vWant)
			}
		}
	}
}

func TestModesOutsideBand(t *testing.T) {
	h00 := linalg.FromRows([][]complex128{{0}})
	h01 := linalg.FromRows([][]complex128{{-1}})
	m, err := Modes(h00, h01, 3.0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Lambdas) != 0 {
		t.Fatalf("found %d propagating modes outside the band", len(m.Lambdas))
	}
}

func TestModesCountMatchesBands(t *testing.T) {
	// For a multi-band AGNR lead, the number of right-movers must equal
	// the number of bands crossing the energy (counting each crossing).
	s, err := lattice.NewArmchairGNR(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	h, err := tb.Assemble(s, tb.Graphene(), tb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	h00, h01 := tb.LeadBlocks(h, false)
	bands, err := tb.LeadBands(h00, h01, s.LayerPeriod, 256)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []float64{0.5, 1.3, 2.4} {
		crossings := 0
		for n := 0; n < bands.NumBands(); n++ {
			for ik := 0; ik+1 < len(bands.K); ik++ {
				if (bands.Energies[ik][n]-e)*(bands.Energies[ik+1][n]-e) < 0 {
					crossings++
				}
			}
		}
		wantRight := crossings / 2
		m, err := Modes(h00, h01, e, s.LayerPeriod)
		if err != nil {
			t.Fatalf("E=%g: %v", e, err)
		}
		if m.NumRight() != wantRight || m.NumLeft() != wantRight {
			t.Fatalf("E=%g: %d right / %d left movers, want %d each",
				e, m.NumRight(), m.NumLeft(), wantRight)
		}
	}
}

func TestModesLambdaUnitary(t *testing.T) {
	// Propagating Bloch factors must sit on the unit circle and come in
	// conjugate pairs for a real-symmetric lead.
	h00 := linalg.FromRows([][]complex128{{0.2, -0.4}, {-0.4, 0.1}})
	h01 := linalg.FromRows([][]complex128{{-0.9, 0.1}, {0.05, -0.8}})
	m, err := Modes(h00, h01, 0.3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range m.Lambdas {
		if math.Abs(cmplx.Abs(l)-1) > 1e-6 {
			t.Fatalf("propagating λ=%v not on unit circle", l)
		}
	}
	if m.NumRight() != m.NumLeft() {
		t.Fatalf("asymmetric mode counts: %d right, %d left", m.NumRight(), m.NumLeft())
	}
}

func buildDisorderedWire(t *testing.T) *sparse.BlockTridiag {
	t.Helper()
	s, err := lattice.NewZincblendeNanowire(0.5431, 5, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	pot := make([]float64, s.NAtoms())
	rng := rand.New(rand.NewSource(77))
	for i, a := range s.Atoms {
		if a.Layer >= 1 && a.Layer <= 3 {
			pot[i] = 0.2 + 0.1*rng.Float64()
		}
	}
	h, err := tb.Assemble(s, tb.SiliconSP3S(), tb.Options{PassivationShift: 10, Potential: pot})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// dos returns the DOS of layer i, (A_L + A_R)/2π, the one both formalisms
// report.
func dos(r *negf.Result, i int) float64 { return (r.SpectralL[i] + r.SpectralR[i]) / (2 * math.Pi) }

// TestWFMatchesNEGF is the central cross-formalism validation: the
// wave-function solver and the RGF NEGF solver must produce identical
// transmission, and layer spectra and DOS, on a disordered device. The
// wave-function sums without the interior rows y_i fail it.
func TestWFMatchesNEGF(t *testing.T) {
	h := buildDisorderedWire(t)
	wf, err := NewSolver(h, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	gf, err := negf.NewSolver(h, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []float64{1.1, 1.7, 2.3, 2.9} {
		rw, err := wf.Solve(e, true)
		if err != nil {
			t.Fatalf("WF E=%g: %v", e, err)
		}
		rg, err := gf.Solve(e, true)
		if err != nil {
			t.Fatalf("NEGF E=%g: %v", e, err)
		}
		if math.Abs(rw.T-rg.T) > 1e-8*(1+rg.T) {
			t.Fatalf("E=%g: WF T=%g vs NEGF T=%g", e, rw.T, rg.T)
		}
		if len(rw.SpectralL) != h.Layers() || len(rg.SpectralL) != h.Layers() {
			t.Fatalf("E=%g: WF %d and NEGF %d layer spectra, want %d", e, len(rw.SpectralL), len(rg.SpectralL), h.Layers())
		}
		for i := range rw.SpectralL {
			if math.Abs(rw.SpectralL[i]-rg.SpectralL[i]) > 1e-6*(1+rg.SpectralL[i]) {
				t.Fatalf("E=%g: SpectralL[%d] %g vs %g", e, i, rw.SpectralL[i], rg.SpectralL[i])
			}
			if math.Abs(rw.SpectralR[i]-rg.SpectralR[i]) > 1e-6*(1+rg.SpectralR[i]) {
				t.Fatalf("E=%g: SpectralR[%d] %g vs %g", e, i, rw.SpectralR[i], rg.SpectralR[i])
			}
			if math.Abs(dos(rw, i)-dos(rg, i)) > 1e-6*(1+dos(rg, i)) {
				t.Fatalf("E=%g: DOS of layer %d %g vs %g", e, i, dos(rw, i), dos(rg, i))
			}
		}
	}
}

// TestWFCheaperThanRGF pins the cost claim of the formalism: for the same
// device and energy, the wave-function transmission solve must execute
// fewer flops than the RGF solve.
func TestWFCheaperThanRGF(t *testing.T) {
	h := buildDisorderedWire(t)
	wf, err := NewSolver(h, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	gf, err := negf.NewSolver(h, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	const e = 1.8
	perf.ResetFlops()
	if _, err := wf.Solve(e, false); err != nil {
		t.Fatal(err)
	}
	wfFlops := perf.ResetFlops()
	if _, err := gf.Solve(e, false); err != nil {
		t.Fatal(err)
	}
	rgfFlops := perf.ResetFlops()
	if wfFlops >= rgfFlops {
		t.Fatalf("WF solve cost %d flops, RGF %d — WF should be cheaper", wfFlops, rgfFlops)
	}
}

func TestSolveBlocksMatchesDense(t *testing.T) {
	// Block-Thomas on a random non-Hermitian shifted system vs dense LU.
	rng := rand.New(rand.NewSource(55))
	sizes := []int{3, 2, 4, 3}
	l := len(sizes)
	diag := make([]*linalg.Matrix, l)
	upper := make([]*linalg.Matrix, l-1)
	lower := make([]*linalg.Matrix, l-1)
	randM := func(r, c int) *linalg.Matrix {
		m := linalg.New(r, c)
		for i := range m.Data {
			m.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		return m
	}
	for i, n := range sizes {
		diag[i] = randM(n, n)
		for k := 0; k < n; k++ {
			diag[i].Set(k, k, diag[i].At(k, k)+complex(6, 1))
		}
	}
	for i := 0; i < l-1; i++ {
		upper[i] = randM(sizes[i], sizes[i+1])
		lower[i] = randM(sizes[i+1], sizes[i])
	}
	btd, err := sparse.NewBlockTridiag(diag, upper, lower)
	if err != nil {
		t.Fatal(err)
	}
	rhs := make([]*linalg.Matrix, l)
	for i, n := range sizes {
		rhs[i] = randM(n, 2)
	}
	ws := linalg.GetWorkspace()
	defer ws.Release()
	x, err := btd.SolveBlocks(rhs, ws)
	if err != nil {
		t.Fatal(err)
	}
	// Dense reference.
	dense := btd.Dense()
	off := btd.Offsets()
	bAll := linalg.New(btd.N(), 2)
	for i := range rhs {
		bAll.SetSubmatrix(off[i], 0, rhs[i])
	}
	f, err := linalg.FactorInPlace(dense, make([]int, dense.Rows))
	if err != nil {
		t.Fatal(err)
	}
	want := bAll
	f.SolveInPlace(want)
	for i := range x {
		if !x[i].Equal(want.Submatrix(off[i], 0, sizes[i], 2), 1e-9) {
			t.Fatalf("block-Thomas block %d disagrees with dense solve", i)
		}
	}
}

func TestSolveBlocksValidation(t *testing.T) {
	d := []*linalg.Matrix{linalg.Identity(2), linalg.Identity(2)}
	u := []*linalg.Matrix{linalg.New(2, 2)}
	lo := []*linalg.Matrix{linalg.New(2, 2)}
	btd, err := sparse.NewBlockTridiag(d, u, lo)
	if err != nil {
		t.Fatal(err)
	}
	ws := linalg.GetWorkspace()
	defer ws.Release()
	if _, err := btd.SolveBlocks([]*linalg.Matrix{linalg.New(2, 1)}, ws); err == nil {
		t.Fatal("accepted wrong RHS block count")
	}
	if _, err := btd.SolveBlocks([]*linalg.Matrix{linalg.New(2, 1), linalg.New(3, 1)}, ws); err == nil {
		t.Fatal("accepted wrong RHS block shape")
	}
}

func TestWFTransmissionCleanChain(t *testing.T) {
	s, err := lattice.NewLinearChain(0.5, 6)
	if err != nil {
		t.Fatal(err)
	}
	h, err := tb.Assemble(s, tb.SingleBandChain(0, -1), tb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wf, err := NewSolver(h, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []float64{-1.5, 0, 1.2} {
		r, err := wf.Solve(e, false)
		if err != nil {
			t.Fatal(err)
		}
		T := r.T
		if math.Abs(T-1) > 1e-4 {
			t.Fatalf("clean chain WF T(%g) = %g", e, T)
		}
	}
}

// TestComplexBandsChainAnalytic pins the complex band structure of the
// single-band chain against the closed form: in the gap |E−ε₀| > 2|t| the
// decay constant satisfies cosh(κ·a) = |E−ε₀| / (2|t|).
func TestComplexBandsChainAnalytic(t *testing.T) {
	const eps0, hop, a = 0.0, -1.0, 0.5
	h00 := linalg.FromRows([][]complex128{{complex(eps0, 0)}})
	h01 := linalg.FromRows([][]complex128{{complex(hop, 0)}})
	for _, e := range []float64{2.2, 2.8, 3.5, -2.4} {
		kappa, ok := MinDecay(h00, h01, e, a)
		if !ok {
			t.Fatalf("E=%g: no evanescent branch found in the gap", e)
		}
		want := math.Acosh(math.Abs(e-eps0)/(2*math.Abs(hop))) / a
		if math.Abs(kappa-want) > 1e-6*(1+want) {
			t.Fatalf("E=%g: κ = %g, want %g", e, kappa, want)
		}
	}
}

// TestComplexBandsDecayGrowsIntoGap: deeper into the gap, the tunneling
// decay constant must increase monotonically.
func TestComplexBandsDecayGrowsIntoGap(t *testing.T) {
	h00 := linalg.FromRows([][]complex128{{0}})
	h01 := linalg.FromRows([][]complex128{{-1}})
	prev := 0.0
	for _, e := range []float64{2.05, 2.2, 2.5, 3.0, 4.0} {
		kappa, ok := MinDecay(h00, h01, e, 0.5)
		if !ok {
			t.Fatalf("E=%g: no evanescent branch", e)
		}
		if kappa <= prev {
			t.Fatalf("decay constant not increasing into the gap at E=%g", e)
		}
		prev = kappa
	}
}

// TestComplexBandsInsideBand: inside the band the slowest "evanescent"
// branch of the pure chain does not exist (the only finite solutions are
// propagating), so ComplexBands returns none.
func TestComplexBandsInsideBand(t *testing.T) {
	h00 := linalg.FromRows([][]complex128{{0}})
	h01 := linalg.FromRows([][]complex128{{-1}})
	modes, err := ComplexBands(h00, h01, 0.7, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(modes) != 0 {
		t.Fatalf("found %d evanescent modes inside the band", len(modes))
	}
}

// TestComplexBandsGNRGapMatchesTunneling: in the 7-AGNR gap, transmission
// through length L must scale as exp(−2·κ_min·L) — complex band structure
// and transport must agree quantitatively.
func TestComplexBandsGNRGapMatchesTunneling(t *testing.T) {
	build := func(cells int) (*sparse.BlockTridiag, float64) {
		s, err := lattice.NewArmchairGNR(7, cells)
		if err != nil {
			t.Fatal(err)
		}
		h, err := tb.Assemble(s, tb.Graphene(), tb.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return h, s.LayerPeriod
	}
	h8, period := build(8)
	h00, h01 := tb.LeadBlocks(h8, false)
	const e = 0.1 // inside the ~1.3 eV gap
	kappa, ok := MinDecay(h00, h01, e, period)
	if !ok {
		t.Fatal("no evanescent branch in the AGNR gap")
	}
	tAt := func(h *sparse.BlockTridiag) float64 {
		sol, err := NewSolver(h, 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		r, err := sol.Solve(e, false)
		if err != nil {
			t.Fatal(err)
		}
		T := r.T
		return T
	}
	h12, _ := build(12)
	t8, t12 := tAt(h8), tAt(h12)
	if t8 <= 0 || t12 <= 0 || t12 >= t8 {
		t.Fatalf("gap tunneling not decaying: T(8)=%g, T(12)=%g", t8, t12)
	}
	// ln(T8/T12) ≈ 2·κ·ΔL with ΔL = 4 periods.
	got := math.Log(t8/t12) / (2 * 4 * period)
	if math.Abs(got-kappa) > 0.15*kappa {
		t.Fatalf("tunneling decay %g 1/nm vs complex-band κ %g 1/nm", got, kappa)
	}
}

// TestInjectionNonConvergenceIsTyped pins the error chain of a contact-mode
// eigensolver failure: the sweep layers match it with errors.Is against
// the linalg sentinel through the injection's return. The Γ is synthetic
// — a NaN off-diagonal never deflates — because no contact produces one
// any more: the one energy that did is TestFormerNaNEnergySolves.
func TestInjectionNonConvergenceIsTyped(t *testing.T) {
	nan := complex(math.NaN(), 0)
	ws := linalg.GetWorkspace()
	defer ws.Release()
	_, err := injectionVectors(linalg.FromRows([][]complex128{{1, nan}, {nan, 2}}), ws)
	if !errors.Is(err, linalg.ErrNoConvergence) {
		t.Fatalf("injectionVectors returned %v, want an error wrapping linalg.ErrNoConvergence", err)
	}
}

// TestInjectionOnSupport: the injection factorises the Γ block it is handed
// — Γ on the contact's support, never an n×n Γ it would have to scan — so
// W·W† rebuilds the block, one column per nonzero mode; an empty support
// injects no column, and SolveCtx answers a device whose contacts nothing
// couples to with its all-zero result.
func TestInjectionOnSupport(t *testing.T) {
	ws := linalg.GetWorkspace()
	defer ws.Release()
	// A rank-2 positive Γ on a 3-orbital support.
	v := linalg.FromRows([][]complex128{{1, 0.5i}, {-0.25, 1}, {0.5 + 0.5i, -1i}})
	gamma := linalg.New(3, 3)
	linalg.GemmInto(gamma, 1, v, linalg.NoTrans, v, linalg.ConjTrans, 0)
	w, err := injectionVectors(gamma, ws)
	if err != nil {
		t.Fatal(err)
	}
	if w.Rows != 3 || w.Cols != 2 {
		t.Fatalf("injection is %d×%d, want 3×2 (rank-2 Γ)", w.Rows, w.Cols)
	}
	back := linalg.New(3, 3)
	linalg.GemmInto(back, 1, w, linalg.NoTrans, w, linalg.ConjTrans, 0)
	if !back.Equal(gamma, 1e-13) {
		t.Errorf("W·W† does not rebuild Γ:\n%v\nvs\n%v", back, gamma)
	}

	w, err = injectionVectors(linalg.New(0, 0), ws)
	if err != nil || w.Rows != 0 || w.Cols != 0 {
		t.Fatalf("empty support: got %v, %v; want a 0×0 injection", w, err)
	}

	// Contacts nothing couples to: Σ = 0, Γ = 0, no channel at any energy.
	h := buildDisorderedWire(t)
	solver, err := NewSolver(h, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	solver.Leads.L01 = linalg.New(solver.Leads.L01.Rows, solver.Leads.L01.Cols)
	solver.Leads.R01 = linalg.New(solver.Leads.R01.Rows, solver.Leads.R01.Cols)
	res, err := solver.Solve(0.3, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.T != 0 || len(res.SpectralL) != h.Layers() || len(res.SpectralR) != h.Layers() {
		t.Fatalf("closed device: T = %g with %d and %d layer spectra, want 0 and %d", res.T, len(res.SpectralL), len(res.SpectralR), h.Layers())
	}
}

// TestDensityFieldsFollowTheFlag: in both formalisms the density fields —
// A_L and A_R — exist, one entry per layer, exactly when density is asked
// for, at an open energy and at a closed one (contacts nothing
// couples to: Σ = 0 and no channel, the WF solve's early return).
func TestDensityFieldsFollowTheFlag(t *testing.T) {
	h := buildDisorderedWire(t)
	for _, closed := range []bool{false, true} {
		wf, err := NewSolver(h, 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		gf, err := negf.NewSolver(h, 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		if closed {
			for _, l := range []*negf.Leads{wf.Leads, gf.Leads} {
				l.L01 = linalg.New(l.L01.Rows, l.L01.Cols)
				l.R01 = linalg.New(l.R01.Rows, l.R01.Cols)
			}
		}
		for name, solve := range map[string]func(float64, bool) (*negf.Result, error){"WF": wf.Solve, "NEGF": gf.Solve} {
			for _, density := range []bool{false, true} {
				r, err := solve(1.8, density)
				if err != nil {
					t.Fatalf("%s closed=%v density=%v: %v", name, closed, density, err)
				}
				if closed && r.T != 0 {
					t.Errorf("%s: T = %g through closed contacts", name, r.T)
				}
				for field, v := range map[string][]float64{"A_L": r.SpectralL, "A_R": r.SpectralR} {
					if (v != nil) != density || density && len(v) != h.Layers() {
						t.Errorf("%s closed=%v density=%v: %s has %d entries (nil: %v), want %d only with density",
							name, closed, density, field, len(v), v == nil, h.Layers())
					}
				}
			}
		}
	}
}

// TestFormerNaNEnergySolves is the regression of the defect the typed
// error above used to be driven by: AGNR-7 at task 163 of the 1500-point
// window starting at -2.995625728 eV. The old decimation judged
// convergence on the squared couplings, β underflowed to 0 while α
// overflowed to +Inf, and a NaN Σ came back as converged — the QL
// iteration then spun on a NaN Γ. With convergence judged on the
// ε-updates the energy solves, smooth between its neighbours, and the
// three solvers agree at their usual tolerances.
func TestFormerNaNEnergySolves(t *testing.T) {
	// 20 cells is the registry's agnr7, the device of the sweep that hit
	// it; T = 2.9998279 there (η absorbs 1 − T/3 in proportion to length).
	s, err := lattice.NewArmchairGNR(7, 20)
	if err != nil {
		t.Fatal(err)
	}
	h, err := tb.Assemble(s, tb.Graphene(), tb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wf, err := NewSolver(h, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	gf, err := negf.NewSolver(h, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	const e = -2.995625728 + 6*163.0/1499
	rw, err := wf.Solve(e, true)
	if err != nil {
		t.Fatalf("WF: %v", err)
	}
	rg, err := gf.Solve(e, true)
	if err != nil {
		t.Fatalf("NEGF: %v", err)
	}
	dense, err := gf.DenseReference(e, true)
	if err != nil {
		t.Fatalf("dense reference: %v", err)
	}
	if math.Abs(rw.T-2.9998279) > 1e-6 {
		t.Fatalf("WF T = %.8f, want 2.9998279 ± 1e-6", rw.T)
	}
	if math.Abs(rw.T-rg.T) > 1e-8*(1+rg.T) {
		t.Fatalf("WF T=%g vs NEGF T=%g", rw.T, rg.T)
	}
	if math.Abs(rg.T-dense.T) > 1e-8*(1+dense.T) {
		t.Fatalf("NEGF T=%g vs dense T=%g", rg.T, dense.T)
	}
	for i := range rw.SpectralL {
		if math.Abs(rw.SpectralL[i]-rg.SpectralL[i]) > 1e-6*(1+rg.SpectralL[i]) {
			t.Fatalf("SpectralL[%d] %g vs %g", i, rw.SpectralL[i], rg.SpectralL[i])
		}
		if math.Abs(rw.SpectralR[i]-rg.SpectralR[i]) > 1e-6*(1+rg.SpectralR[i]) {
			t.Fatalf("SpectralR[%d] %g vs %g", i, rw.SpectralR[i], rg.SpectralR[i])
		}
		if math.Abs(dos(rw, i)-dos(rg, i)) > 1e-6*(1+dos(rg, i)) {
			t.Fatalf("DOS of layer %d WF %g vs NEGF %g", i, dos(rw, i), dos(rg, i))
		}
		if math.Abs(dos(rg, i)-dos(dense, i)) > 1e-7*(1+math.Abs(dos(dense, i))) {
			t.Fatalf("DOS of layer %d RGF %g vs dense %g", i, dos(rg, i), dos(dense, i))
		}
	}
}
