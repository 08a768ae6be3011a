package negf

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/lattice"
	"repro/internal/linalg"
	"repro/internal/sparse"
	"repro/internal/tb"
)

// chainSolver builds an NEGF solver for a uniform single-band chain with
// optional per-site potential.
func chainSolver(t *testing.T, nSites int, eps0, hop float64, pot []float64, eta float64) *Solver {
	t.Helper()
	s, err := lattice.NewLinearChain(0.5, nSites)
	if err != nil {
		t.Fatal(err)
	}
	mat := tb.SingleBandChain(eps0, hop)
	h, err := tb.Assemble(s, mat, tb.Options{Potential: pot})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := NewSolver(h, eta)
	if err != nil {
		t.Fatal(err)
	}
	return sol
}

// TestSurfaceGFAnalyticChain compares the decimated self-energy of a
// semi-infinite single-band chain with the textbook closed form
// Σ(E) = (E/2) − i·√(t² − E²/4) inside the band (for ε₀ = 0).
func TestSurfaceGFAnalyticChain(t *testing.T) {
	const hop = -1.0
	sol := chainSolver(t, 4, 0, hop, nil, 1e-6)
	for _, e := range []float64{-1.5, -0.7, 0.0, 0.4, 1.2, 1.9} {
		sigL, sigR, err := sol.Leads.SelfEnergies(complex(e, 1e-6))
		if err != nil {
			t.Fatalf("E=%g: %v", e, err)
		}
		wantRe := e / 2
		wantIm := -math.Sqrt(hop*hop - e*e/4)
		for name, sig := range map[string]*linalg.Matrix{"L": sigL, "R": sigR} {
			got := sig.At(0, 0)
			if math.Abs(real(got)-wantRe) > 5e-4 || math.Abs(imag(got)-wantIm) > 5e-4 {
				t.Fatalf("Σ_%s(%g) = %v, want (%g, %g)", name, e, got, wantRe, wantIm)
			}
		}
	}
}

func TestSurfaceGFOutsideBand(t *testing.T) {
	// Outside the band the self-energy must be (almost) purely real:
	// no states to decay into.
	sol := chainSolver(t, 4, 0, -1, nil, 1e-6)
	sigL, _, err := sol.Leads.SelfEnergies(complex(3.0, 1e-6))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(imag(sigL.At(0, 0))) > 1e-5 {
		t.Fatalf("Σ_L outside band has Im = %g", imag(sigL.At(0, 0)))
	}
}

func TestSurfaceGFValidation(t *testing.T) {
	id := linalg.Identity(2)
	for name, get := range map[string]func(*Leads, complex128) (*linalg.Matrix, *linalg.Matrix, error){
		"uncached": (*Leads).SelfEnergies,
		"cached": func(l *Leads, z complex128) (*linalg.Matrix, *linalg.Matrix, error) {
			return NewSelfEnergyCache().SelfEnergies(l, z)
		},
	} {
		if _, _, err := get(&Leads{L00: id, L01: linalg.New(3, 3), R00: id, R01: id}, complex(0, 1e-6)); err == nil {
			t.Fatalf("%s: accepted mismatched lead blocks", name)
		}
		if _, _, err := get(&Leads{L00: id, L01: id, R00: id, R01: id}, complex(0, -1e-6)); err == nil {
			t.Fatalf("%s: accepted non-positive broadening", name)
		}
	}
}

// TestOverflowingLeadIsTypedError feeds the RGF path contacts whose
// decimation leaves the finite numbers — a 1e200 hopping squares to +Inf
// in the first ε-update — and requires the typed error, cached or not,
// never a T: no Σ, g or T with a NaN or an Inf comes back with a nil error.
func TestOverflowingLeadIsTypedError(t *testing.T) {
	for _, cache := range []*SelfEnergyCache{nil, NewSelfEnergyCache()} {
		sol := chainSolver(t, 4, 0, 1e200, nil, 1e-6)
		sol.Cache = cache
		res, err := sol.Solve(0.3, false)
		if !errors.Is(err, ErrNoConvergence) {
			t.Fatalf("cache %v: Solve returned (%v, %v), want an error wrapping ErrNoConvergence", cache != nil, res, err)
		}
		if !strings.Contains(err.Error(), "iteration 1") {
			t.Fatalf("cache %v: error %q does not name the iteration", cache != nil, err)
		}
	}
}

// TestChainTransmissionPerfect checks the hallmark ballistic result: a
// uniform chain transmits exactly one mode inside the band and nothing
// outside.
func TestChainTransmissionPerfect(t *testing.T) {
	const eps0, hop = 0.2, -1.0
	sol := chainSolver(t, 8, eps0, hop, nil, 1e-6)
	for _, e := range []float64{eps0 - 1.9, eps0 - 1.0, eps0, eps0 + 0.5, eps0 + 1.9} {
		T, err := sol.Transmission(e)
		if err != nil {
			t.Fatalf("E=%g: %v", e, err)
		}
		if math.Abs(T-1) > 1e-4 {
			t.Fatalf("in-band T(%g) = %g, want 1", e, T)
		}
	}
	for _, e := range []float64{eps0 - 2.5, eps0 + 2.5, eps0 + 4} {
		T, err := sol.Transmission(e)
		if err != nil {
			t.Fatalf("E=%g: %v", e, err)
		}
		if T > 1e-5 {
			t.Fatalf("out-of-band T(%g) = %g, want ~0", e, T)
		}
	}
}

// TestChainBarrierAgainstAnalytic compares the transmission through a
// single-site barrier with the exact discrete-lattice formula
// T = 1 / (1 + (V/(2·t·sin ka))²) for a delta barrier of height V.
func TestChainBarrierAgainstAnalytic(t *testing.T) {
	const hop, v0 = -1.0, 0.6
	n := 9
	pot := make([]float64, n)
	pot[n/2] = v0
	sol := chainSolver(t, n, 0, hop, pot, 1e-6)
	for _, e := range []float64{-1.2, -0.5, 0.3, 1.0} {
		// Dispersion E = 2t·cos(ka) → sin(ka) = √(1 − (E/2t)²).
		sinka := math.Sqrt(1 - e*e/(4*hop*hop))
		want := 1 / (1 + math.Pow(v0/(2*math.Abs(hop)*sinka), 2))
		T, err := sol.Transmission(e)
		if err != nil {
			t.Fatalf("E=%g: %v", e, err)
		}
		if math.Abs(T-want) > 1e-4 {
			t.Fatalf("delta-barrier T(%g) = %g, want %g", e, T, want)
		}
	}
}

// TestRGFMatchesDenseReference cross-validates the recursive algorithm
// against brute-force inversion on a disordered multi-orbital device: T,
// and A_L and A_R on every layer. Swapping Γ_L and Γ_R in the kernel's
// forms moves the layer spectra off the dense inverse's.
func TestRGFMatchesDenseReference(t *testing.T) {
	s, err := lattice.NewZincblendeNanowire(0.5431, 4, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	// A non-trivial potential profile to break uniformity in the interior.
	pot := make([]float64, s.NAtoms())
	for i, a := range s.Atoms {
		switch a.Layer {
		case 1:
			pot[i] = 0.15
		case 2:
			pot[i] = 0.25
		}
	}
	h, err := tb.Assemble(s, tb.SiliconSP3S(), tb.Options{PassivationShift: 10, Potential: pot})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := NewSolver(h, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []float64{1.0, 1.6, 2.2} {
		rgf, err := sol.Solve(e, true)
		if err != nil {
			t.Fatalf("E=%g: %v", e, err)
		}
		dense, err := sol.DenseReference(e, true)
		if err != nil {
			t.Fatalf("E=%g: %v", e, err)
		}
		if math.Abs(rgf.T-dense.T) > 1e-8*(1+dense.T) {
			t.Fatalf("E=%g: RGF T=%g, dense T=%g", e, rgf.T, dense.T)
		}
		if len(rgf.SpectralL) != h.Layers() || len(rgf.SpectralR) != h.Layers() {
			t.Fatalf("E=%g: %d and %d layer spectra, want %d", e, len(rgf.SpectralL), len(rgf.SpectralR), h.Layers())
		}
		for i := range rgf.SpectralL {
			if math.Abs(rgf.SpectralL[i]-dense.SpectralL[i]) > 1e-7*(1+math.Abs(dense.SpectralL[i])) ||
				math.Abs(rgf.SpectralR[i]-dense.SpectralR[i]) > 1e-7*(1+math.Abs(dense.SpectralR[i])) {
				t.Fatalf("E=%g layer %d: RGF A_L %g A_R %g vs dense %g %g", e, i,
					rgf.SpectralL[i], rgf.SpectralR[i], dense.SpectralL[i], dense.SpectralR[i])
			}
		}
	}
}

// layerSums returns the sums of f(o) over each layer's orbitals o.
func layerSums(h *sparse.BlockTridiag, f func(o int) float64) []float64 {
	off := h.Offsets()
	out := make([]float64, h.Layers())
	for i := range out {
		for o := off[i]; o < off[i+1]; o++ {
			out[i] += f(o)
		}
	}
	return out
}

// TestBallisticSpectralIdentity checks A = A_L + A_R layer by layer: the
// total spectral function −2·Im G_oo, read off the dense inverse and summed
// over the layer, must equal that layer's two contact-injected parts in a
// ballistic device up to the broadening's own 2η·[G·G†]_oo — on a chain
// (one orbital per layer: the per-site identity) and on AGNR-7, whose layers
// have an interior. Dropping the interior term of the kernel's layer sums
// breaks it on AGNR-7.
func TestBallisticSpectralIdentity(t *testing.T) {
	ribbon := builtSolver(t, device.Description{Name: "agnr7", Kind: device.ArmchairGNR, CellsX: 5, CellsY: 7}, 0, nil)
	for _, sol := range []*Solver{chainSolver(t, 7, 0, -1, nil, 1e-6), ribbon} {
		for _, e := range []float64{-1.0, 0.0, 0.8} {
			r, err := sol.Solve(e, true)
			if err != nil {
				t.Fatalf("E=%g: %v", e, err)
			}
			g, _, _, err := sol.denseGreen(e)
			if err != nil {
				t.Fatalf("E=%g: %v", e, err)
			}
			for i, total := range layerSums(sol.H, func(o int) float64 { return -2 * imag(g.At(o, o)) }) {
				if sum := r.SpectralL[i] + r.SpectralR[i]; math.Abs(total-sum) > 1e-4*(1+total) {
					t.Fatalf("N=%d E=%g layer %d: A=%g but A_L+A_R=%g", sol.H.N(), e, i, total, sum)
				}
			}
		}
	}
}

// TestDOSNonNegative: the DOS (A_L + A_R)/2π of every layer is
// non-negative through bands and gaps, on a chain and on AGNR-7, whose
// layer sums run over interior rows and the forms' cross terms.
func TestDOSNonNegative(t *testing.T) {
	ribbon := builtSolver(t, device.Description{Name: "agnr7", Kind: device.ArmchairGNR, CellsX: 5, CellsY: 7}, 0, nil)
	for _, sol := range []*Solver{chainSolver(t, 6, 0, -1, nil, 1e-6), ribbon} {
		for e := -2.5; e <= 2.5; e += 0.25 {
			r, err := sol.Solve(e, true)
			if err != nil {
				t.Fatal(err)
			}
			if len(r.SpectralL) != sol.H.Layers() {
				t.Fatalf("E=%g: %d layer spectra, want %d", e, len(r.SpectralL), sol.H.Layers())
			}
			for i := range r.SpectralL {
				if d := (r.SpectralL[i] + r.SpectralR[i]) / (2 * math.Pi); d < -1e-9 {
					t.Fatalf("N=%d: negative DOS %g at layer %d, E=%g", sol.H.N(), d, i, e)
				}
			}
		}
	}
}

// TestTransmissionMatchesModeCount verifies the quantized ballistic
// conductance of a clean multi-mode device: T(E) must equal the number of
// lead bands crossing E.
func TestTransmissionMatchesModeCount(t *testing.T) {
	s, err := lattice.NewArmchairGNR(5, 6)
	if err != nil {
		t.Fatal(err)
	}
	h, err := tb.Assemble(s, tb.Graphene(), tb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	h00, h01 := tb.LeadBlocks(h, false)
	bands, err := tb.LeadBands(h00, h01, s.LayerPeriod, 128)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := NewSolver(h, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []float64{0.5, 1.3, 2.4} {
		modes := 0
		// Count band crossings: for each band, count k-intervals where the
		// band passes through e; sum over bands of crossing parity gives
		// the number of right-movers, i.e. the mode count.
		for n := 0; n < bands.NumBands(); n++ {
			crossings := 0
			for ik := 0; ik+1 < len(bands.K); ik++ {
				e1, e2 := bands.Energies[ik][n], bands.Energies[ik+1][n]
				if (e1-e)*(e2-e) < 0 {
					crossings++
				}
			}
			modes += crossings / 2 // each mode crosses E going up and down over the BZ
		}
		T, err := sol.Transmission(e)
		if err != nil {
			t.Fatalf("E=%g: %v", e, err)
		}
		if math.Abs(T-float64(modes)) > 1e-3 {
			t.Fatalf("E=%g: T=%g but lead has %d modes", e, T, modes)
		}
	}
}

func TestNewSolverValidation(t *testing.T) {
	s, _ := lattice.NewLinearChain(0.5, 3)
	h, _ := tb.Assemble(s, tb.SingleBandChain(0, -1), tb.Options{})
	if _, err := NewSolver(h, 0); err == nil {
		t.Fatal("accepted zero broadening")
	}
	if _, err := NewSolver(h, -1); err == nil {
		t.Fatal("accepted negative broadening")
	}
}

// TestTransmissionReciprocity: in a two-terminal device T_LR = T_RL, which
// with our Caroli evaluation corresponds to evaluating the trace with the
// roles of the contacts exchanged. We verify via the dense reference using
// the transposed arrangement: transmission of the spatially mirrored device.
func TestTransmissionReciprocity(t *testing.T) {
	const hop = -1.0
	n := 8
	pot := []float64{0, 0, 0.3, 0.7, 0.1, 0, 0, 0}
	sol := chainSolver(t, n, 0, hop, pot, 1e-6)
	// Mirrored potential.
	rpot := make([]float64, n)
	for i := range pot {
		rpot[n-1-i] = pot[i]
	}
	solR := chainSolver(t, n, 0, hop, rpot, 1e-6)
	for _, e := range []float64{-1.1, 0.2, 0.9} {
		t1, err := sol.Transmission(e)
		if err != nil {
			t.Fatal(err)
		}
		t2, err := solR.Transmission(e)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(t1-t2) > 1e-8 {
			t.Fatalf("E=%g: T=%g but mirrored T=%g", e, t1, t2)
		}
	}
}
