package lanczos

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/lattice"
	"repro/internal/linalg"
	"repro/internal/sparse"
	"repro/internal/tb"
)

// randSparseHermitian builds a random Hermitian CSR matrix with ~bandwidth
// nonzeros per row.
func randSparseHermitian(rng *rand.Rand, n, band int) *sparse.CSR {
	b := sparse.NewBuilder(n, n)
	for i := 0; i < n; i++ {
		b.Add(i, i, complex(rng.NormFloat64(), 0))
		for k := 0; k < band; k++ {
			j := rng.Intn(n)
			if j == i {
				continue
			}
			v := complex(rng.NormFloat64(), rng.NormFloat64()) * 0.3
			b.Add(i, j, v)
			b.Add(j, i, complex(real(v), -imag(v)))
		}
	}
	return b.Build()
}

func denseLowest(t *testing.T, m *sparse.CSR, k int) []float64 {
	t.Helper()
	eig, err := linalg.EigH(m.Dense())
	if err != nil {
		t.Fatal(err)
	}
	return eig.Values[:k]
}

func TestLowestMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	for _, n := range []int{30, 80, 150} {
		m := randSparseHermitian(rng, n, 3)
		want := denseLowest(t, m, 4)
		res, err := Lowest(CSROperator{m}, 4, 1e-10, 0, rng)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i := range want {
			if math.Abs(res.Values[i]-want[i]) > 1e-7*(1+math.Abs(want[i])) {
				t.Fatalf("n=%d: eigenvalue %d = %v, want %v", n, i, res.Values[i], want[i])
			}
		}
	}
}

func TestLowestEigenvectorResiduals(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	m := randSparseHermitian(rng, 60, 3)
	op := CSROperator{m}
	res, err := Lowest(op, 3, 1e-11, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	y := make([]complex128, 60)
	for i, vec := range res.Vectors {
		op.Apply(vec, y)
		var r float64
		for j := range y {
			d := y[j] - complex(res.Values[i], 0)*vec[j]
			r += real(d)*real(d) + imag(d)*imag(d)
		}
		if math.Sqrt(r) > 1e-6 {
			t.Fatalf("eigenpair %d residual %g", i, math.Sqrt(r))
		}
	}
}

func TestLowestValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	m := randSparseHermitian(rng, 10, 2)
	if _, err := Lowest(CSROperator{m}, 0, 1e-8, 0, rng); err == nil {
		t.Fatal("accepted k = 0")
	}
	if _, err := Lowest(CSROperator{m}, 11, 1e-8, 0, rng); err == nil {
		t.Fatal("accepted k > n")
	}
}

// TestParticleInBoxChain: the canonical check against the analytic
// spectrum of a hard-wall chain.
func TestParticleInBoxChain(t *testing.T) {
	const n, hop = 120, -1.0
	b := sparse.NewBuilder(n, n)
	for i := 0; i < n; i++ {
		if i+1 < n {
			b.Add(i, i+1, complex(hop, 0))
			b.Add(i+1, i, complex(hop, 0))
		}
		b.Add(i, i, 0)
	}
	m := b.Build()
	rng := rand.New(rand.NewSource(73))
	res, err := Lowest(CSROperator{m}, 5, 1e-11, 300, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		// Lowest levels: E_k = 2·t·cos(kπ/(n+1)) with t < 0 and k = 1, 2, …
		want := 2 * hop * math.Cos(float64(i+1)*math.Pi/float64(n+1))
		if math.Abs(res.Values[i]-want) > 1e-8 {
			t.Fatalf("box level %d = %v, want %v", i, res.Values[i], want)
		}
	}
}

// TestInteriorFoldedSpectrum: the folded transform must return the states
// closest to the target, not the extremal ones.
func TestInteriorFoldedSpectrum(t *testing.T) {
	// Diagonal matrix with known spectrum −5..5.
	n := 11
	b := sparse.NewBuilder(n, n)
	for i := 0; i < n; i++ {
		b.Add(i, i, complex(float64(i)-5, 0))
	}
	m := b.Build()
	rng := rand.New(rand.NewSource(74))
	res, err := Interior(CSROperator{m}, 0.2, 3, 1e-12, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Closest to 0.2 are {0, 1, −1}.
	want := []float64{-1, 0, 1}
	for i := range want {
		if math.Abs(res.Values[i]-want[i]) > 1e-7 {
			t.Fatalf("interior eigenvalues %v, want %v", res.Values, want)
		}
	}
}

// TestQuantumDotBandEdgeStates: the NEMO-3D use case — band-edge states of
// a finite (fully confined) Si nanocrystal via folded-spectrum Lanczos on
// the sparse tight-binding Hamiltonian, validated against the dense
// solver.
func TestQuantumDotBandEdgeStates(t *testing.T) {
	s, err := lattice.NewZincblendeNanowire(0.5431, 3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	h, err := tb.Assemble(s, tb.SiliconSP3S(), tb.Options{PassivationShift: 12})
	if err != nil {
		t.Fatal(err)
	}
	csr := h.CSR()
	dense, err := linalg.EigH(csr.Dense())
	if err != nil {
		t.Fatal(err)
	}
	// Find the dot's gap around the expected window and target the
	// conduction edge.
	var ev, ec float64
	found := false
	for i := 0; i+1 < len(dense.Values); i++ {
		g := dense.Values[i+1] - dense.Values[i]
		mid := (dense.Values[i+1] + dense.Values[i]) / 2
		if g > 1.0 && mid > 0 && mid < 8 {
			ev, ec = dense.Values[i], dense.Values[i+1]
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no gap in the nanocrystal spectrum")
	}
	rng := rand.New(rand.NewSource(75))
	res, err := Interior(CSROperator{csr}, ec+0.05, 3, 1e-9, 400, rng)
	if err != nil {
		t.Fatal(err)
	}
	// The folded solve must land on true eigenvalues near the conduction
	// edge, all above the valence edge.
	for _, v := range res.Values {
		if v <= ev {
			t.Fatalf("folded state %g fell below the valence edge %g", v, ev)
		}
		// Must match *some* dense eigenvalue.
		best := math.Inf(1)
		for _, d := range dense.Values {
			if x := math.Abs(d - v); x < best {
				best = x
			}
		}
		if best > 1e-6 {
			t.Fatalf("folded eigenvalue %g matches no dense eigenvalue (nearest off by %g)", v, best)
		}
	}
	// And the lowest returned state is the conduction edge itself.
	if math.Abs(res.Values[0]-ec) > 1e-6 {
		t.Fatalf("conduction edge %g, folded found %g", ec, res.Values[0])
	}
}

func TestLanczosLargeSparsePerformanceSanity(t *testing.T) {
	// A 5000-site chain with a deep impurity well: the bound state is
	// spectrally isolated, so Lanczos converges it in a few dozen
	// iterations — the whole point of the iterative solver at NEMO-3D
	// problem sizes. The dense solver would need an 5000³ diagonalization.
	n := 5000
	const well = -3.0
	b := sparse.NewBuilder(n, n)
	for i := 0; i+1 < n; i++ {
		b.Add(i, i+1, -1)
		b.Add(i+1, i, -1)
	}
	b.Add(n/2, n/2, complex(well, 0))
	m := b.Build()
	rng := rand.New(rand.NewSource(76))
	res, err := Lowest(CSROperator{m}, 1, 1e-9, 200, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations >= 150 {
		t.Fatalf("Lanczos used %d iterations for an isolated bound state", res.Iterations)
	}
	// Analytic bound-state energy of a single-site well in an infinite
	// chain: E = −sign·√(well² + 4t²) = −√(9 + 4) for t = −1.
	want := -math.Sqrt(well*well + 4)
	if math.Abs(res.Values[0]-want) > 1e-4 {
		t.Fatalf("impurity bound state %v, want %v", res.Values[0], want)
	}
}

// TestNearTargetShiftInvert: the shift-invert path must find the states
// bracketing a mid-gap target on a real tight-binding dot — fast.
func TestNearTargetShiftInvert(t *testing.T) {
	s, err := lattice.NewZincblendeNanowire(0.5431, 4, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	h, err := tb.Assemble(s, tb.SiliconSP3S(), tb.Options{PassivationShift: 12})
	if err != nil {
		t.Fatal(err)
	}
	dense, err := linalg.EigH(h.CSR().Dense())
	if err != nil {
		t.Fatal(err)
	}
	// Locate a substantial spectral gap and target its middle.
	var lo, hi float64
	found := false
	for i := 0; i+1 < len(dense.Values); i++ {
		if dense.Values[i+1]-dense.Values[i] > 1 {
			mid := (dense.Values[i+1] + dense.Values[i]) / 2
			if mid > 0 && mid < 8 {
				lo, hi = dense.Values[i], dense.Values[i+1]
				found = true
				break
			}
		}
	}
	if !found {
		t.Fatal("no gap found")
	}
	sigma := (lo + hi) / 2
	rng := rand.New(rand.NewSource(80))
	res, err := NearTarget(h, sigma, 2, 1e-9, 120, rng)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Values[0]-lo) > 1e-7 || math.Abs(res.Values[1]-hi) > 1e-7 {
		t.Fatalf("shift-invert found (%g, %g), want (%g, %g)",
			res.Values[0], res.Values[1], lo, hi)
	}
	// Shift-invert must converge far faster than the folded-spectrum
	// transform at the same tolerance.
	if res.Iterations > 100 {
		t.Fatalf("shift-invert used %d iterations", res.Iterations)
	}
}

// TestBTDFactorReuse: repeated shift-invert applications against one
// workspace factorization solve their systems.
func TestBTDFactorReuse(t *testing.T) {
	s, err := lattice.NewLinearChain(0.5, 12)
	if err != nil {
		t.Fatal(err)
	}
	h, err := tb.Assemble(s, tb.SingleBandChain(0.3, -1), tb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a := h.Clone()
	for i := range a.Diag {
		a.Diag[i].Set(0, 0, a.Diag[i].At(0, 0)+complex(5, 0.3))
	}
	ws := linalg.GetWorkspace()
	defer ws.Release()
	op, err := newShiftInvertOp(a, ws)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 3; trial++ {
		b := make([]complex128, a.N())
		for i := range b {
			b[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		x := make([]complex128, op.Dim())
		op.Apply(b, x)
		ax := a.MulVec(x)
		for i := range ax {
			d := ax[i] - b[i]
			if math.Hypot(real(d), imag(d)) > 1e-9 {
				t.Fatalf("trial %d: residual at %d", trial, i)
			}
		}
	}
}
