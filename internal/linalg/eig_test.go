package linalg

import (
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/perf"
)

func TestEigHDiagonal(t *testing.T) {
	a := New(3, 3)
	a.Set(0, 0, 3)
	a.Set(1, 1, -1)
	a.Set(2, 2, 2)
	eig, err := EigH(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{-1, 2, 3}
	for i, w := range want {
		if math.Abs(eig.Values[i]-w) > 1e-12 {
			t.Fatalf("eigenvalue %d = %v, want %v", i, eig.Values[i], w)
		}
	}
}

func TestEigHPauliY(t *testing.T) {
	// σ_y has eigenvalues ±1 and genuinely complex eigenvectors.
	a := FromRows([][]complex128{{0, -1i}, {1i, 0}})
	eig, err := EigH(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(eig.Values[0]+1) > 1e-12 || math.Abs(eig.Values[1]-1) > 1e-12 {
		t.Fatalf("σ_y eigenvalues = %v, want [-1, 1]", eig.Values)
	}
	checkEigHResiduals(t, a, eig, 1e-12)
}

func TestEigHRandomResiduals(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, n := range []int{1, 2, 3, 8, 25, 60} {
		a := randHermitian(rng, n)
		eig, err := EigH(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		checkEigHResiduals(t, a, eig, 1e-10)
		// Eigenvalues must come out ascending.
		if !sort.Float64sAreSorted(eig.Values) {
			t.Fatalf("n=%d: eigenvalues not sorted: %v", n, eig.Values)
		}
		// Eigenvectors must be orthonormal: V†V = I.
		vtv := eig.Vectors.ConjTranspose().Mul(eig.Vectors)
		if !vtv.Equal(Identity(n), 1e-9) {
			t.Fatalf("n=%d: eigenvectors not orthonormal (dev %g)",
				n, vtv.Sub(Identity(n)).MaxAbs())
		}
	}
}

func TestEigHTraceInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	a := randHermitian(rng, 18)
	eig, err := EigH(a)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range eig.Values {
		sum += v
	}
	if math.Abs(sum-real(a.Trace())) > 1e-9 {
		t.Fatalf("Σλ = %v but Tr A = %v", sum, real(a.Trace()))
	}
}

func TestEigHDegenerate(t *testing.T) {
	// A matrix with an exactly repeated eigenvalue: 2×2 identity block.
	a := FromRows([][]complex128{
		{2, 0, 0},
		{0, 2, 0},
		{0, 0, 5},
	})
	eig, err := EigH(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 2, 5}
	for i := range want {
		if math.Abs(eig.Values[i]-want[i]) > 1e-12 {
			t.Fatalf("degenerate eigenvalues = %v", eig.Values)
		}
	}
	checkEigHResiduals(t, a, eig, 1e-12)
}

// TestEigHParticleInBox checks the canonical tight-binding chain spectrum:
// a hard-wall 1-D chain with hopping t has eigenvalues
// ε + 2t·cos(kπ/(N+1)), the discrete particle-in-a-box.
func TestEigHParticleInBox(t *testing.T) {
	const n = 30
	const eps0, hop = 0.0, -1.0
	a := New(n, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, complex(eps0, 0))
		if i+1 < n {
			a.Set(i, i+1, complex(hop, 0))
			a.Set(i+1, i, complex(hop, 0))
		}
	}
	eig, err := EigH(a)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, n)
	for k := 1; k <= n; k++ {
		want[k-1] = eps0 + 2*hop*math.Cos(float64(k)*math.Pi/float64(n+1))
	}
	sort.Float64s(want)
	for i := range want {
		if math.Abs(eig.Values[i]-want[i]) > 1e-10 {
			t.Fatalf("box level %d = %v, want %v", i, eig.Values[i], want[i])
		}
	}
}

func checkEigHResiduals(t *testing.T, a *Matrix, eig *EigenH, tol float64) {
	t.Helper()
	n := a.Rows
	scale := 1 + a.MaxAbs()
	for j := 0; j < n; j++ {
		v := make([]complex128, n)
		for i := 0; i < n; i++ {
			v[i] = eig.Vectors.At(i, j)
		}
		av := a.MulVec(v)
		for i := 0; i < n; i++ {
			r := av[i] - complex(eig.Values[j], 0)*v[i]
			if cmplx.Abs(r) > tol*scale {
				t.Fatalf("residual ‖Av−λv‖ component %g exceeds %g for eigenpair %d",
					cmplx.Abs(r), tol*scale, j)
			}
		}
	}
}

// TestEigHNoConvergenceIsTyped drives the QL iteration past its sweep
// bound (a NaN off-diagonal never passes the deflation test) and
// requires the exported sentinel.
func TestEigHNoConvergenceIsTyped(t *testing.T) {
	a := FromRows([][]complex128{{1, complex(math.NaN(), 0)}, {complex(math.NaN(), 0), 2}})
	if _, err := EigH(a); !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("EigH returned %v, want ErrNoConvergence", err)
	}
}

// TestEigHSymmetricSpectrum is the regression of a QL sweep that completed
// with its last rotation value (d_l − g)·s + 2cb exactly 0 and was taken
// for a mid-sweep split: the update of d_l and e_l was skipped and the
// eigenvalues came back off by O(‖A‖), residual 1.01. The matrix is the
// interior block of an AGNR-7 cell under a 1e-9 eV potential — a bipartite
// hopping graph, spectrum symmetric about its diagonal — at the one shift
// that hit it; its neighbours bracket it.
func TestEigHSymmetricSpectrum(t *testing.T) {
	for _, c := range []float64{0, 7.071067811865476e-10, 9.659258262890684e-10, 1e-3, 1} {
		a := New(7, 7)
		for i := 0; i < 7; i++ {
			a.Set(i, i, complex(c, 0))
		}
		for _, p := range [][2]int{{0, 4}, {1, 4}, {1, 5}, {2, 5}, {2, 6}, {3, 6}} {
			a.Set(p[0], p[1], -2.7)
			a.Set(p[1], p[0], -2.7)
		}
		eig, err := EigH(a)
		if err != nil {
			t.Fatal(err)
		}
		checkEigHResiduals(t, a, eig, 1e-14)
		for j, l := range eig.Values {
			if mirror := 2*c - eig.Values[len(eig.Values)-1-j]; math.Abs(l-mirror) > 1e-13 {
				t.Errorf("c = %g: λ_%d = %.15g, its mirror about c %.15g", c, j, l, mirror)
			}
		}
	}
}

// TestEigHSetupCountsNothing: the set-up variant returns EigH's bits and
// adds no flop to the counter.
func TestEigHSetupCountsNothing(t *testing.T) {
	a := randHermitian(rand.New(rand.NewSource(41)), 9)
	before := perf.Flops()
	setup, err := EigHSetup(a)
	if err != nil {
		t.Fatal(err)
	}
	if d := perf.Flops() - before; d != 0 {
		t.Fatalf("EigHSetup counted %d flops", d)
	}
	eig, err := EigH(a)
	if err != nil {
		t.Fatal(err)
	}
	for j, l := range eig.Values {
		if setup.Values[j] != l {
			t.Fatalf("eigenvalue %d: EigHSetup %v, EigH %v", j, setup.Values[j], l)
		}
	}
	for i, v := range eig.Vectors.Data {
		if setup.Vectors.Data[i] != v {
			t.Fatalf("eigenvector entry %d: EigHSetup %v, EigH %v", i, setup.Vectors.Data[i], v)
		}
	}
}

// TestEigHInOnWorkspace: EigHIn returns EigH's bits and counts its flops
// (none where count is false) with every buffer, its results included,
// checked out of the workspace — on a workspace whose slab holds the
// real vectors of its eigensolves, it allocates nothing — on a matrix with
// degenerate eigenvalues, where the sort's order on ties shows.
func TestEigHInOnWorkspace(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	for _, n := range []int{0, 1, 2, 7, 16} {
		a := randHermitian(r, n)
		for i := 0; i < n/2; i++ { // pairs of equal eigenvalues
			a.Data[(n-1-i)*n+(n-1-i)] = a.Data[i*n+i]
		}
		before := perf.Flops()
		want, err := EigH(a)
		if err != nil {
			t.Fatal(err)
		}
		flops := perf.Flops() - before
		// Thirteen eigensolves between releases set the slab a fresh
		// workspace is carved to: the two below, AllocsPerRun's warm-up
		// and the ten it measures.
		ws := GetWorkspace()
		for i := 0; i < 13; i++ {
			EigHIn(a, ws, false)
		}
		ws.Release()
		ws = newWorkspace()
		for _, count := range []bool{true, false} {
			before = perf.Flops()
			got, err := EigHIn(a, ws, count)
			if err != nil {
				t.Fatal(err)
			}
			if d := perf.Flops() - before; count && d != flops || !count && d != 0 {
				t.Fatalf("n=%d count %v: EigHIn counted %d flops, EigH %d", n, count, d, flops)
			}
			if !slices.Equal(got.Values, want.Values) || !slices.Equal(got.Vectors.Data, want.Vectors.Data) {
				t.Fatalf("n=%d count %v: EigHIn's eigenpairs differ from EigH's", n, count)
			}
			ws.Put(got.Vectors)
		}
		if a := testing.AllocsPerRun(10, func() {
			eig, _ := EigHIn(a, ws, false)
			ws.Put(eig.Vectors)
		}); a != 0 {
			t.Errorf("n=%d: a warm EigHIn allocated %v times", n, a)
		}
	}
}

// TestSortAscendingOrdersAsSortSlice holds EigH's eigenvalue sort to the
// permutation sort.Slice gives, on keys with many ties and NaNs, at sizes
// past the insertion sort's and the pattern breaker's thresholds: tied
// degenerate modes must come out in the order they always did.
func TestSortAscendingOrdersAsSortSlice(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	for it := 0; it < 3000; it++ {
		n := r.Intn(300)
		d := make([]float64, n)
		for i := range d {
			if d[i] = float64(r.Intn(1 + n/(1+r.Intn(8)))); r.Intn(20) == 0 {
				d[i] = math.NaN()
			}
		}
		if it%5 == 0 {
			slices.Sort(d[:n/2]) // presorted runs take the partial insertion sort
		}
		want := make([]int, n)
		for i := range want {
			want[i] = i
		}
		sort.Slice(want, func(a, b int) bool { return d[want[a]] < d[want[b]] })
		got := make([]int, n)
		sortAscending(got, d)
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d: sortAscending %v, sort.Slice %v", n, got, want)
		}
	}
}
