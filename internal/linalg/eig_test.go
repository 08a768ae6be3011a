package linalg

import (
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
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
