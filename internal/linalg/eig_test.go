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

func TestEigGeneralDiagonal(t *testing.T) {
	a := New(3, 3)
	a.Set(0, 0, 1+1i)
	a.Set(1, 1, -2)
	a.Set(2, 2, 3i)
	eig, err := Eig(a)
	if err != nil {
		t.Fatal(err)
	}
	found := map[complex128]bool{}
	for _, v := range eig.Values {
		for _, w := range []complex128{1 + 1i, -2, 3i} {
			if cmplx.Abs(v-w) < 1e-10 {
				found[w] = true
			}
		}
	}
	if len(found) != 3 {
		t.Fatalf("diagonal eigenvalues not recovered: %v", eig.Values)
	}
}

func TestEigGeneralKnown2x2(t *testing.T) {
	// [[0,1],[1,0]] has eigenvalues ±1.
	a := FromRows([][]complex128{{0, 1}, {1, 0}})
	vals, err := EigValues(a)
	if err != nil {
		t.Fatal(err)
	}
	sorted := []float64{real(vals[0]), real(vals[1])}
	sort.Float64s(sorted)
	if math.Abs(sorted[0]+1) > 1e-10 || math.Abs(sorted[1]-1) > 1e-10 {
		t.Fatalf("eigenvalues = %v", vals)
	}
}

func TestEigGeneralNonDiagonalizableSafe(t *testing.T) {
	// A Jordan block: defective, but the solver must still return finite
	// output with both eigenvalues ≈ 2.
	a := FromRows([][]complex128{{2, 1}, {0, 2}})
	eig, err := Eig(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range eig.Values {
		if cmplx.Abs(v-2) > 1e-7 {
			t.Fatalf("Jordan block eigenvalue = %v", v)
		}
	}
	for _, v := range eig.Vectors.Data {
		if cmplx.IsNaN(v) || cmplx.IsInf(v) {
			t.Fatal("non-finite eigenvector entries for defective matrix")
		}
	}
}

func TestEigGeneralRandomResiduals(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, n := range []int{2, 3, 6, 15, 30} {
		a := randMatrix(rng, n, n)
		eig, err := Eig(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		scale := 1 + a.MaxAbs()
		for j := 0; j < n; j++ {
			v := make([]complex128, n)
			var vn float64
			for i := 0; i < n; i++ {
				v[i] = eig.Vectors.At(i, j)
				vn += real(v[i])*real(v[i]) + imag(v[i])*imag(v[i])
			}
			if math.Sqrt(vn) < 0.5 {
				t.Fatalf("n=%d: eigenvector %d not normalized", n, j)
			}
			av := a.MulVec(v)
			var res float64
			for i := 0; i < n; i++ {
				res += cmplx.Abs(av[i] - eig.Values[j]*v[i])
			}
			if res > 1e-8*scale*float64(n) {
				t.Fatalf("n=%d: eigenpair %d residual %g", n, j, res)
			}
		}
	}
}

func TestEigGeneralMatchesHermitian(t *testing.T) {
	// On a Hermitian input the general solver must reproduce EigH values.
	rng := rand.New(rand.NewSource(23))
	n := 10
	a := randHermitian(rng, n)
	hv, err := EigH(a)
	if err != nil {
		t.Fatal(err)
	}
	gv, err := EigValues(a)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, n)
	for i, v := range gv {
		if math.Abs(imag(v)) > 1e-8 {
			t.Fatalf("Hermitian matrix produced complex eigenvalue %v", v)
		}
		got[i] = real(v)
	}
	sort.Float64s(got)
	for i := range got {
		if math.Abs(got[i]-hv.Values[i]) > 1e-8 {
			t.Fatalf("general vs Hermitian eigenvalue %d: %v vs %v", i, got[i], hv.Values[i])
		}
	}
}

func TestEigGeneralUnitCircle(t *testing.T) {
	// A circulant shift matrix has eigenvalues that are the n-th roots of
	// unity — a stress test for complex shifts and deflation.
	n := 8
	a := New(n, n)
	for i := 0; i < n; i++ {
		a.Set(i, (i+1)%n, 1)
	}
	vals, err := EigValues(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vals {
		if math.Abs(cmplx.Abs(v)-1) > 1e-8 {
			t.Fatalf("circulant eigenvalue %v not on unit circle", v)
		}
	}
	// They must also be distinct n-th roots of unity.
	for _, v := range vals {
		w := cmplx.Pow(v, complex(float64(n), 0))
		if cmplx.Abs(w-1) > 1e-6 {
			t.Fatalf("eigenvalue %v is not an %d-th root of unity", v, n)
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
