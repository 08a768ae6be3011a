package linalg

import (
	"errors"
	"math/cmplx"
	"math/rand"
	"testing"
)

// solve factorizes a and returns X with A·X = B.
func solve(a, b *Matrix) (*Matrix, error) {
	f, err := Factor(a)
	if err != nil {
		return nil, err
	}
	x := New(b.Rows, b.Cols)
	f.SolveInto(x, b)
	return x, nil
}

// inverse returns a⁻¹ as a fresh matrix.
func inverse(a *Matrix) (*Matrix, error) {
	ws := GetWorkspace()
	defer ws.Release()
	inv := New(a.Rows, a.Cols)
	if err := InverseInto(inv, a, ws); err != nil {
		return nil, err
	}
	return inv, nil
}

func TestLUSolveRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, n := range []int{1, 2, 5, 17, 40} {
		a := randMatrix(rng, n, n)
		// Diagonal boost keeps the random systems comfortably non-singular.
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+complex(float64(n), 0))
		}
		b := randMatrix(rng, n, 3)
		x, err := solve(a, b)
		if err != nil {
			t.Fatalf("n=%d: Solve failed: %v", n, err)
		}
		res := a.Mul(x).Sub(b)
		if res.MaxAbs() > 1e-10 {
			t.Fatalf("n=%d: residual %g too large", n, res.MaxAbs())
		}
	}
}

func TestLUInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 12
	a := randMatrix(rng, n, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+10)
	}
	inv, err := inverse(a)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Mul(inv).Equal(Identity(n), 1e-10) {
		t.Fatal("A·A⁻¹ != I")
	}
	if !inv.Mul(a).Equal(Identity(n), 1e-10) {
		t.Fatal("A⁻¹·A != I")
	}
}

func TestLUDeterminant(t *testing.T) {
	// Known 2×2 determinant.
	a := FromRows([][]complex128{{1, 2}, {3, 4}})
	f, err := Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(f.Det()-(-2)) > 1e-13 {
		t.Fatalf("det = %v, want -2", f.Det())
	}
	// Determinant of the identity is 1 regardless of pivoting.
	f2, _ := Factor(Identity(5))
	if cmplx.Abs(f2.Det()-1) > 1e-14 {
		t.Fatalf("det(I) = %v", f2.Det())
	}
	// det is multiplicative on a random pair.
	rng := rand.New(rand.NewSource(12))
	x := randMatrix(rng, 6, 6)
	y := randMatrix(rng, 6, 6)
	fx, _ := Factor(x)
	fy, _ := Factor(y)
	fxy, _ := Factor(x.Mul(y))
	if cmplx.Abs(fxy.Det()-fx.Det()*fy.Det()) > 1e-8*(1+cmplx.Abs(fxy.Det())) {
		t.Fatal("det(XY) != det(X)det(Y)")
	}
}

func TestLUSingular(t *testing.T) {
	a := FromRows([][]complex128{{1, 2}, {2, 4}})
	if _, err := Factor(a); !errors.Is(err, ErrSingular) {
		t.Fatalf("Factor of singular matrix returned %v, want ErrSingular", err)
	}
	if _, err := Factor(New(3, 3)); !errors.Is(err, ErrSingular) {
		t.Fatalf("Factor of zero matrix returned %v", err)
	}
}

func TestLUNonSquare(t *testing.T) {
	if _, err := Factor(New(2, 3)); err == nil {
		t.Fatal("Factor accepted a non-square matrix")
	}
}

func TestLUPivotingStability(t *testing.T) {
	// Without pivoting this system loses all accuracy: tiny leading pivot.
	a := FromRows([][]complex128{{1e-20, 1}, {1, 1}})
	b := FromRows([][]complex128{{1}, {2}})
	x, err := solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	res := a.Mul(x).Sub(b)
	if res.MaxAbs() > 1e-12 {
		t.Fatalf("pivoted solve residual %g", res.MaxAbs())
	}
}

func TestLUSolveManyRHS(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 15
	a := randMatrix(rng, n, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+8)
	}
	f, err := Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	// Solving column-by-column must agree with the block solve.
	b := randMatrix(rng, n, 7)
	block := New(n, 7)
	f.SolveInto(block, b)
	for j := 0; j < 7; j++ {
		xj := b.Submatrix(0, j, n, 1)
		f.SolveInPlace(xj)
		if !xj.Equal(block.Submatrix(0, j, n, 1), 1e-11) {
			t.Fatalf("column %d of block solve disagrees with single solve", j)
		}
	}
}

// TestFactorInPlaceMatchesFactor pins the in-place factorization on
// workspace storage — the block-Thomas solve's form — to Factor: the same
// packed factors, pivots, determinant and solutions bit for bit, the same
// ErrSingular, and the input really used as the factor storage.
func TestFactorInPlaceMatchesFactor(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	ws := GetWorkspace()
	defer ws.Release()
	for _, n := range []int{0, 1, 7, 14} {
		a := randMatrix(rng, n, n)
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+complex(float64(n), 0.5))
		}
		b := randMatrix(rng, n, 5)
		want, err := Factor(a)
		if err != nil {
			t.Fatal(err)
		}
		wantX := New(n, 5)
		want.SolveInto(wantX, b)

		lu := ws.Get(n, n)
		lu.CopyFrom(a)
		piv := ws.GetInts(n)
		got, err := FactorInPlace(lu, piv)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got.lu != lu {
			t.Fatalf("n=%d: FactorInPlace did not factor into its argument", n)
		}
		requireBits(t, "packed factors", lu.Data, want.lu.Data)
		for k := range piv {
			if piv[k] != want.piv[k] {
				t.Fatalf("n=%d: pivot %d is row %d, Factor chose %d", n, k, piv[k], want.piv[k])
			}
		}
		gotX := ws.Get(n, 5)
		got.SolveInto(gotX, b)
		requireBits(t, "solution", gotX.Data, wantX.Data)
		if !sameBits(got.Det(), want.Det()) {
			t.Fatalf("n=%d: det %v, Factor's %v", n, got.Det(), want.Det())
		}
		ws.PutInts(piv)
	}

	if _, err := FactorInPlace(ws.Get(3, 3), ws.GetInts(3)); !errors.Is(err, ErrSingular) {
		t.Fatalf("FactorInPlace of the zero matrix returned %v, want ErrSingular", err)
	}
	if _, err := FactorInPlace(New(2, 3), make([]int, 2)); err == nil {
		t.Fatal("FactorInPlace accepted a non-square matrix")
	}
	if _, err := FactorInPlace(New(3, 3), make([]int, 2)); err == nil {
		t.Fatal("FactorInPlace accepted a pivot slice shorter than the matrix order")
	}
}
