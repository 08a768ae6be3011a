package linalg

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// randMatrix returns an n×m matrix with entries uniform in the unit square,
// using the provided source for reproducibility.
func randMatrix(rng *rand.Rand, n, m int) *Matrix {
	a := New(n, m)
	for i := range a.Data {
		a.Data[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	return a
}

// randHermitian returns a random n×n Hermitian matrix.
func randHermitian(rng *rand.Rand, n int) *Matrix {
	a := randMatrix(rng, n, n)
	h := a.Add(a.ConjTranspose())
	h.ScaleInPlace(0.5)
	return h
}

func TestNewAndIdentity(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 {
		t.Fatalf("New(3,4) has shape %dx%d", m.Rows, m.Cols)
	}
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("New matrix is not zero-initialized")
		}
	}
	id := Identity(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := complex128(0)
			if i == j {
				want = 1
			}
			if id.At(i, j) != want {
				t.Fatalf("Identity(3)[%d][%d] = %v", i, j, id.At(i, j))
			}
		}
	}
}

func TestFromRowsAndAt(t *testing.T) {
	m := FromRows([][]complex128{{1, 2i}, {3, 4 + 1i}})
	if m.At(0, 1) != 2i || m.At(1, 1) != 4+1i {
		t.Fatalf("FromRows content mismatch: %v", m)
	}
	m.Set(0, 0, 9)
	if m.At(0, 0) != 9 {
		t.Fatal("Set did not update element")
	}
}

func TestAddSubScale(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randMatrix(rng, 4, 5)
	b := randMatrix(rng, 4, 5)
	sum := a.Add(b)
	diff := sum.Sub(b)
	if !diff.Equal(a, 1e-14) {
		t.Fatal("(a+b)−b != a")
	}
	s := a.Scale(2 + 1i)
	for i := range a.Data {
		if cmplx.Abs(s.Data[i]-(2+1i)*a.Data[i]) > 1e-14 {
			t.Fatal("Scale mismatch")
		}
	}
	c := a.Clone()
	c.AddInPlace(b)
	if !c.Equal(sum, 0) {
		t.Fatal("AddInPlace != Add")
	}
}

func TestMulAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randMatrix(rng, 7, 13)
	b := randMatrix(rng, 13, 5)
	got := a.Mul(b)
	want := New(7, 5)
	for i := 0; i < 7; i++ {
		for j := 0; j < 5; j++ {
			var s complex128
			for k := 0; k < 13; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			want.Set(i, j, s)
		}
	}
	if !got.Equal(want, 1e-12) {
		t.Fatal("blocked GEMM disagrees with naive product")
	}
}

func TestMulLargeBlocked(t *testing.T) {
	// Exercise the blocking path with dimensions beyond one tile.
	rng := rand.New(rand.NewSource(3))
	n := gemmBlock + 17
	a := randMatrix(rng, n, n)
	id := Identity(n)
	if !a.Mul(id).Equal(a, 1e-12) {
		t.Fatal("A·I != A for blocked sizes")
	}
	if !id.Mul(a).Equal(a, 1e-12) {
		t.Fatal("I·A != A for blocked sizes")
	}
}

func TestConjTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randMatrix(rng, 4, 6)
	at := a.ConjTranspose()
	if at.Rows != 6 || at.Cols != 4 {
		t.Fatalf("ConjTranspose shape %dx%d", at.Rows, at.Cols)
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 6; j++ {
			if at.At(j, i) != cmplx.Conj(a.At(i, j)) {
				t.Fatal("ConjTranspose entry mismatch")
			}
		}
	}
	if !a.ConjTranspose().ConjTranspose().Equal(a, 0) {
		t.Fatal("double adjoint is not the identity")
	}
}

func TestTraceDiag(t *testing.T) {
	m := FromRows([][]complex128{{1, 2}, {3, 4i}})
	if m.Trace() != 1+4i {
		t.Fatalf("Trace = %v", m.Trace())
	}
	d := m.Diag()
	if d[0] != 1 || d[1] != 4i {
		t.Fatalf("Diag = %v", d)
	}
}

func TestSubmatrixRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randMatrix(rng, 6, 6)
	b := a.Submatrix(1, 2, 3, 4)
	if b.Rows != 3 || b.Cols != 4 {
		t.Fatalf("Submatrix shape %dx%d", b.Rows, b.Cols)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if b.At(i, j) != a.At(1+i, 2+j) {
				t.Fatal("Submatrix content mismatch")
			}
		}
	}
	c := New(6, 6)
	c.SetSubmatrix(1, 2, b)
	if !c.Submatrix(1, 2, 3, 4).Equal(b, 0) {
		t.Fatal("SetSubmatrix/Submatrix round trip failed")
	}
}

func TestIsHermitian(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := randHermitian(rng, 5)
	if !h.IsHermitian(1e-14) {
		t.Fatal("randHermitian result not Hermitian")
	}
	h.Set(0, 1, h.At(0, 1)+1)
	if h.IsHermitian(1e-6) {
		t.Fatal("perturbed matrix still reported Hermitian")
	}
	if New(2, 3).IsHermitian(1) {
		t.Fatal("non-square matrix reported Hermitian")
	}
}

func TestMulVec(t *testing.T) {
	a := FromRows([][]complex128{{1, 2}, {3, 4}})
	y := a.MulVec([]complex128{1, 1i})
	if y[0] != 1+2i || y[1] != 3+4i {
		t.Fatalf("MulVec = %v", y)
	}
}

func TestNorms(t *testing.T) {
	m := FromRows([][]complex128{{3, 0}, {0, 4i}})
	if m.MaxAbs() != 4 {
		t.Fatalf("MaxAbs = %v", m.MaxAbs())
	}
	if d := m.FrobeniusNorm() - 5; d > 1e-14 || d < -1e-14 {
		t.Fatalf("FrobeniusNorm = %v", m.FrobeniusNorm())
	}
}

// TestMaxAbsPropagatesNaN: a NaN anywhere — first, last, in either part,
// all of them — makes the norm NaN, so no "norm < tol" test passes on it;
// an overflowed element reads +Inf.
func TestMaxAbsPropagatesNaN(t *testing.T) {
	nan := math.NaN()
	for _, m := range []*Matrix{
		FromRows([][]complex128{{complex(nan, 0), 1}, {2, 3}}),
		FromRows([][]complex128{{1, 2}, {3, complex(0, nan)}}),
		FromRows([][]complex128{{complex(nan, nan), complex(nan, nan)}}),
	} {
		if got := m.MaxAbs(); !math.IsNaN(got) {
			t.Fatalf("MaxAbs(%v) = %v, want NaN", m, got)
		}
	}
	if got := FromRows([][]complex128{{1, complex(math.Inf(-1), 0)}}).MaxAbs(); !math.IsInf(got, 1) {
		t.Fatalf("MaxAbs with an infinite element = %v, want +Inf", got)
	}
}

func TestMul3Associativity(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randMatrix(rng, 3, 7)
	b := randMatrix(rng, 7, 2)
	c := randMatrix(rng, 2, 5)
	ws := GetWorkspace()
	defer ws.Release()
	got := New(3, 5)
	Mul3Into(got, a, NoTrans, b, NoTrans, c, NoTrans, ws)
	want := a.Mul(b).Mul(c)
	if !got.Equal(want, 1e-12) {
		t.Fatal("Mul3Into disagrees with left association")
	}
}

func TestPanicsOnShapeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add with mismatched shapes did not panic")
		}
	}()
	New(2, 2).Add(New(3, 3))
}
