package linalg

import (
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// factor returns the LU factorization of a clone of a.
func factor(a *Matrix) (LU, error) {
	return FactorInPlace(a.Clone(), make([]int, a.Rows))
}

// solve factorizes a and returns X with A·X = B.
func solve(a, b *Matrix) (*Matrix, error) {
	f, err := factor(a)
	if err != nil {
		return nil, err
	}
	x := b.Clone()
	f.SolveInPlace(x)
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

func TestLUSingular(t *testing.T) {
	a := FromRows([][]complex128{{1, 2}, {2, 4}})
	if _, err := factor(a); !errors.Is(err, ErrSingular) {
		t.Fatalf("FactorInPlace of singular matrix returned %v, want ErrSingular", err)
	}
	if _, err := factor(New(3, 3)); !errors.Is(err, ErrSingular) {
		t.Fatalf("FactorInPlace of zero matrix returned %v", err)
	}
}

func TestLUNonSquare(t *testing.T) {
	if _, err := FactorInPlace(New(2, 3), make([]int, 2)); err == nil {
		t.Fatal("FactorInPlace accepted a non-square matrix")
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
	f, err := factor(a)
	if err != nil {
		t.Fatal(err)
	}
	// Solving column-by-column must agree with the block solve.
	b := randMatrix(rng, n, 7)
	block := b.Clone()
	f.SolveInPlace(block)
	for j := 0; j < 7; j++ {
		xj := b.Submatrix(0, j, n, 1)
		f.SolveInPlace(xj)
		if !xj.Equal(block.Submatrix(0, j, n, 1), 1e-11) {
			t.Fatalf("column %d of block solve disagrees with single solve", j)
		}
	}
}

// TestFactorInPlaceOnWorkspaceStorage pins the in-place factorization on
// workspace storage — the block-Thomas solve's form — to the scalar oracle
// of reference_test.go: the same packed factors, pivots and solutions bit
// for bit, the same ErrSingular, and the input really used as the factor
// storage.
func TestFactorInPlaceOnWorkspaceStorage(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	ws := GetWorkspace()
	defer ws.Release()
	for _, n := range []int{0, 1, 7, 14} {
		a := randMatrix(rng, n, n)
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+complex(float64(n), 0.5))
		}
		b := randMatrix(rng, n, 5)
		wantLU, wantPiv := a.Clone(), make([]int, n)
		if err := refFactorInPlace(wantLU, wantPiv); err != nil {
			t.Fatal(err)
		}
		wantX := b.Clone()
		refLuSolveInPlace(wantLU, wantPiv, wantX, 0)

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
		requireBits(t, "packed factors", lu.Data, wantLU.Data)
		for k := range piv {
			if piv[k] != wantPiv[k] {
				t.Fatalf("n=%d: pivot %d is row %d, the reference chose %d", n, k, piv[k], wantPiv[k])
			}
		}
		gotX := ws.Get(n, 5)
		gotX.CopyFrom(b)
		got.SolveInPlace(gotX)
		requireBits(t, "solution", gotX.Data, wantX.Data)
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

// checkPivotColumn places col in column k of an otherwise huge-valued
// matrix (rows above k must not be scanned) and requires pivotSearch to
// pick refPivotScan's row, with the singular test agreeing too.
func checkPivotColumn(t *testing.T, name string, col []complex128, k int) {
	t.Helper()
	n := k + len(col)
	lu := make([]complex128, n*n)
	for i := range lu {
		lu[i] = complex(1e300, -1e300)
	}
	for i, z := range col {
		lu[(k+i)*n+k] = z
	}
	want, maxAbs := refPivotScan(lu, n, k)
	if got := pivotSearch(lu, n, k); got != want {
		t.Fatalf("%s (k=%d): pivotSearch picked row %d (%v), the Hypot scan row %d (%v)",
			name, k, got, lu[got*n+k], want, lu[want*n+k])
	}
	if (lu[want*n+k] == 0) != (maxAbs == 0) {
		t.Fatalf("%s (k=%d): singular test on %v disagrees with max modulus %v", name, k, lu[want*n+k], maxAbs)
	}
}

// TestPivotSearchMatchesHypotScan holds the |z|²-ranked pivot search to the
// cmplx.Abs scan on the columns where the two could part: exact ties
// (first row wins), signed zeros and an all-zero column, near-ties on
// either side of the band, subnormals, moduli beyond 1e±140, Inf and NaN.
func TestPivotSearchMatchesHypotScan(t *testing.T) {
	z := complex(0.7, -2.3)
	swap := complex(imag(z), real(z))
	nz := math.Copysign(0, -1)
	inf, nan := math.Inf(1), math.NaN()
	up := func(x float64, ulps int) float64 {
		for ; ulps > 0; ulps-- {
			x = math.Nextafter(x, math.Inf(1))
		}
		return x
	}
	scale := func(z complex128, s float64) complex128 { return complex(real(z)*s, imag(z)*s) }
	cases := []struct {
		name string
		col  []complex128
	}{
		{"ties", []complex128{z, -z, cmplx.Conj(z), swap, -cmplx.Conj(swap)}},
		{"ties after a smaller diagonal", []complex128{0.1, swap, z, -z, cmplx.Conj(z)}},
		{"equal Hypot, different pairs", []complex128{complex(3, 4), 5, complex(0, -5), complex(-4, 3)}},
		{"signed zeros", []complex128{0, complex(nz, 0), complex(0, nz), complex(nz, nz), 1e-3, complex(nz, 2e-3)}},
		{"all zero", []complex128{complex(nz, 0), 0, complex(nz, nz)}},
		{"zero diagonal", []complex128{0, complex(nz, nz), 1e-300, z}},
		{"inside the band", []complex128{z, scale(z, 1+1e-13), scale(z, 1+2e-13), scale(z, 1-1e-13)}},
		{"ulp near-ties", []complex128{z, complex(real(z), math.Nextafter(imag(z), 0)), complex(up(real(z), 1), imag(z)), complex(up(real(z), 3), imag(z)), complex(imag(z), up(real(z), 2))}},
		// Pairs whose computed |z|² and Hypot order oppositely: a band of 0
		// would take the wrong row.
		{"|z|² and Hypot disagree", []complex128{complex(0.7567988418466963, 0.9272984707640832), complex(0.9272984707640833, 0.7567988418466967)}},
		{"|z|² and Hypot disagree, ulps", []complex128{complex(1.42027949678888, -0.36877846074736254), complex(1.42027949678888, -0.3687784607473627)}},
		{"Hypot and |z|² disagree", []complex128{complex(0.3867042663315534, -0.4305130175194609), complex(-0.4305130175194608, 0.3867042663315535)}},
		{"just outside the band", []complex128{z, scale(z, 1+1e-12), scale(z, 1+1.1e-12), scale(z, 1-1e-12)}},
		{"subnormals", []complex128{5e-324, complex(0, 1e-320), complex(1e-310, 1e-310), 2e-308, complex(1e-310, 2e-308)}},
		// Moduli near 1e-162, whose squares are subnormal and rank backwards.
		{"subnormal squares", []complex128{complex(2.6084077839800174e-162, 2.600021669463861e-163), complex(1.6613187876440425e-162, 1.6169193466819033e-162)}},
		{"subnormal squares after a zero diagonal", []complex128{0, complex(2.6084077839800174e-162, 2.600021669463861e-163), complex(1.6613187876440425e-162, 1.6169193466819033e-162)}},
		{"underflowing square", []complex128{complex(1.5645989111427642e-162, 1.5668223633436283e-162), complex(3.3348551893479253e-163, 1.7215311934991223e-162)}},
		{"subnormal beside normal", []complex128{complex(1, 1e-315), complex(1e-315, 1), 1}},
		{"large moduli", []complex128{1, 1e160, complex(1e160, 1e160), complex(-1e160, 1e160), 1e161, complex(1e300, 1e300)}},
		{"tiny moduli", []complex128{1e-160, complex(1e-160, -1e-160), 1e-170, complex(0, 2e-160)}},
		{"range edges", []complex128{1e-140, 1e140, complex(1e140, 1e140), 1.0000000001e140}},
		{"infinities", []complex128{1, complex(inf, 0), complex(0, -inf), complex(nan, inf), complex(inf, inf)}},
		{"NaN entries", []complex128{1, complex(nan, 0), complex(2, nan), 3, complex(nan, nan), 3}},
		{"NaN diagonal", []complex128{complex(nan, 1), 5, complex(inf, 0)}},
		{"Inf diagonal", []complex128{complex(inf, 1), 5, complex(nan, inf)}},
	}
	for _, c := range cases {
		for k := 0; k < 3; k++ {
			checkPivotColumn(t, c.name, c.col, k)
		}
	}
}

// FuzzPivotSearch grows a column from one fuzzed entry by operations that
// land on the search's hard cases — exact ties by sign, conjugation and
// re/im swap, near-ties of a few ulps to 1e-11, zeros, moduli past 1e±140,
// Inf and NaN — and holds pivotSearch to the cmplx.Abs scan on it.
func FuzzPivotSearch(f *testing.F) {
	f.Add(0.7, -2.3, []byte{0, 1, 2, 3, 4, 5})
	f.Add(3.0, 4.0, []byte{12, 25, 38, 51, 64, 77})
	f.Add(1e-160, 1e-170, []byte{8, 9, 10, 11, 6, 7})
	f.Add(0.0, 0.0, []byte{6, 6, 0})
	f.Fuzz(func(t *testing.T, re, im float64, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		col := []complex128{complex(re, im)}
		for _, op := range ops {
			z := col[int(op>>4)%len(col)]
			switch op % 16 {
			case 0:
				z = -z
			case 1:
				z = cmplx.Conj(z)
			case 2:
				z = complex(imag(z), real(z))
			case 3:
				z = complex(math.Nextafter(real(z), math.Inf(1)), imag(z))
			case 4:
				z = complex(real(z), math.Nextafter(imag(z), math.Inf(-1)))
			case 5:
				z *= 1 + 1e-13
			case 6:
				z = 0
			case 7:
				z *= 1 + 1e-11
			case 8:
				z *= 1e150
			case 9:
				z *= 1e-150
			case 10:
				z = complex(math.NaN(), imag(z))
			case 11:
				z = complex(real(z), math.Inf(1))
			case 12:
				z *= 1 - 1e-12
			case 13:
				z = complex(-real(z), math.Copysign(0, -1))
			case 14:
				z = complex(real(z)*0.5, imag(z)*2)
			}
			col = append(col, z)
		}
		checkPivotColumn(t, "fuzzed column", col, 0)
	})
}

// tightBindingBlock returns (E + iη)·I − H for a nearest-neighbour ladder
// of n sites and width w: onsite energies from a few levels, and hoppings
// of one modulus with Peierls-like phases from a small set — the columns a
// transport solve factors, full of exact modulus ties.
func tightBindingBlock(rng *rand.Rand, n, w int) *Matrix {
	a := New(n, n)
	levels := []float64{0, 0.5, -0.25}
	phases := []complex128{1, -1, 1i, -1i, complex(math.Sqrt(0.5), math.Sqrt(0.5))}
	e := complex(rng.Float64()*2-1, 1e-6)
	hop := func(i, j int) {
		t := complex(-2.7, 0) * phases[rng.Intn(len(phases))]
		a.Data[i*n+j] -= t
		a.Data[j*n+i] -= cmplx.Conj(t)
	}
	for i := 0; i < n; i++ {
		a.Data[i*n+i] = e - complex(levels[rng.Intn(len(levels))], 0)
		if (i+1)%w != 0 && i+1 < n {
			hop(i, i+1)
		}
		if i+w < n {
			hop(i, i+w)
		}
	}
	return a
}

// TestFactorInPlaceMatchesHypotReference: with pivotSearch in the loop,
// FactorInPlace still produces the Hypot-pivoted reference factorization
// bit for bit — factors, pivots and error — on random blocks and on
// tight-binding blocks of every order 1…65, on both kernel engines.
func TestFactorInPlaceMatchesHypotReference(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	for n := 1; n <= 65; n++ {
		for _, a := range []*Matrix{randMatrix(rng, n, n), tightBindingBlock(rng, n, 1+rng.Intn(4))} {
			want := a.Clone()
			wantPiv := make([]int, n)
			wantErr := refFactorInPlace(want, wantPiv)
			eachEngine(t, func(engine string) {
				lu := a.Clone()
				piv := make([]int, n)
				if _, err := FactorInPlace(lu, piv); !errors.Is(err, wantErr) {
					t.Fatalf("%s n=%d: err %v, want %v", engine, n, err, wantErr)
				}
				for k := range piv {
					if piv[k] != wantPiv[k] {
						t.Fatalf("%s n=%d: pivot %d is row %d, the reference chose %d", engine, n, k, piv[k], wantPiv[k])
					}
				}
				requireBits(t, engine+" factors", lu.Data, want.Data)
			})
		}
	}
}
