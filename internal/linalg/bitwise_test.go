package linalg

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/perf"
)

// avxAvailable is the CPUID probe's verdict, captured before any test
// flips hasAVX. It is false under the purego build tag and off amd64,
// where only the fallback engine exists.
var avxAvailable = hasAVX

// eachEngine runs fn once per kernel engine this build has — the scalar
// fallback always, the AVX microkernels where available — with hasAVX
// forced accordingly, and requires the flop count fn reports to be the
// same on every engine.
func eachEngine(t *testing.T, fn func(engine string)) {
	t.Helper()
	defer func(old bool) { hasAVX = old }(hasAVX)
	engines := []bool{false}
	if avxAvailable {
		engines = append(engines, true)
	}
	var flops []int64
	for _, avx := range engines {
		hasAVX = avx
		name := "fallback"
		if avx {
			name = "avx"
		}
		perf.ResetFlops()
		fn(name)
		flops = append(flops, perf.ResetFlops())
	}
	if len(flops) == 2 && flops[0] != flops[1] {
		t.Fatalf("flop count differs across engines: fallback %d, avx %d", flops[0], flops[1])
	}
}

// randSpecialZ returns n random complex values. Every class sprinkles
// exact zeros so the kernels' zero-skip branches run; "signed" adds
// negative zeros, and "nonfinite" adds ±Inf and NaN components — the
// operands on which 0·x is not a no-op.
func randSpecialZ(r *rand.Rand, n int, class string) []complex128 {
	part := func() float64 {
		switch u := r.Intn(20); {
		case u < 3:
			return 0
		case u < 5 && class != "plain":
			return math.Copysign(0, -1)
		case u == 5 && class == "nonfinite":
			return math.Inf(1 - 2*r.Intn(2))
		case u == 6 && class == "nonfinite":
			return math.NaN()
		}
		return r.NormFloat64()
	}
	v := make([]complex128, n)
	for i := range v {
		if r.Intn(6) == 0 {
			continue // both parts +0: the skip tests compare the whole value
		}
		v[i] = complex(part(), part())
	}
	return v
}

var operandClasses = []string{"plain", "signed", "nonfinite"}

func specialMat(r *rand.Rand, rows, cols int, class string) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: randSpecialZ(r, rows*cols, class)}
}

// sameBits reports bit equality of two complex values. NaNs compare
// equal to each other whatever their payload: which of two distinct NaN
// operands an x86 add or multiply propagates depends on operand order
// inside the instruction, which the register allocator picks per call
// site — two compilations of the same Go loop already disagree — and
// nothing downstream reads a payload. Signed zeros and infinities must
// match exactly.
func sameBits(a, b complex128) bool {
	same := func(x, y float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) {
			return math.IsNaN(x) && math.IsNaN(y)
		}
		return math.Float64bits(x) == math.Float64bits(y)
	}
	return same(real(a), real(b)) && same(imag(a), imag(b))
}

func requireBits(t *testing.T, what string, got, want []complex128) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s: idx %d: got %v want %v", what, i, got[i], want[i])
		}
	}
}

// randDim draws a matrix extent weighted toward the dispatch edges:
// empty, 1, just below and at vecMinLen, odd widths, and past one
// gemmBlock tile.
func randDim(r *rand.Rand) int {
	edges := []int{0, 1, 2, vecMinLen - 1, vecMinLen, vecMinLen + 1, 13, 14, gemmBlock - 1, gemmBlock, gemmBlock + 1, gemmBlock + 7}
	if r.Intn(3) == 0 {
		return r.Intn(24)
	}
	return edges[r.Intn(len(edges))]
}

// TestKernelsBitwiseAcrossEngines is the one-source bitwise oracle of
// the kernel set: every production kernel, run with the AVX microkernels
// and with the scalar fallback in the same process, must reproduce the
// scalar reference loops of reference_test.go bit for bit — on random
// shapes spanning every dispatch edge and on operands carrying signed
// zeros, infinities and NaNs — and report the same flops on both
// engines.
func TestKernelsBitwiseAcrossEngines(t *testing.T) {
	ops := []Op{NoTrans, ConjTrans}
	scalars := []complex128{0, 1, -1, complex(0.5, -2), complex(math.Copysign(0, -1), 0)}
	// Independent operand sets drawn per random shape of the product tests.
	operandSets := [3]int{1, 2, 7}

	t.Run("gemm", func(t *testing.T) {
		r := rand.New(rand.NewSource(61))
		for it := 0; it < 400; it++ {
			class := operandClasses[it%len(operandClasses)]
			n, k, p := randDim(r), randDim(r), randDim(r)
			opA, opB := ops[r.Intn(2)], ops[r.Intn(2)]
			alpha := scalars[r.Intn(len(scalars))]
			if r.Intn(2) == 0 {
				alpha = complex(r.NormFloat64(), r.NormFloat64())
			}
			beta := scalars[r.Intn(len(scalars))]
			for j := operandSets[it%3]; j > 0; j-- {
				a := specialMat(r, n, k, class)
				if opA == ConjTrans {
					a.Rows, a.Cols = k, n
				}
				b := specialMat(r, k, p, class)
				if opB == ConjTrans {
					b.Rows, b.Cols = p, k
				}
				seed := specialMat(r, n, p, class)
				want := seed.Clone()
				refGemmInto(want, alpha, a, opA, b, opB, beta)
				eachEngine(t, func(engine string) {
					got := seed.Clone()
					GemmInto(got, alpha, a, opA, b, opB, beta)
					requireBits(t, engine+" gemm", got.Data, want.Data)
				})
			}
		}
	})

	t.Run("mul3", func(t *testing.T) {
		r := rand.New(rand.NewSource(62))
		ws := GetWorkspace()
		defer ws.Release()
		for it := 0; it < 150; it++ {
			class := operandClasses[it%len(operandClasses)]
			n, k, m, p := randDim(r), randDim(r), randDim(r), randDim(r)
			opC := ops[r.Intn(2)]
			for j := operandSets[it%3]; j > 0; j-- {
				a := specialMat(r, n, k, class)
				b := specialMat(r, k, m, class)
				c := specialMat(r, m, p, class)
				if opC == ConjTrans {
					c.Rows, c.Cols = p, m
				}
				want := New(n, p)
				refMul3Into(want, a, NoTrans, b, NoTrans, c, opC)
				eachEngine(t, func(engine string) {
					got := specialMat(r, n, p, class) // stale content Mul3Into must overwrite
					Mul3Into(got, a, NoTrans, b, NoTrans, c, opC, ws)
					requireBits(t, engine+" mul3", got.Data, want.Data)
				})
			}
		}
	})

	// boosted draws a square operand, diagonally boosted so it factors
	// cleanly except on every fourth draw, which is left raw (often
	// singular, or poisoned by a non-finite entry).
	boosted := func(r *rand.Rand, it, n int, class string) *Matrix {
		a := specialMat(r, n, n, class)
		if it%4 != 0 {
			for i := 0; i < n; i++ {
				a.Data[i*n+i] += complex(float64(n), 0.5)
			}
		}
		return a
	}

	t.Run("factor", func(t *testing.T) {
		r := rand.New(rand.NewSource(63))
		for it := 0; it < 200; it++ {
			class := operandClasses[it%len(operandClasses)]
			n := randDim(r)
			a := boosted(r, it, n, class)
			wantLU := a.Clone()
			wantPiv := make([]int, n)
			wantErr := refFactorInPlace(wantLU, wantPiv)
			eachEngine(t, func(engine string) {
				lu := a.Clone()
				piv := make([]int, n)
				if err := factorInPlace(lu, piv); !errors.Is(err, wantErr) {
					t.Fatalf("%s factor n=%d: err %v, want %v", engine, n, err, wantErr)
				}
				for i := range wantPiv {
					if piv[i] != wantPiv[i] {
						t.Fatalf("%s factor n=%d: pivot %d is %d, want %d", engine, n, i, piv[i], wantPiv[i])
					}
				}
				requireBits(t, engine+" factor", lu.Data, wantLU.Data)
			})
		}
	})

	t.Run("solve-inverse", func(t *testing.T) {
		r := rand.New(rand.NewSource(65))
		ws := GetWorkspace()
		defer ws.Release()
		for it := 0; it < 200; it++ {
			class := operandClasses[it%len(operandClasses)]
			n, nrhs := randDim(r), randDim(r)
			a := boosted(r, it, n, class)
			b := specialMat(r, n, nrhs, class)
			lu := a.Clone()
			piv := make([]int, n)
			wantErr := refFactorInPlace(lu, piv)
			wantX := b.Clone()
			wantInv := New(n, n)
			if wantErr == nil {
				refLuSolveInPlace(lu, piv, wantX, 0)
				if err := refInverseInto(wantInv, a); err != nil {
					t.Fatal(err)
				}
			}
			eachEngine(t, func(engine string) {
				inv := specialMat(r, n, n, class) // stale content InverseInto must overwrite
				if err := InverseInto(inv, a, ws); !errors.Is(err, wantErr) {
					t.Fatalf("%s inverse n=%d: err %v, want %v", engine, n, err, wantErr)
				}
				if wantErr != nil {
					return
				}
				x := b.Clone()
				luSolveInPlace(lu, piv, x, 0)
				requireBits(t, engine+" solve", x.Data, wantX.Data)
				requireBits(t, engine+" inverse", inv.Data, wantInv.Data)
			})
		}
	})

	t.Run("elementwise", func(t *testing.T) {
		r := rand.New(rand.NewSource(64))
		for it := 0; it < 200; it++ {
			class := operandClasses[it%len(operandClasses)]
			rows, cols := randDim(r), randDim(r)
			a := specialMat(r, rows, cols, class)
			b := specialMat(r, rows, cols, class)
			sq := specialMat(r, rows, rows, class)
			s := scalars[r.Intn(len(scalars))]
			if r.Intn(2) == 0 {
				s = complex(r.NormFloat64(), r.NormFloat64())
			}
			wantAdd := a.Clone()
			refAddScaled(wantAdd, b, s)
			wantNeg := New(rows, rows)
			refShiftedNegInto(wantNeg, sq, s)
			eachEngine(t, func(engine string) {
				got := a.Clone()
				got.AddScaled(b, s)
				requireBits(t, engine+" AddScaled", got.Data, wantAdd.Data)
				got = sq.Clone()
				ShiftedNegInto(got, got, s)
				requireBits(t, engine+" ShiftedNegInto", got.Data, wantNeg.Data)
			})
		}
	})
}

// TestSolveColumnSubsetBitwise is the property the RGF kernel's
// column-subset solve rests on: a factor solved against some columns S of
// the identity — any order, repeats allowed — returns exactly those columns
// of InverseInto's whole inverse, bit for bit, on both engines. It holds
// because the substitution sweeps test only the multipliers of L and U for
// their zero skips, never the right-hand side, so each column goes through
// the same operations whatever its neighbours hold, and because the fused
// kernel's lanes and odd tail compute one column's tree each. Operands carry
// signed zeros, ±Inf and NaN; NaN payloads are exempt, as in sameBits.
func TestSolveColumnSubsetBitwise(t *testing.T) {
	r := rand.New(rand.NewSource(70))
	ws := GetWorkspace()
	defer ws.Release()
	for it := 0; it < 300; it++ {
		class := operandClasses[it%len(operandClasses)]
		n := 1 + r.Intn(24)
		if it%10 == 0 {
			n = gemmBlock + r.Intn(8)
		}
		a := specialMat(r, n, n, class)
		for i := 0; i < n; i++ {
			a.Data[i*n+i] += complex(float64(n), 0.5)
		}
		cols := make([]int, r.Intn(n+3))
		for j := range cols {
			cols[j] = r.Intn(n)
		}
		eachEngine(t, func(engine string) {
			inv := New(n, n)
			err := InverseInto(inv, a, ws)
			lu := a.Clone()
			fac, ferr := FactorInPlace(lu, make([]int, n))
			if !errors.Is(ferr, err) {
				t.Fatalf("%s n=%d: FactorInPlace err %v, InverseInto err %v", engine, n, ferr, err)
			}
			if err != nil {
				return
			}
			got := New(n, len(cols))
			for j, c := range cols {
				got.Data[c*len(cols)+j] = 1
			}
			fac.SolveInPlace(got)
			want := New(n, len(cols))
			for i := 0; i < n; i++ {
				for j, c := range cols {
					want.Data[i*len(cols)+j] = inv.Data[i*n+c]
				}
			}
			requireBits(t, fmt.Sprintf("%s n=%d columns %v", engine, n, cols), got.Data, want.Data)
		})
	}
}
