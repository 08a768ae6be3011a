package linalg

import (
	"math/rand"
	"testing"
)

// batchWidths are the widths every batched kernel is exercised at: the
// degenerate width-1 batch, the tuned default, an odd width, and one
// larger than any scheduler bucket in the repo's configs.
var batchWidths = []int{1, 2, 7, 64}

// randMats returns w independent rows×cols matrices with sprinkled
// exact zeros (see randVecZ).
func randMats(r *rand.Rand, w, rows, cols int) []*Matrix {
	ms := make([]*Matrix, w)
	for j := range ms {
		ms[j] = &Matrix{Rows: rows, Cols: cols, Data: randVecZ(r, rows*cols)}
	}
	return ms
}

func cloneMats(ms []*Matrix) []*Matrix {
	out := make([]*Matrix, len(ms))
	for j, m := range ms {
		if m == nil {
			continue
		}
		out[j] = &Matrix{Rows: m.Rows, Cols: m.Cols, Data: append([]complex128(nil), m.Data...)}
	}
	return out
}

func requireSameMats(t *testing.T, name string, got, want []*Matrix) {
	t.Helper()
	for j := range want {
		for i := range want[j].Data {
			if got[j].Data[i] != want[j].Data[i] {
				t.Fatalf("%s: element %d idx %d: got %v want %v",
					name, j, i, got[j].Data[i], want[j].Data[i])
			}
		}
	}
}

// TestBatchShiftedNegAndAddScaledMatchLooped pins the batched
// resolvent-assembly kernels to their looped forms: dst[j] = z_j·I − m
// then dst[j] += s·b against per-element ShiftedNegInto/AddScaled.
func TestBatchShiftedNegAndAddScaledMatchLooped(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	for _, w := range batchWidths {
		for _, n := range []int{1, 7, 14} {
			m := &Matrix{Rows: n, Cols: n, Data: randVecZ(r, n*n)}
			b := &Matrix{Rows: n, Cols: n, Data: randVecZ(r, n*n)}
			zs := make([]complex128, w)
			for j := range zs {
				zs[j] = complex(r.NormFloat64(), r.NormFloat64())
			}
			dst := randMats(r, w, n, n)
			ref := cloneMats(dst)
			s := complex(-0.75, 0.25)
			BatchShiftedNegInto(dst, m, zs)
			BatchAddScaled(dst, b, s)
			for j := range ref {
				ShiftedNegInto(ref[j], m, zs[j])
				ref[j].AddScaled(b, s)
			}
			requireSameMats(t, "shiftedneg+addscaled", dst, ref)
		}
	}
}

// TestBatchReductionsMatchLooped pins BatchTraceMulConj and
// BatchDiagMulConjInto to their looped reductions.
func TestBatchReductionsMatchLooped(t *testing.T) {
	r := rand.New(rand.NewSource(54))
	ws := GetWorkspace()
	for _, w := range batchWidths {
		for _, n := range []int{1, 7, 14} {
			a := randMats(r, w, n, n)
			b := randMats(r, w, n, n)
			tr := make([]complex128, w)
			BatchTraceMulConj(tr, a, b)
			for j := range a {
				if want := TraceMulConj(a[j], b[j]); tr[j] != want {
					t.Fatalf("trace: w=%d n=%d element %d: got %v want %v", w, n, j, tr[j], want)
				}
			}
			dg := make([][]complex128, w)
			for j := range dg {
				dg[j] = make([]complex128, n)
			}
			BatchDiagMulConjInto(dg, a, b, ws)
			for j := range a {
				want := make([]complex128, n)
				DiagMulConjInto(want, a[j], b[j], ws)
				for i := range want {
					if dg[j][i] != want[i] {
						t.Fatalf("diag: w=%d n=%d element %d idx %d: got %v want %v", w, n, j, i, dg[j][i], want[i])
					}
				}
			}
		}
	}
}

// TestBatchFactorSolveInverseMatchLooped pins the batched
// factor/solve/inverse pipeline — including nil (failed-upstream)
// elements — to the looped LU path.
func TestBatchFactorSolveInverseMatchLooped(t *testing.T) {
	r := rand.New(rand.NewSource(55))
	ws := GetWorkspace()
	for _, w := range batchWidths {
		for _, n := range []int{1, 7, 14} {
			as := randMats(r, w, n, n)
			for _, m := range as {
				for i := 0; i < n; i++ {
					m.Data[i*n+i] += complex(float64(n), 0.5)
				}
			}
			if w > 2 {
				as[1] = nil // a failed-upstream slot the batch must skip
			}
			refAs := cloneMats(as)
			bs := randMats(r, w, n, n)

			lus, errs := BatchFactorInPlace(as, ws)
			for j, err := range errs {
				if err != nil {
					t.Fatalf("w=%d n=%d element %d: unexpected singular: %v", w, n, j, err)
				}
			}
			xs := randMats(r, w, n, n)
			BatchSolveInto(lus, xs, bs)
			invDst := randMats(r, w, n, n)
			invErrs := BatchInverseInto(invDst, refAs, ws)

			for j := range as {
				if as[j] == nil {
					continue
				}
				refF := &Matrix{Rows: n, Cols: n, Data: append([]complex128(nil), refAs[j].Data...)}
				piv := make([]int, n)
				if _, err := factorInPlace(refF, piv); err != nil {
					t.Fatal(err)
				}
				for i := range refF.Data {
					if as[j].Data[i] != refF.Data[i] {
						t.Fatalf("factor: w=%d n=%d element %d idx %d differs", w, n, j, i)
					}
				}
				refX := &Matrix{Rows: n, Cols: n, Data: append([]complex128(nil), bs[j].Data...)}
				luSolveInPlace(refF, piv, refX)
				for i := range refX.Data {
					if xs[j].Data[i] != refX.Data[i] {
						t.Fatalf("solve: w=%d n=%d element %d idx %d differs", w, n, j, i)
					}
				}
				if invErrs[j] != nil {
					t.Fatalf("inverse: w=%d n=%d element %d: %v", w, n, j, invErrs[j])
				}
				refInv := New(n, n)
				if err := InverseInto(refInv, refAs[j], ws); err != nil {
					t.Fatal(err)
				}
				for i := range refInv.Data {
					if invDst[j].Data[i] != refInv.Data[i] {
						t.Fatalf("inverse: w=%d n=%d element %d idx %d differs", w, n, j, i)
					}
				}
			}
			BatchReleaseLU(lus, ws)
		}
	}
}
