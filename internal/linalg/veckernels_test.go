package linalg

import (
	"math/rand"
	"testing"
)

// randVecZ returns n random complex values with a sprinkling of exact
// zeros, so the kernels' zero-skip branches are exercised.
func randVecZ(r *rand.Rand, n int) []complex128 {
	v := make([]complex128, n)
	for i := range v {
		if r.Intn(5) == 0 {
			continue
		}
		v[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	return v
}

// TestVecMicrokernelsBitwise pins every elementwise dispatch helper to
// the scalar loops of reference_test.go on both engines, element for
// element, across lengths spanning the vecMinLen threshold and odd tails.
func TestVecMicrokernelsBitwise(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for _, n := range []int{0, 1, 2, 3, 5, 6, 7, 8, 13, 14, 64, 65} {
		m := complex(r.NormFloat64(), r.NormFloat64())
		x0 := &Matrix{Rows: 1, Cols: n, Data: randVecZ(r, n)}
		base := &Matrix{Rows: 1, Cols: n, Data: randVecZ(r, n)}

		wantScale := base.Clone()
		for j := range wantScale.Data {
			wantScale.Data[j] *= m
		}
		wantNeg := New(1, n)
		for j, v := range x0.Data {
			wantNeg.Data[j] = -v
		}

		eachEngine(t, func(engine string) {
			got := base.Clone()
			scaleTo(got.Data, m)
			requireBits(t, engine+" scale", got.Data, wantScale.Data)
			got = base.Clone()
			negTo(got.Data, x0.Data)
			requireBits(t, engine+" neg", got.Data, wantNeg.Data)
		})
	}
}
