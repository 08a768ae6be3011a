package linalg

import (
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/perf"
)

// genMatrix draws a bounded random square matrix from the quick generator's
// source so property tests are reproducible under -quickchecks.
func genMatrix(rng *rand.Rand, n int) *Matrix {
	a := New(n, n)
	for i := range a.Data {
		a.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return a
}

func TestQuickHermitizationIsHermitian(t *testing.T) {
	f := func(seed int64, szRaw uint8) bool {
		n := int(szRaw%10) + 1
		rng := rand.New(rand.NewSource(seed))
		a := genMatrix(rng, n)
		h := a.Add(a.ConjTranspose()).Scale(0.5)
		return h.IsHermitian(1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickLURoundTrip(t *testing.T) {
	f := func(seed int64, szRaw uint8) bool {
		n := int(szRaw%12) + 1
		rng := rand.New(rand.NewSource(seed))
		a := genMatrix(rng, n)
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+complex(float64(2*n), 0))
		}
		inv, err := inverse(a)
		if err != nil {
			return false
		}
		return a.Mul(inv).Equal(Identity(n), 1e-8)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickGemmDistributesOverAdd(t *testing.T) {
	f := func(seed int64, szRaw uint8) bool {
		n := int(szRaw%8) + 1
		rng := rand.New(rand.NewSource(seed))
		a := genMatrix(rng, n)
		b := genMatrix(rng, n)
		c := genMatrix(rng, n)
		left := a.Mul(b.Add(c))
		right := a.Mul(b).Add(a.Mul(c))
		return left.Equal(right, 1e-9*(1+left.MaxAbs()))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickAdjointOfProduct(t *testing.T) {
	f := func(seed int64, szRaw uint8) bool {
		n := int(szRaw%8) + 1
		rng := rand.New(rand.NewSource(seed))
		a := genMatrix(rng, n)
		b := genMatrix(rng, n)
		left := a.Mul(b).ConjTranspose()
		right := b.ConjTranspose().Mul(a.ConjTranspose())
		return left.Equal(right, 1e-10*(1+left.MaxAbs()))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickEigHResidualAndOrthonormality(t *testing.T) {
	f := func(seed int64, szRaw uint8) bool {
		n := int(szRaw%9) + 1
		rng := rand.New(rand.NewSource(seed))
		a := genMatrix(rng, n)
		h := a.Add(a.ConjTranspose()).Scale(0.5)
		eig, err := EigH(h)
		if err != nil {
			return false
		}
		scale := 1 + h.MaxAbs()
		for j := 0; j < n; j++ {
			v := make([]complex128, n)
			for i := 0; i < n; i++ {
				v[i] = eig.Vectors.At(i, j)
			}
			hv := h.MulVec(v)
			for i := 0; i < n; i++ {
				if cmplx.Abs(hv[i]-complex(eig.Values[j], 0)*v[i]) > 1e-8*scale {
					return false
				}
			}
		}
		vtv := eig.Vectors.ConjTranspose().Mul(eig.Vectors)
		return vtv.Equal(Identity(n), 1e-8)
	}
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickTraceSimilarityInvariant(t *testing.T) {
	// Tr(AB) == Tr(BA) for square matrices.
	f := func(seed int64, szRaw uint8) bool {
		n := int(szRaw%8) + 1
		rng := rand.New(rand.NewSource(seed))
		a := genMatrix(rng, n)
		b := genMatrix(rng, n)
		d := a.Mul(b).Trace() - b.Mul(a).Trace()
		return cmplx.Abs(d) < 1e-9*(1+cmplx.Abs(a.Mul(b).Trace()))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickFlopCounterMonotone(t *testing.T) {
	f := func(szRaw uint8) bool {
		n := int(szRaw%16) + 1
		before := perf.Flops()
		a := Identity(n)
		b := Identity(n)
		_ = a.Mul(b)
		after := perf.Flops()
		return after-before >= perf.GemmFlops(n, n, n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
