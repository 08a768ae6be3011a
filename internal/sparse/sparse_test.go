package sparse

import (
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/linalg"
)

func randDense(rng *rand.Rand, r, c int) *linalg.Matrix {
	m := linalg.New(r, c)
	for i := range m.Data {
		m.Data[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	return m
}

// buildRandomBTD assembles a random Hermitian block-tridiagonal matrix with
// the given layer sizes.
func buildRandomBTD(rng *rand.Rand, sizes []int) *BlockTridiag {
	l := len(sizes)
	diag := make([]*linalg.Matrix, l)
	upper := make([]*linalg.Matrix, l-1)
	lower := make([]*linalg.Matrix, l-1)
	for i, n := range sizes {
		a := randDense(rng, n, n)
		diag[i] = a.Add(a.ConjTranspose()).Scale(0.5)
	}
	for i := 0; i < l-1; i++ {
		upper[i] = randDense(rng, sizes[i], sizes[i+1])
		lower[i] = upper[i].ConjTranspose()
	}
	m, err := NewBlockTridiag(diag, upper, lower)
	if err != nil {
		panic(err)
	}
	return m
}

func TestBlockTridiagShapesValidated(t *testing.T) {
	d := []*linalg.Matrix{linalg.New(2, 2), linalg.New(3, 3)}
	good := []*linalg.Matrix{linalg.New(2, 3)}
	bad := []*linalg.Matrix{linalg.New(3, 3)}
	if _, err := NewBlockTridiag(d, good, []*linalg.Matrix{linalg.New(3, 2)}); err != nil {
		t.Fatalf("valid shapes rejected: %v", err)
	}
	if _, err := NewBlockTridiag(d, bad, []*linalg.Matrix{linalg.New(3, 2)}); err == nil {
		t.Fatal("invalid upper block accepted")
	}
	if _, err := NewBlockTridiag(d, good, good); err == nil {
		t.Fatal("invalid lower block accepted")
	}
	if _, err := NewBlockTridiag(nil, nil, nil); err == nil {
		t.Fatal("empty matrix accepted")
	}
}

func TestBlockTridiagDenseAndMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	m := buildRandomBTD(rng, []int{2, 3, 2, 4})
	if m.N() != 11 || m.Layers() != 4 {
		t.Fatalf("N=%d layers=%d", m.N(), m.Layers())
	}
	d := m.Dense()
	x := make([]complex128, m.N())
	for i := range x {
		x[i] = complex(rng.Float64(), rng.Float64())
	}
	yb := m.MulVec(x)
	yd := d.MulVec(x)
	for i := range yb {
		if cmplx.Abs(yb[i]-yd[i]) > 1e-11 {
			t.Fatalf("BTD MulVec component %d mismatch", i)
		}
	}
}

func TestBlockTridiagHermitian(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	m := buildRandomBTD(rng, []int{3, 3, 3})
	if !m.IsHermitian(1e-13) {
		t.Fatal("Hermitian BTD not detected")
	}
	m.Upper[0].Set(0, 0, m.Upper[0].At(0, 0)+1)
	if m.IsHermitian(1e-6) {
		t.Fatal("perturbed BTD still Hermitian")
	}
}

func TestBlockTridiagCloneIsDeep(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	m := buildRandomBTD(rng, []int{2, 2})
	c := m.Clone()
	m.Diag[0].Set(0, 0, 999)
	if c.Diag[0].At(0, 0) == 999 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestBlockTridiagOffsets(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	m := buildRandomBTD(rng, []int{1, 5, 2})
	off := m.Offsets()
	want := []int{0, 1, 6, 8}
	for i := range want {
		if off[i] != want[i] {
			t.Fatalf("Offsets = %v, want %v", off, want)
		}
	}
}

func TestQuickBTDHermitianPreservedByShift(t *testing.T) {
	// zI − H with real z must remain Hermitian; with complex z the
	// anti-Hermitian part is exactly Im(z)·I.
	f := func(seed int64, layersRaw uint8) bool {
		l := int(layersRaw%4) + 2
		rng := rand.New(rand.NewSource(seed))
		sizes := make([]int, l)
		for i := range sizes {
			sizes[i] = rng.Intn(3) + 1
		}
		h := buildRandomBTD(rng, sizes)
		ws := linalg.GetWorkspace()
		defer ws.Release()
		return NewShiftedSystem(h).At(complex(rng.NormFloat64(), 0), ws).IsHermitian(1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
