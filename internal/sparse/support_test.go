package sparse

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/linalg"
	"repro/internal/perf"
)

// TestSupportGatherScatter: the supports are the rows and columns holding a
// nonzero (a NaN counts: it is not zero), Gather reads the block they
// select, and ScatterAdd puts it back where it came from — including the
// empty block of an all-zero coupling.
func TestSupportGatherScatter(t *testing.T) {
	m := linalg.New(5, 4)
	m.Set(1, 0, 2)
	m.Set(1, 3, 1i)
	m.Set(4, 3, complex(math.NaN(), 0))
	rows, cols := RowSupport(m), ColumnSupport(m)
	if !reflect.DeepEqual(rows, []int{1, 4}) || !reflect.DeepEqual(cols, []int{0, 3}) {
		t.Fatalf("supports %v × %v, want [1 4] × [0 3]", rows, cols)
	}
	m.Set(4, 3, -3)
	block := linalg.New(2, 2)
	Gather(block, m, rows, cols)
	if want := linalg.FromRows([][]complex128{{2, 1i}, {0, -3}}); !block.Equal(want, 0) {
		t.Fatalf("gathered block\n%v\nwant\n%v", block, want)
	}
	back := linalg.New(5, 4)
	ScatterAdd(back, block, rows, cols)
	ScatterAdd(back, block, rows, cols)
	if !back.Equal(m.Scale(2), 0) {
		t.Fatalf("two scatter-adds of the gathered block\n%v\nwant twice\n%v", back, m)
	}

	zero := linalg.New(3, 3)
	rows, cols = RowSupport(zero), ColumnSupport(zero)
	if len(rows)+len(cols) != 0 {
		t.Fatalf("supports of a zero block: %v, %v; want empty", rows, cols)
	}
	empty := linalg.New(0, 0)
	Gather(empty, zero, rows, cols)
	ScatterAdd(zero, empty, rows, cols)
	if zero.MaxAbs() != 0 {
		t.Fatal("scatter-add of an empty block wrote something")
	}
	if got := Range(2, 5); !reflect.DeepEqual(got, []int{2, 3, 4}) {
		t.Fatalf("Range(2, 5) = %v", got)
	}
}

// TestShiftedSystemBits: the matrices a ShiftedSystem hands out are
// z·I − H with the couplings every energy used to negate for itself —
// 0 + (−1)·u, bit for bit, structural zeros included — shared between
// energies, and negating them counts no flop.
func TestShiftedSystemBits(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	h := buildRandomBTD(rng, []int{3, 2, 4})
	h.Upper[0].Set(1, 0, 0)
	h.Upper[1].Set(0, 2, complex(0, -0.5))
	h.Lower[1].Set(2, 0, complex(math.Copysign(0, -1), 0.25))
	before := perf.Flops()
	sys := NewShiftedSystem(h)
	if d := perf.Flops() - before; d != 0 {
		t.Fatalf("negating the couplings counted %d flops; construction runs outside every task's meter", d)
	}
	ws := linalg.GetWorkspace()
	defer ws.Release()
	z := complex(0.7, 1e-3)
	a, b := sys.At(z, ws), sys.At(z+1, ws)
	want := linalg.Identity(h.N()).Scale(z).Sub(h.Dense())
	if !a.Dense().Equal(want, 1e-13) {
		t.Fatal("ShiftedSystem.At != zI − H")
	}
	for i := range h.Upper {
		if a.Upper[i] != b.Upper[i] || a.Lower[i] != b.Lower[i] {
			t.Fatalf("coupling %d is not shared between energies", i)
		}
		for name, pair := range map[string][2]*linalg.Matrix{"upper": {a.Upper[i], h.Upper[i]}, "lower": {a.Lower[i], h.Lower[i]}} {
			axpy := linalg.New(pair[1].Rows, pair[1].Cols)
			axpy.AddScaled(pair[1], -1)
			for j, v := range pair[0].Data {
				w := axpy.Data[j]
				if math.Float64bits(real(v)) != math.Float64bits(real(w)) || math.Float64bits(imag(v)) != math.Float64bits(imag(w)) {
					t.Fatalf("%s[%d] element %d = %v, the per-energy negation gave %v", name, i, j, v, w)
				}
			}
		}
	}
}
