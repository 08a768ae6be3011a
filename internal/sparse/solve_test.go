package sparse

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
	"repro/internal/perf"
)

// sameBits reports whether two block lists hold the same bit patterns.
func sameBits(a, b []*linalg.Matrix) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Rows != b[i].Rows || a[i].Cols != b[i].Cols {
			return false
		}
		for k, v := range a[i].Data {
			w := b[i].Data[k]
			if math.Float64bits(real(v)) != math.Float64bits(real(w)) ||
				math.Float64bits(imag(v)) != math.Float64bits(imag(w)) {
				return false
			}
		}
	}
	return true
}

// TestSolveBlocksWSMatchesHeapFactor holds the workspace block-Thomas
// solve to its reference, the heap-owned FactorBTD + SolveBlocks: the
// same solution bits and the same flop count, whatever the layer shapes
// and the right-hand-side width.
func TestSolveBlocksWSMatchesHeapFactor(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	shapes := [][]int{{3}, {4, 4}, {2, 5, 3, 4}, {9, 9, 9, 9, 9, 9}}
	for _, sizes := range shapes {
		m := buildRandomBTD(rng, sizes)
		l := len(sizes)
		type rhsCase struct {
			name string
			rhs  []*linalg.Matrix
		}
		var rhss []rhsCase
		for _, k := range []int{0, 1, 7} {
			rhs := make([]*linalg.Matrix, l)
			for i, n := range sizes {
				rhs[i] = randDense(rng, n, k)
			}
			rhss = append(rhss, rhsCase{fmt.Sprintf("width %d", k), rhs})
		}
		// The wave-function right-hand side: injection columns in the
		// first and last layers only, of different counts, zero between.
		inj := make([]*linalg.Matrix, l)
		for i, n := range sizes {
			inj[i] = linalg.New(n, 3)
		}
		for r := 0; r < sizes[0]; r++ {
			inj[0].Set(r, 0, complex(rng.NormFloat64(), rng.NormFloat64()))
		}
		for r := 0; r < sizes[l-1]; r++ {
			inj[l-1].Set(r, 1, complex(rng.NormFloat64(), rng.NormFloat64()))
			inj[l-1].Set(r, 2, complex(rng.NormFloat64(), rng.NormFloat64()))
		}
		rhss = append(rhss, rhsCase{"injection", inj})

		for _, c := range rhss {
			f0 := perf.Flops()
			f, err := m.FactorBTD()
			if err != nil {
				t.Fatalf("%v %s: FactorBTD: %v", sizes, c.name, err)
			}
			want, err := f.SolveBlocks(c.rhs)
			if err != nil {
				t.Fatalf("%v %s: SolveBlocks: %v", sizes, c.name, err)
			}
			wantFlops := perf.Flops() - f0

			ws := linalg.GetWorkspace()
			f0 = perf.Flops()
			got, err := m.SolveBlocksWS(c.rhs, ws)
			gotFlops := perf.Flops() - f0
			if err != nil {
				t.Fatalf("%v %s: SolveBlocksWS: %v", sizes, c.name, err)
			}
			if !sameBits(got, want) {
				t.Errorf("%v %s: workspace solution differs from the heap factor's", sizes, c.name)
			}
			if gotFlops != wantFlops {
				t.Errorf("%v %s: workspace solve counted %d flops, heap factor %d", sizes, c.name, gotFlops, wantFlops)
			}
			ws.Release()
		}
	}
}

// TestSolveBlocksWSErrorsMatchHeapFactor: every failure of the workspace
// solve carries the reference path's error, text and sentinel.
func TestSolveBlocksWSErrorsMatchHeapFactor(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	sizes := []int{3, 4, 2}
	goodRHS := func() []*linalg.Matrix {
		rhs := make([]*linalg.Matrix, len(sizes))
		for i, n := range sizes {
			rhs[i] = randDense(rng, n, 2)
		}
		return rhs
	}
	singular0 := buildRandomBTD(rng, sizes)
	singular0.Diag[0].Zero()
	// Layer 1 decoupled from layer 0 and zero itself: d̃₁ is exactly zero.
	singular1 := buildRandomBTD(rng, sizes)
	singular1.Upper[0].Zero()
	singular1.Lower[0].Zero()
	singular1.Diag[1].Zero()
	regular := buildRandomBTD(rng, sizes)
	wrongShape := goodRHS()
	wrongShape[1] = linalg.New(sizes[1]+1, 2)

	cases := []struct {
		name     string
		m        *BlockTridiag
		rhs      []*linalg.Matrix
		singular bool
	}{
		{"singular pivot at layer 0", singular0, goodRHS(), true},
		{"singular pivot at layer 1", singular1, goodRHS(), true},
		{"wrong RHS block count", regular, goodRHS()[:2], false},
		{"wrong RHS block shape", regular, wrongShape, false},
	}
	for _, c := range cases {
		_, want := c.m.SolveBlocks(c.rhs)
		ws := linalg.GetWorkspace()
		x, got := c.m.SolveBlocksWS(c.rhs, ws)
		ws.Release()
		if want == nil || got == nil {
			t.Fatalf("%s: heap error %v, workspace error %v; want both set", c.name, want, got)
		}
		if x != nil {
			t.Errorf("%s: workspace solve returned blocks alongside an error", c.name)
		}
		if got.Error() != want.Error() {
			t.Errorf("%s: workspace error %q, heap error %q", c.name, got, want)
		}
		if errors.Is(got, linalg.ErrSingular) != c.singular {
			t.Errorf("%s: errors.Is(err, ErrSingular) = %v, want %v", c.name, !c.singular, c.singular)
		}
	}
}

// TestSolveBlocksWSReusesWorkspace: once a workspace has served one solve,
// the next solve of the same shape takes every block and every pivot from
// it. What remains are the three layer-count slices of the factor and the
// solution, whose size does not depend on the block sizes.
func TestSolveBlocksWSReusesWorkspace(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, sizes := range [][]int{{4, 4, 4, 4}, {40, 40, 40, 40}} {
		m := buildRandomBTD(rng, sizes)
		rhs := make([]*linalg.Matrix, len(sizes))
		for i, n := range sizes {
			rhs[i] = randDense(rng, n, 5)
		}
		// AllocsPerRun pins GOMAXPROCS to 1 and warms up with one call, so
		// the measured run draws the workspace the warm-up released —
		// unless the pool dropped it, which sync.Pool does at random under
		// the race detector. The best of several trials is a warm one.
		allocs := math.Inf(1)
		for trial := 0; trial < 20; trial++ {
			allocs = math.Min(allocs, testing.AllocsPerRun(1, func() {
				ws := linalg.GetWorkspace()
				if _, err := m.SolveBlocksWS(rhs, ws); err != nil {
					t.Fatal(err)
				}
				ws.Release()
			}))
		}
		if allocs > 3 {
			t.Errorf("layers %v: %.0f allocations per solve on a warm workspace, want ≤ 3", sizes, allocs)
		}
	}
}
