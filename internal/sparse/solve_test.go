package sparse

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

// TestBlockThomasErrors pins every failure of the block-Thomas entries: the
// literal message, whether it wraps linalg.ErrSingular, and that nothing is
// returned alongside it: a singular pivot, and a right-hand side of the
// wrong count or shape.
func TestBlockThomasErrors(t *testing.T) {
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
		want     string
		singular bool
	}{
		{"singular pivot at layer 0", singular0, goodRHS(), "sparse: block Thomas pivot 0: linalg: matrix is singular", true},
		{"singular pivot at layer 1", singular1, goodRHS(), "sparse: block Thomas pivot 1: linalg: matrix is singular", true},
		{"wrong RHS block count", regular, goodRHS()[:2], "sparse: SolveBlocks got 2 RHS blocks for 3 layers", false},
		{"wrong RHS block shape", regular, wrongShape, "sparse: RHS block 1 is 5x2, want 4x2", false},
	}
	for _, c := range cases {
		ws := linalg.GetWorkspace()
		x, err := c.m.SolveBlocks(c.rhs, ws)
		last, lastErr := c.m.SolveLast(c.rhs, ws)
		ws.Release()
		if err == nil || err.Error() != c.want {
			t.Fatalf("%s: SolveBlocks error %v, want %q", c.name, err, c.want)
		}
		if lastErr == nil || lastErr.Error() != c.want {
			t.Fatalf("%s: SolveLast error %v, want %q", c.name, lastErr, c.want)
		}
		if x != nil || last != nil {
			t.Errorf("%s: a solve returned blocks alongside an error", c.name)
		}
		if errors.Is(err, linalg.ErrSingular) != c.singular {
			t.Errorf("%s: errors.Is(err, ErrSingular) = %v, want %v", c.name, !c.singular, c.singular)
		}
	}
}

// TestSolveBlocksReusesWorkspace: once a workspace has served one solve,
// the next solve of the same shape takes every block and every pivot from
// it. What remains are the three layer-count slices of the factor and the
// solution, whose size does not depend on the block sizes.
func TestSolveBlocksReusesWorkspace(t *testing.T) {
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
				if _, err := m.SolveBlocks(rhs, ws); err != nil {
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

// TestFactorPivotsReturnOnRelease: the pivot rows SolveBlocks draws for its
// factorization are back in the workspace once it is released, so a later
// GetInts of the same length on a warm workspace takes them instead of
// allocating.
func TestFactorPivotsReturnOnRelease(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	sizes := []int{6, 6, 6}
	m := buildRandomBTD(rng, sizes)
	rhs := make([]*linalg.Matrix, len(sizes))
	for i, n := range sizes {
		rhs[i] = randDense(rng, n, 2)
	}
	// Best of several trials, as in TestSolveBlocksReusesWorkspace: under
	// the race detector sync.Pool drops workspaces at random.
	allocs := math.Inf(1)
	for trial := 0; trial < 20; trial++ {
		allocs = math.Min(allocs, testing.AllocsPerRun(1, func() {
			ws := linalg.GetWorkspace()
			if _, err := m.SolveBlocks(rhs, ws); err != nil {
				t.Fatal(err)
			}
			ws.Release()
			ws = linalg.GetWorkspace()
			ws.GetInts(m.N())
			ws.Release()
		}))
	}
	if allocs > 3 {
		t.Errorf("SolveBlocks, Release, GetInts: %.0f allocations on a warm workspace, want ≤ 3", allocs)
	}
}
