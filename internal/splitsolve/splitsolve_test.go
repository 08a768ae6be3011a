package splitsolve

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/lattice"
	"repro/internal/linalg"
	"repro/internal/perf"
	"repro/internal/sched"
	"repro/internal/sparse"
	"repro/internal/tb"
)

// randomSystem builds a random, well-conditioned block-tridiagonal system
// with the given layer sizes plus a matching random RHS.
func randomSystem(rng *rand.Rand, sizes []int, k int) (*sparse.BlockTridiag, []*linalg.Matrix) {
	l := len(sizes)
	randM := func(r, c int) *linalg.Matrix {
		m := linalg.New(r, c)
		for i := range m.Data {
			m.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		return m
	}
	diag := make([]*linalg.Matrix, l)
	upper := make([]*linalg.Matrix, l-1)
	lower := make([]*linalg.Matrix, l-1)
	for i, n := range sizes {
		diag[i] = randM(n, n)
		for q := 0; q < n; q++ {
			diag[i].Set(q, q, diag[i].At(q, q)+complex(8, 2))
		}
	}
	for i := 0; i < l-1; i++ {
		upper[i] = randM(sizes[i], sizes[i+1])
		lower[i] = randM(sizes[i+1], sizes[i])
	}
	a, err := sparse.NewBlockTridiag(diag, upper, lower)
	if err != nil {
		panic(err)
	}
	rhs := make([]*linalg.Matrix, l)
	for i, n := range sizes {
		rhs[i] = randM(n, k)
	}
	return a, rhs
}

// serialSolve is the one-domain reference: the block-Thomas solve, copied
// off its workspace.
func serialSolve(a *sparse.BlockTridiag, rhs []*linalg.Matrix) ([]*linalg.Matrix, error) {
	ws := linalg.GetWorkspace()
	defer ws.Release()
	x, err := a.SolveBlocks(rhs, ws)
	if err != nil {
		return nil, err
	}
	for i := range x {
		x[i] = x[i].Clone()
	}
	return x, nil
}

func TestSplitSolveMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	sizes := []int{3, 2, 4, 3, 2, 5, 3, 2, 3, 4}
	a, rhs := randomSystem(rng, sizes, 3)
	want, err := serialSolve(a, rhs)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2, 3, 4, 7, 10} {
		got, err := Solve(context.Background(), a, rhs, p, nil)
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		for i := range want {
			if !got[i].Equal(want[i], 1e-9) {
				t.Fatalf("P=%d: layer %d disagrees with serial solve (dev %g)",
					p, i, got[i].Sub(want[i]).MaxAbs())
			}
		}
	}
}

func TestSplitSolveResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	sizes := []int{4, 4, 4, 4, 4, 4}
	a, rhs := randomSystem(rng, sizes, 2)
	x, err := Solve(context.Background(), a, rhs, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Verify A·X = B directly, column by column.
	off := a.Offsets()
	n := a.N()
	for col := 0; col < 2; col++ {
		xv := make([]complex128, n)
		bv := make([]complex128, n)
		for i := range sizes {
			for q := 0; q < sizes[i]; q++ {
				xv[off[i]+q] = x[i].At(q, col)
				bv[off[i]+q] = rhs[i].At(q, col)
			}
		}
		ax := a.MulVec(xv)
		for i := range ax {
			d := ax[i] - bv[i]
			if math.Hypot(real(d), imag(d)) > 1e-9 {
				t.Fatalf("residual %g at row %d", math.Hypot(real(d), imag(d)), i)
			}
		}
	}
}

func TestSplitSolveValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	a, rhs := randomSystem(rng, []int{2, 2, 2}, 1)
	if _, err := Solve(context.Background(), a, rhs, 0, nil); err == nil {
		t.Fatal("accepted zero domains")
	}
	if _, err := Solve(context.Background(), a, rhs, 4, nil); err == nil {
		t.Fatal("accepted more domains than layers")
	}
	if _, err := Solve(context.Background(), a, rhs[:2], 2, nil); err == nil {
		t.Fatal("accepted short RHS")
	}
}

func TestSplitSolveSingleLayerDomains(t *testing.T) {
	// P == L: every domain is a single layer; the reduced system carries
	// the whole coupling structure.
	rng := rand.New(rand.NewSource(63))
	sizes := []int{2, 3, 2, 3, 2}
	a, rhs := randomSystem(rng, sizes, 2)
	want, err := serialSolve(a, rhs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Solve(context.Background(), a, rhs, len(sizes), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !got[i].Equal(want[i], 1e-9) {
			t.Fatalf("layer %d disagrees for single-layer domains", i)
		}
	}
}

func TestQuickSplitSolveEquivalence(t *testing.T) {
	f := func(seed int64, layersRaw, pRaw, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		l := int(layersRaw%8) + 2
		sizes := make([]int, l)
		for i := range sizes {
			sizes[i] = rng.Intn(3) + 1
		}
		p := int(pRaw)%l + 1
		k := int(kRaw%3) + 1
		a, rhs := randomSystem(rng, sizes, k)
		want, err := serialSolve(a, rhs)
		if err != nil {
			return true // singular random system: nothing to compare
		}
		got, err := Solve(context.Background(), a, rhs, p, nil)
		if err != nil {
			return false
		}
		for i := range want {
			if !got[i].Equal(want[i], 1e-8) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestSplitSolveFlopCount is the "flop totals exact" contract of the
// decomposed solve: the counted flops of one Solve equal Flops — the domains'
// and the reduced system's, as the machine model charges them — on ragged
// layers with dense couplings and on a nanowire with compressed ones, from
// one domain up to single-layer domains.
func TestSplitSolveFlopCount(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	ragged, raggedRHS := randomSystem(rng, []int{3, 2, 4, 3, 2, 5, 3}, 2)
	s, err := lattice.NewZincblendeNanowire(0.5431, 6, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	h, err := tb.Assemble(s, tb.SiliconSP3S(), tb.Options{PassivationShift: 12})
	if err != nil {
		t.Fatal(err)
	}
	ws := linalg.GetWorkspace()
	defer ws.Release()
	wire := sparse.NewShiftedSystem(h).At(complex(6.8, 1e-6), ws)
	wireRHS := make([]*linalg.Matrix, wire.Layers())
	for i := range wireRHS {
		wireRHS[i] = linalg.New(wire.LayerSize(i), 5)
		for j := range wireRHS[i].Data {
			wireRHS[i].Data[j] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
	}
	pool := sched.New(2)
	for name, sys := range map[string]struct {
		a   *sparse.BlockTridiag
		rhs []*linalg.Matrix
	}{"ragged": {ragged, raggedRHS}, "sinw": {wire, wireRHS}} {
		a := sys.a
		nl := a.Layers()
		sizes, rows, cols := make([]int, nl), make([]int, nl-1), make([]int, nl-1)
		for i := range sizes {
			sizes[i] = a.LayerSize(i)
		}
		for i := range rows {
			rows[i], cols[i] = len(a.Coupling(i).Rows), len(a.Coupling(i).Cols)
		}
		for _, p := range []int{1, 2, 3, nl} {
			domains, reduced := Flops(sizes, rows, cols, sys.rhs[0].Cols, p)
			want := reduced
			for _, f := range domains {
				want += f
			}
			perf.ResetFlops()
			if _, err := Solve(context.Background(), a, sys.rhs, p, pool); err != nil {
				t.Fatal(err)
			}
			if got := perf.ResetFlops(); got != want {
				t.Errorf("%s, P = %d: one solve counted %d flops, Flops gives %d", name, p, got, want)
			}
		}
	}
}

func TestPartition(t *testing.T) {
	for _, tc := range []struct{ n, p int }{{10, 3}, {7, 7}, {12, 4}, {5, 2}} {
		b := partition(tc.n, tc.p)
		if b[0] != 0 || b[len(b)-1] != tc.n {
			t.Fatalf("partition(%d,%d) = %v", tc.n, tc.p, b)
		}
		for d := 0; d < tc.p; d++ {
			sz := b[d+1] - b[d]
			if sz < tc.n/tc.p || sz > tc.n/tc.p+1 {
				t.Fatalf("partition(%d,%d) uneven: %v", tc.n, tc.p, b)
			}
		}
	}
}

func TestInterfaceRank(t *testing.T) {
	// The zinc-blende [100] layer coupling touches only the boundary
	// atomic planes: rank is a quarter of the block size.
	s, err := lattice.NewZincblendeNanowire(0.5431, 4, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	h, err := tb.Assemble(s, tb.SiliconSP3S(), tb.Options{PassivationShift: 12})
	if err != nil {
		t.Fatal(err)
	}
	ws := linalg.GetWorkspace()
	defer ws.Release()
	a := sparse.NewShiftedSystem(h).At(complex(6.8, 1e-6), ws)
	rank := InterfaceRank(a)
	block := a.LayerSize(0)
	if rank <= 0 || rank >= block {
		t.Fatalf("interface rank %d not inside (0, %d)", rank, block)
	}
	if rank != block/4 {
		t.Fatalf("zinc-blende [100] interface rank %d, want %d", rank, block/4)
	}
	// A chain couples through a single orbital.
	cs, err := lattice.NewLinearChain(0.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := tb.Assemble(cs, tb.SingleBandChain(0, -1), tb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r := InterfaceRank(sparse.NewShiftedSystem(ch).At(complex(0, 1e-6), ws)); r != 1 {
		t.Fatalf("chain interface rank %d, want 1", r)
	}
}
