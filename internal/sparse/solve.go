package sparse

import (
	"fmt"

	"repro/internal/linalg"
	"repro/internal/perf"
)

// SolveBlocks solves M·X = B for a block right-hand side given per layer
// (rhs[i] is LayerSize(i)×k, possibly zero-filled): SolveLast's forward
// sweep with every layer solved whole, then the back substitution
// x_i = y_i − d̃_i⁻¹·U_i[:, C]·x_{i+1}[C, :]. The blocks are ws scratch,
// valid until ws is released.
func (m *BlockTridiag) SolveBlocks(rhs []*linalg.Matrix, ws *linalg.Workspace) ([]*linalg.Matrix, error) {
	l := m.Layers()
	x, dU := make([]*linalg.Matrix, l), make([]*linalg.Matrix, l-1)
	set := SoloSet(ws)
	last, _, err := sweep(&set, system{a: m, rhs: rhs}, x, dU, 1)
	if err != nil {
		return nil, err
	}
	x[l-1] = last.M
	cps := m.couplings()
	for i := l - 2; i >= 0; i-- {
		xC := ws.Get(len(cps[i].Cols), x[i].Cols)
		GatherRows(xC, x[i+1], cps[i].Cols)
		linalg.GemmInto(x[i], -1, dU[i], linalg.NoTrans, xC, linalg.NoTrans, 1)
		ws.Put(xC)
	}
	return x, nil
}

// SolveLast returns SolveBlocks' last block, bit for bit — all a
// transmission reads: forward elimination leaves it final, and each earlier
// layer's solve stops at the first row the next reads. ws scratch, as there.
func (m *BlockTridiag) SolveLast(rhs []*linalg.Matrix, ws *linalg.Workspace) (*linalg.Matrix, error) {
	set := SoloSet(ws)
	last, _, err := sweep(&set, system{a: m, rhs: rhs}, nil, nil, 1)
	return last.M, err
}

// SolveLast is BlockTridiag.SolveLast on the reduced system at the lanes'
// energies: rhs[i] is layer i's right-hand side in every lane, and lane l
// of the last block holds what SolveLast returns on Reduced.A at lane l's
// energy against lane l's right-hand side, bit for bit — the same sweep on
// a lane set. It returns the lanes of live whose factor met a zero pivot,
// with the error of the last of them; they hold garbage. The block is the
// set's scratch. It counts no flop.
func (r *LaneReduced) SolveLast(rhs []*linalg.LaneMatrix, live linalg.LaneMask) (*linalg.LaneMatrix, linalg.LaneMask, error) {
	last, failed, err := sweep(r.set, system{v: r, rhsV: rhs}, nil, nil, live)
	return last.V, failed, err
}

// system is what the sweep solves: a matrix and its right-hand sides on a
// solo set, the reduced system's lanes and theirs on a lane set.
type system struct {
	a    *BlockTridiag
	rhs  []*linalg.Matrix
	v    *LaneReduced
	rhsV []*linalg.LaneMatrix
}

func (s system) layers() (layers, blocks int) {
	if s.v != nil {
		return len(s.v.Diag), len(s.rhsV)
	}
	return s.a.Layers(), len(s.rhs)
}

func (s system) diag(i int) Block {
	if s.v != nil {
		return Block{V: s.v.Diag[i]}
	}
	return Block{M: s.a.Diag[i]}
}

// b returns layer i's right-hand side and its rows×cols.
func (s system) b(i int) (b Block, rows, cols int) {
	if s.v != nil {
		return Block{V: s.rhsV[i]}, s.rhsV[i].Rows, s.rhsV[i].Cols
	}
	return Block{M: s.rhs[i]}, s.rhs[i].Rows, s.rhs[i].Cols
}

func (s system) couplings() []Coupling {
	if s.v != nil {
		return s.v.sys.cps
	}
	return s.a.couplings()
}

// BlockThomasFlops returns the flops one SolveBlocks counts at width k on
// layers of sizes sizes whose coupling i has |Rows| = rows[i], |Cols| =
// cols[i] (a dense coupling: both layers whole); non-nil floors gives
// SolveLast's, layer i's solve stopped at row floors[i] = min R_i.
func BlockThomasFlops(sizes, rows, cols, floors []int, k int) int64 {
	l := len(sizes)
	f := perf.LUFlops(sizes[l-1]) + perf.SolveFlops(sizes[l-1], k)
	for i, n := range sizes[:l-1] {
		// LU, the solve of [b̃_i | U_i[:, C]], fold, elimination, back substitution.
		r, c := rows[i], cols[i]
		f += perf.LUFlops(n) + perf.GemmFlops(c, r, c) + int64(c*c)*perf.FlopsCAdd + perf.GemmFlops(c, r, k)
		if floors != nil {
			f += perf.SolveFromRowFlops(n, floors[i], k+c)
		} else {
			f += perf.SolveFlops(n, k+c) + perf.GemmFlops(n, c, k)
		}
	}
	return f
}

// sweep runs the forward block-Thomas elimination in the couplings' support
// space (DESIGN.md §11) in the lanes of live and returns x_{l−1}, one body
// for one energy (a solo set) and for a lane group (a lane set). Layer i
// folds L·d̃⁻¹·U of the layer before into d̃_i on C × C, factors it and
// solves [b̃_i | U_i[:, C]] in one LU solve, columns independent bit for
// bit. The next layer reads rows R_i alone: with x nil the back sweep stops
// at min R_i, wherever they sit; otherwise (a solo set) it runs whole and
// x[i], dU[i] keep both blocks. It returns the lanes whose factor met a
// zero pivot, with the error of the last of them.
func sweep(set *Set, sys system, x, dU []*linalg.Matrix, live linalg.LaneMask) (last Block, failed linalg.LaneMask, err error) {
	l, nb := sys.layers()
	if nb != l {
		return last, live, fmt.Errorf("sparse: SolveBlocks got %d RHS blocks for %d layers", nb, l)
	}
	_, _, k := sys.b(0)
	for i := 0; i < l; i++ {
		n := sys.diag(i).Rows()
		if _, rows, cols := sys.b(i); rows != n || cols != k {
			return last, live, fmt.Errorf("sparse: RHS block %d is %dx%d, want %dx%d", i, rows, cols, n, k)
		}
	}
	cps := sys.couplings()
	var yR, dUR Block // rows R_{i−1} of y_{i−1} and d̃_{i−1}⁻¹·U_{i−1}[:, C]
	for i := 0; ; i++ {
		diag, w := sys.diag(i), k
		n := diag.Rows()
		if i < l-1 {
			w += len(cps[i].Cols)
		}
		d, blk := set.Get(n, n), set.Zeroed(n, w)
		set.Copy(d, diag)
		b, _, _ := sys.b(i)
		set.MoveCols(blk, b, nil, 0, true)
		if i > 0 {
			p := &cps[i-1]
			pL := set.Common(p.L)
			fold, bC := set.Get(len(p.Cols), len(p.Cols)), set.Get(len(p.Cols), k)
			set.Gemm(fold, -1, pL, dUR, 0)
			set.ScatterAdd(d, fold, p.Cols, p.Cols)
			set.MoveCols(blk, bC, p.Cols, 0, false)
			set.Gemm(bC, -1, pL, yR, 1)
			set.MoveCols(blk, bC, p.Cols, 0, true)
			for _, b := range []Block{bC, fold, dUR, yR} {
				set.Put(b)
			}
		}
		var c *Coupling
		r0 := 0
		if i < l-1 {
			c = &cps[i]
			set.MoveCols(blk, set.Common(c.U), c.Rows, k, true)
			if x == nil {
				r0 = n
				for _, r := range c.Rows {
					r0 = min(r0, r)
				}
			}
		}
		bad, ferr := set.FactorSolve(d, blk, r0, live)
		set.Put(d)
		if bad != 0 {
			failed, err = failed|bad, fmt.Errorf("sparse: block Thomas pivot %d: %w", i, ferr)
			if live &^= bad; live == 0 {
				return Block{}, failed, err
			}
		}
		if i == l-1 {
			return blk, failed, err
		}
		yR, dUR = set.Get(len(c.Rows), k), set.Get(len(c.Rows), len(c.Cols))
		set.MoveCols(blk, yR, c.Rows, 0, false)
		set.MoveCols(blk, dUR, c.Rows, k, false)
		if x != nil {
			ws := set.Workspace()
			x[i], dU[i] = ws.Get(n, k), ws.Get(n, len(c.Cols))
			moveCols(blk.M, x[i], nil, 0, false)
			moveCols(blk.M, dU[i], nil, k, false)
		}
		set.Put(blk)
	}
}
