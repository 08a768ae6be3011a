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
	last, err := m.sweep(rhs, ws, x, dU)
	if err != nil {
		return nil, err
	}
	x[l-1] = last
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
	return m.sweep(rhs, ws, nil, nil)
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
// space (DESIGN.md §11) and returns x_{l−1}. Layer i folds L·d̃⁻¹·U of the
// layer before into d̃_i on C × C, factors it and solves [b̃_i | U_i[:, C]]
// in one LU solve, columns independent bit for bit. The next layer reads
// rows R_i alone: with x nil the back sweep stops at min R_i, wherever they
// sit; otherwise it runs whole and x[i], dU[i] keep both blocks.
func (m *BlockTridiag) sweep(rhs []*linalg.Matrix, ws *linalg.Workspace, x, dU []*linalg.Matrix) (*linalg.Matrix, error) {
	l := m.Layers()
	if len(rhs) != l {
		return nil, fmt.Errorf("sparse: SolveBlocks got %d RHS blocks for %d layers", len(rhs), l)
	}
	k := rhs[0].Cols
	for i, b := range rhs {
		if b.Rows != m.LayerSize(i) || b.Cols != k {
			return nil, fmt.Errorf("sparse: RHS block %d is %dx%d, want %dx%d", i, b.Rows, b.Cols, m.LayerSize(i), k)
		}
	}
	piv := ws.GetInts(m.N())
	defer ws.PutInts(piv)
	cps := m.couplings()
	var yR, dUR *linalg.Matrix // rows R_{i−1} of y_{i−1} and d̃_{i−1}⁻¹·U_{i−1}[:, C]
	for i := 0; ; i++ {
		n, w := m.LayerSize(i), k
		if i < l-1 {
			w += len(cps[i].Cols)
		}
		d, blk := ws.Get(n, n), ws.Get(n, w)
		d.CopyFrom(m.Diag[i])
		moveCols(blk, rhs[i], nil, 0, true)
		if i > 0 {
			p := &cps[i-1]
			fold, bC := ws.Get(len(p.Cols), len(p.Cols)), ws.Get(len(p.Cols), k)
			linalg.GemmInto(fold, -1, p.L, linalg.NoTrans, dUR, linalg.NoTrans, 0)
			ScatterAdd(d, fold, p.Cols, p.Cols)
			moveCols(blk, bC, p.Cols, 0, false)
			linalg.GemmInto(bC, -1, p.L, linalg.NoTrans, yR, linalg.NoTrans, 1)
			moveCols(blk, bC, p.Cols, 0, true)
			for _, b := range []*linalg.Matrix{bC, fold, dUR, yR} {
				ws.Put(b)
			}
		}
		lu, err := linalg.FactorInPlace(d, piv[:n])
		if err != nil {
			return nil, fmt.Errorf("sparse: block Thomas pivot %d: %w", i, err)
		}
		if i == l-1 {
			lu.SolveInPlace(blk)
			return blk, nil
		}
		c, r0 := &cps[i], 0
		moveCols(blk, c.U, c.Rows, k, true)
		if x == nil {
			r0 = n
			for _, r := range c.Rows {
				r0 = min(r0, r)
			}
		}
		lu.SolveFromRow(blk, r0)
		ws.Put(d)
		yR, dUR = ws.Get(len(c.Rows), k), ws.Get(len(c.Rows), len(c.Cols))
		moveCols(blk, yR, c.Rows, 0, false)
		moveCols(blk, dUR, c.Rows, k, false)
		if x != nil {
			x[i], dU[i] = ws.Get(n, k), ws.Get(n, len(c.Cols))
			moveCols(blk, x[i], nil, 0, false)
			moveCols(blk, dU[i], nil, k, false)
		}
		ws.Put(blk)
	}
}

// moveCols copies b into blk[rows, j0:] when put, out of it otherwise.
func moveCols(blk, b *linalg.Matrix, rows []int, j0 int, put bool) {
	for a := 0; a < b.Rows; a++ {
		r := a
		if rows != nil {
			r = rows[a]
		}
		dst, src := b.Data[a*b.Cols:(a+1)*b.Cols], blk.Data[r*blk.Cols+j0:]
		if put {
			dst, src = src[:b.Cols], dst
		}
		copy(dst, src)
	}
}
