package sparse

import (
	"fmt"

	"repro/internal/linalg"
	"repro/internal/perf"
)

// Panel-traffic observability of the batched solve path: a "load" is one
// panel of homologous per-energy blocks brought into play (one checkout
// per layer-block per batch), and each load is "reused" by the other
// width−1 batch elements that consume the same shared source block while
// it is hot. The counters ride perf.Snapshot onto the distributed wire
// like every other named counter.
var (
	panelLoads  = perf.GetCounter("panel-loads")
	panelReuses = perf.GetCounter("panel-reuses")
)

// countPanel records one panel checkout of the given batch width.
func countPanel(w int) {
	panelLoads.Add(1)
	if w > 1 {
		panelReuses.Add(int64(w - 1))
	}
}

// ShiftedBatchFromHermitianWS builds A_j = zs[j]·I − H for a batch of
// energies, advancing layer by layer so each Hamiltonian block is read
// once per batch while its width shifted copies are written into one
// contiguous panel. Element j is arithmetically identical to
// ShiftedFromHermitianWS(h, zs[j], ws): the same per-block kernels run on
// the same operands, only the iteration order (layer-major instead of
// energy-major) and the storage (panels instead of scattered workspace
// blocks) change. Like the width-1 form, the returned matrices are
// workspace scratch, valid only until ws is released.
func ShiftedBatchFromHermitianWS(h *BlockTridiag, zs []complex128, ws *linalg.Workspace) []*BlockTridiag {
	w := len(zs)
	as := make([]*BlockTridiag, w)
	for j := range as {
		as[j] = &BlockTridiag{
			Diag:  make([]*linalg.Matrix, len(h.Diag)),
			Upper: make([]*linalg.Matrix, len(h.Upper)),
			Lower: make([]*linalg.Matrix, len(h.Lower)),
		}
	}
	for i, d := range h.Diag {
		p := ws.GetPanel(w, d.Rows, d.Cols)
		countPanel(w)
		for j := 0; j < w; j++ {
			as[j].Diag[i] = p.Block(j)
		}
		// ShiftedNegInto fully overwrites, so the unzeroed panel is fine.
		linalg.BatchShiftedNegInto(p.Blocks(), d, zs)
	}
	for i := range h.Upper {
		u, lo := h.Upper[i], h.Lower[i]
		pu := ws.GetPanel(w, u.Rows, u.Cols)
		pu.Zero() // AddScaled accumulates: start from zero like Workspace.Get
		countPanel(w)
		for j := 0; j < w; j++ {
			as[j].Upper[i] = pu.Block(j)
		}
		linalg.BatchAddScaled(pu.Blocks(), u, -1)
		pl := ws.GetPanel(w, lo.Rows, lo.Cols)
		pl.Zero()
		countPanel(w)
		for j := 0; j < w; j++ {
			as[j].Lower[i] = pl.Block(j)
		}
		linalg.BatchAddScaled(pl.Blocks(), lo, -1)
	}
	return as
}

// SolveBlocksBatchWS solves the batch of same-shape block-tridiagonal
// systems as[j]·X_j = rhss[j] by the block Thomas algorithm, advancing
// every system one block-column at a time: all width factorizations of
// layer i, then all width eliminations of layer i, live in panel storage
// and are processed while the layer's working set is hot. Right-hand-side
// widths may differ per element (the ragged injection ranks of the
// wave-function formalism); those blocks come from plain workspace
// checkouts instead of panels.
//
// Element j runs the exact kernel sequence of as[j].SolveBlocks(rhss[j])
// — same factorizations, same triangular solves, same fused products on
// the same values, and therefore bitwise-identical solutions and flop
// counts. An element that fails (shape mismatch, singular pivot) gets its
// error in errs[j] with the width-1 error text, stops consuming arithmetic
// at the failing layer, and leaves the rest of the batch running.
//
// The returned solution blocks are workspace scratch, valid until ws is
// released; xs[j] is nil where errs[j] is set.
func SolveBlocksBatchWS(as []*BlockTridiag, rhss [][]*linalg.Matrix, ws *linalg.Workspace) (xs [][]*linalg.Matrix, errs []error) {
	w := len(as)
	xs = make([][]*linalg.Matrix, w)
	errs = make([]error, w)
	if w == 0 {
		return xs, errs
	}
	if len(rhss) != w {
		panic("sparse: batch width mismatch in SolveBlocksBatchWS")
	}
	l := as[0].Layers()
	alive := make([]bool, w)
	for j, m := range as {
		if m.Layers() != l || func() bool {
			for i := 0; i < l; i++ {
				if m.LayerSize(i) != as[0].LayerSize(i) {
					return true
				}
			}
			return false
		}() {
			errs[j] = fmt.Errorf("sparse: batch element %d does not match the batch layer shape", j)
			continue
		}
		alive[j] = true
	}

	// Factorization, layer-major (the FactorBTD recurrence across the
	// whole batch, one block-column at a time).
	facPanels := make([]*linalg.Panel, l)
	dUPanels := make([]*linalg.Panel, l-1)
	luAll := make([][]linalg.LU, l)
	sel := make([]*linalg.Matrix, w)
	defer func() {
		for i := range luAll {
			if luAll[i] != nil {
				linalg.BatchReleaseLU(luAll[i], ws)
			}
		}
		for _, p := range facPanels {
			if p != nil {
				ws.PutPanel(p)
			}
		}
		for _, p := range dUPanels {
			if p != nil {
				ws.PutPanel(p)
			}
		}
	}()
	factorLayer := func(i int) {
		ni := as[0].LayerSize(i)
		facPanels[i] = ws.GetPanel(w, ni, ni)
		countPanel(w)
		for j := 0; j < w; j++ {
			sel[j] = nil
			if !alive[j] {
				continue
			}
			blk := facPanels[i].Block(j)
			blk.CopyFrom(as[j].Diag[i])
			if i > 0 {
				linalg.GemmInto(blk, -1, as[j].Lower[i-1], linalg.NoTrans,
					dUPanels[i-1].Block(j), linalg.NoTrans, 1)
			}
			sel[j] = blk
		}
		lus, ferrs := linalg.BatchFactorInPlace(sel, ws)
		luAll[i] = lus
		for j := 0; j < w; j++ {
			if alive[j] && ferrs[j] != nil {
				errs[j] = fmt.Errorf("sparse: block Thomas pivot %d: %w", i, ferrs[j])
				alive[j] = false
			}
		}
	}
	factorLayer(0)
	for i := 1; i < l; i++ {
		ni := as[0].LayerSize(i)
		prev := as[0].LayerSize(i - 1)
		dUPanels[i-1] = ws.GetPanel(w, prev, ni)
		countPanel(w)
		for j := 0; j < w; j++ {
			if !alive[j] {
				continue
			}
			du := dUPanels[i-1].Block(j)
			luAll[i-1][j].SolveInto(du, as[j].Upper[i-1]) // d̃_{i-1}⁻¹·U_{i-1}
		}
		factorLayer(i)
	}

	// RHS validation, identical per element to the width-1 SolveBlocks.
	ks := make([]int, w)
	for j := 0; j < w; j++ {
		if !alive[j] {
			continue
		}
		rhs := rhss[j]
		if len(rhs) != l {
			errs[j] = fmt.Errorf("sparse: SolveBlocks got %d RHS blocks for %d layers", len(rhs), l)
			alive[j] = false
			continue
		}
		k := rhs[0].Cols
		for i, b := range rhs {
			if b.Rows != as[j].LayerSize(i) || b.Cols != k {
				errs[j] = fmt.Errorf("sparse: RHS block %d is %dx%d, want %dx%d",
					i, b.Rows, b.Cols, as[j].LayerSize(i), k)
				alive[j] = false
				break
			}
		}
		ks[j] = k
	}

	// Forward elimination of the RHS, layer-major across the batch. The
	// solution blocks are plain (zeroed) workspace checkouts because their
	// widths are ragged across the batch.
	for j := 0; j < w; j++ {
		if !alive[j] {
			continue
		}
		xs[j] = make([]*linalg.Matrix, l)
		x0 := ws.Get(as[j].LayerSize(0), ks[j])
		luAll[0][j].SolveInto(x0, rhss[j][0])
		xs[j][0] = x0
	}
	for i := 1; i < l; i++ {
		for j := 0; j < w; j++ {
			if !alive[j] {
				continue
			}
			xi := ws.Get(as[j].LayerSize(i), ks[j])
			xi.CopyFrom(rhss[j][i])
			linalg.GemmInto(xi, -1, as[j].Lower[i-1], linalg.NoTrans, xs[j][i-1], linalg.NoTrans, 1)
			luAll[i][j].SolveInto(xi, xi)
			xs[j][i] = xi
		}
	}
	// Back substitution, layer-major from the bottom up.
	for i := l - 2; i >= 0; i-- {
		for j := 0; j < w; j++ {
			if !alive[j] {
				continue
			}
			linalg.GemmInto(xs[j][i], -1, dUPanels[i].Block(j), linalg.NoTrans, xs[j][i+1], linalg.NoTrans, 1)
		}
	}
	for j := 0; j < w; j++ {
		if !alive[j] {
			xs[j] = nil
		}
	}
	return xs, errs
}
