package sparse

import (
	"fmt"

	"repro/internal/linalg"
	"repro/internal/perf"
)

// SolveBlocks solves M·X = B for a block right-hand side given per layer
// (rhs[i] is LayerSize(i)×k, possibly zero-filled), using the block Thomas
// algorithm: one forward elimination over the layer stack and one back
// substitution. This is the serial direct solver at the heart of the
// wave-function formalism; its cost is one block LU plus a handful of
// block products per layer, against the several products per layer of the
// full RGF pass. The factorization is used once and thrown away: its
// pivots, the d̃ᵢ factors, the d̃ᵢ⁻¹·Uᵢ couplings and the solution blocks
// are all ws scratch, and the solve allocates only three layer-count
// slices. The returned blocks are valid until ws is released.
func (m *BlockTridiag) SolveBlocks(rhs []*linalg.Matrix, ws *linalg.Workspace) ([]*linalg.Matrix, error) {
	piv := ws.GetInts(m.N())
	defer ws.PutInts(piv)
	var f btdFactor
	if err := f.factor(m, piv, ws); err != nil {
		return nil, err
	}
	return f.solve(rhs, ws)
}

// BlockThomasFlops returns the flops one SolveBlocks counts at width k on
// layers of sizes sizes whose coupling i has |Rows| = rows[i], |Cols| =
// cols[i] (a dense coupling: both layers whole).
func BlockThomasFlops(sizes, rows, cols []int, k int) int64 {
	var f int64
	for i, n := range sizes {
		f += perf.LUFlops(n) + perf.SolveFlops(n, k) // d̃_i's LU, solved against the k columns
		if i > 0 {
			// d̃⁻¹·U[:, C], the fold onto C × C, forward elimination, back substitution.
			m, r, c := sizes[i-1], rows[i-1], cols[i-1]
			f += perf.SolveFlops(m, c) + perf.GemmFlops(c, r, c) + int64(c*c)*perf.FlopsCAdd +
				perf.GemmFlops(c, r, k) + perf.GemmFlops(m, c, k)
		}
	}
	return f
}

// btdFactor is the block-Thomas factorization of a block-tridiagonal
// matrix: the per-layer pivot factorizations and the eliminated coupling
// products, after which Solve costs only triangular solves and block
// products. The recurrence runs in the couplings' support space (DESIGN.md §11): the
// LU of d̃_i is a layer's one n×n operation, and a dense coupling is the
// same code with its supports the whole layers.
type btdFactor struct {
	m    *BlockTridiag
	facs []linalg.LU
	// dU[i] caches d̃_i⁻¹·U_i[:, C_i], n_i × |C_i|, for the back substitution.
	dU []*linalg.Matrix
}

// factor runs the block-Thomas factorization of m into f. piv, of length
// m.N(), receives the pivot rows of all layers; every block comes from ws.
func (f *btdFactor) factor(m *BlockTridiag, piv []int, ws *linalg.Workspace) error {
	l := m.Layers()
	cps := m.couplings()
	*f = btdFactor{m: m, facs: make([]linalg.LU, l), dU: make([]*linalg.Matrix, l-1)}
	for i := 0; i < l; i++ {
		n := m.LayerSize(i)
		d := ws.Get(n, n)
		d.CopyFrom(m.Diag[i])
		if i > 0 {
			// dU_{i-1} = d̃_{i-1}⁻¹·U_{i-1}[:, C]: the nonzero columns of
			// the coupling, laid out in the block that is solved in place.
			c := &cps[i-1]
			dU := ws.Get(m.LayerSize(i-1), len(c.Cols))
			ScatterRows(dU, c.U, c.Rows)
			f.facs[i-1].SolveInPlace(dU)
			f.dU[i-1] = dU
			// d̃_i = D_i − L_{i-1}·d̃_{i-1}⁻¹·U_{i-1}, whose second term
			// lives on C × C and reads only the rows R of dU.
			dUR := ws.Get(len(c.Rows), len(c.Cols))
			GatherRows(dUR, dU, c.Rows)
			fold := ws.Get(len(c.Cols), len(c.Cols))
			linalg.GemmInto(fold, -1, c.L, linalg.NoTrans, dUR, linalg.NoTrans, 0)
			ScatterAdd(d, fold, c.Cols, c.Cols)
			ws.Put(fold)
			ws.Put(dUR)
		}
		var err error
		f.facs[i], err = linalg.FactorInPlace(d, piv[:n])
		if err != nil {
			return fmt.Errorf("sparse: block Thomas pivot %d: %w", i, err)
		}
		piv = piv[n:]
	}
	return nil
}

// solve solves M·X = B against the stored factorization. The returned
// blocks are ws scratch, valid until ws is released; forward elimination
// and back substitution accumulate directly into them through the fused
// GEMM kernel.
func (f *btdFactor) solve(rhs []*linalg.Matrix, ws *linalg.Workspace) ([]*linalg.Matrix, error) {
	m := f.m
	l := m.Layers()
	if len(rhs) != l {
		return nil, fmt.Errorf("sparse: SolveBlocks got %d RHS blocks for %d layers", len(rhs), l)
	}
	k := rhs[0].Cols
	for i, b := range rhs {
		if b.Rows != m.LayerSize(i) || b.Cols != k {
			return nil, fmt.Errorf("sparse: RHS block %d is %dx%d, want %dx%d",
				i, b.Rows, b.Cols, m.LayerSize(i), k)
		}
	}
	cps := m.couplings()
	// Forward elimination, with the eliminated RHS solved layer by layer:
	// y_i = d̃_i⁻¹·(b_i − L_{i-1}·y_{i-1}), held in the output slot; the
	// product touches rows C of b_i and reads rows R of y_{i-1}.
	x := make([]*linalg.Matrix, l)
	for i := 0; i < l; i++ {
		x[i] = ws.Get(m.LayerSize(i), k)
		x[i].CopyFrom(rhs[i])
		if i > 0 {
			c := &cps[i-1]
			yR := ws.Get(len(c.Rows), k)
			GatherRows(yR, x[i-1], c.Rows)
			bC := ws.Get(len(c.Cols), k)
			GatherRows(bC, x[i], c.Cols)
			linalg.GemmInto(bC, -1, c.L, linalg.NoTrans, yR, linalg.NoTrans, 1)
			ScatterRows(x[i], bC, c.Cols)
			ws.Put(bC)
			ws.Put(yR)
		}
		f.facs[i].SolveInPlace(x[i])
	}
	// Back substitution: x_i = y_i − d̃_i⁻¹·U_i[:, C]·x_{i+1}[C, :].
	for i := l - 2; i >= 0; i-- {
		xC := ws.Get(len(cps[i].Cols), k)
		GatherRows(xC, x[i+1], cps[i].Cols)
		linalg.GemmInto(x[i], -1, f.dU[i], linalg.NoTrans, xC, linalg.NoTrans, 1)
		ws.Put(xC)
	}
	return x, nil
}
