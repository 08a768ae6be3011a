package negf

import (
	"context"
	"fmt"
	"math"

	"repro/internal/linalg"
	"repro/internal/perf"
	"repro/internal/sparse"
)

// Batched RGF: the interleaved form of solveWithSigma. A batch of energy
// points advances through the device one block-column at a time — all
// width forward blocks of layer i, then all width backward blocks — with
// the homologous per-energy blocks packed into contiguous panels and the
// layer's Hamiltonian blocks resident for the whole batch. Element j runs
// the exact kernel sequence of the width-1 solve on the same operands
// (see DESIGN.md §14), so a batched sweep is bitwise-identical to the
// looped one, flop counters included; only allocation and memory traffic
// change.

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

// SolveBatch runs the batched RGF at a batch of energies. See SolveBatchCtx.
func (s *Solver) SolveBatch(es []float64, density bool) ([]*Result, []error) {
	return s.SolveBatchCtx(context.Background(), es, density)
}

// SolveBatchCtx solves every energy of es in one interleaved RGF pass and
// returns per-energy results and errors positionally: results[j] is nil
// exactly where errs[j] is set, and each failed element carries the error
// the width-1 SolveCtx would have returned. A width-1 batch delegates to
// SolveCtx, so batching degrades gracefully to exactly the looped path.
//
// The contact self-energies are still resolved per energy (through the
// attached cache, when present); batching begins at the device sweep.
func (s *Solver) SolveBatchCtx(ctx context.Context, es []float64, density bool) ([]*Result, []error) {
	results := make([]*Result, len(es))
	errs := make([]error, len(es))
	if len(es) == 0 {
		return results, errs
	}
	if len(es) == 1 {
		results[0], errs[0] = s.SolveCtx(ctx, es[0], density)
		return results, errs
	}
	batchWidthCounter(len(es)).Add(1)
	if err := ctx.Err(); err != nil {
		for j := range errs {
			errs[j] = err
		}
		return results, errs
	}
	// Per-energy self-energies, compacting the batch to the elements that
	// survived the contact stage.
	zs := make([]complex128, 0, len(es))
	idxs := make([]int, 0, len(es))
	sigLs := make([]*linalg.Matrix, 0, len(es))
	sigRs := make([]*linalg.Matrix, 0, len(es))
	for j, e := range es {
		z := complex(e, s.Eta)
		sigL, sigR, err := s.selfEnergies(z)
		if err != nil {
			errs[j] = err
			continue
		}
		zs = append(zs, z)
		idxs = append(idxs, j)
		sigLs = append(sigLs, sigL)
		sigRs = append(sigRs, sigR)
	}
	if len(idxs) == 0 {
		return results, errs
	}
	if err := ctx.Err(); err != nil {
		for _, j := range idxs {
			errs[j] = err
		}
		return results, errs
	}
	defer perf.StartPhase("rgf")()
	s.solveBatchWithSigma(es, zs, idxs, sigLs, sigRs, density, results, errs)
	return results, errs
}

// batchWidthCounter returns the occupancy counter for width-w batch calls.
func batchWidthCounter(w int) *perf.Counter {
	return perf.GetCounter(fmt.Sprintf("batch-width-%d", w))
}

// solveBatchWithSigma is the interleaved device sweep over the compacted
// batch: zs/sigLs/sigRs hold the surviving elements and idxs maps them
// back to positions in es/results/errs.
func (s *Solver) solveBatchWithSigma(es []float64, zs []complex128, idxs []int, sigLs, sigRs []*linalg.Matrix, density bool, results []*Result, errs []error) {
	w := len(zs)
	ws := linalg.GetWorkspace()
	defer ws.Release()

	as := sparse.ShiftedBatchFromHermitianWS(s.H, zs, ws)
	nl := s.H.Layers()
	n0 := s.H.LayerSize(0)
	nN := s.H.LayerSize(nl - 1)
	for b := 0; b < w; b++ {
		as[b].AddScaledToDiagBlock(0, sigLs[b], -1)
		as[b].AddScaledToDiagBlock(nl-1, sigRs[b], -1)
	}
	gamLP := ws.GetPanel(w, n0, n0) // BroadeningInto fully overwrites
	countPanel(w)
	gamRP := ws.GetPanel(w, nN, nN)
	countPanel(w)
	for b := 0; b < w; b++ {
		BroadeningInto(gamLP.Block(b), sigLs[b])
		BroadeningInto(gamRP.Block(b), sigRs[b])
	}

	alive := make([]bool, w)
	for b := range alive {
		alive[b] = true
	}
	fail := func(b int, err error) {
		errs[idxs[b]] = err
		alive[b] = false
	}

	// Forward (left-connected) pass, layer-major: one panel of g^L blocks
	// per layer, the layer's coupling blocks hot across the batch.
	gLft := make([]*linalg.Panel, nl)
	gLft[0] = ws.GetPanel(w, n0, n0)
	countPanel(w)
	for b := 0; b < w; b++ {
		if err := linalg.InverseInto(gLft[0].Block(b), as[b].Diag[0], ws); err != nil {
			fail(b, fmt.Errorf("negf: RGF forward block 0: %w", err))
		}
	}
	for i := 1; i < nl; i++ {
		ni := s.H.LayerSize(i)
		gLft[i] = ws.GetPanel(w, ni, ni)
		countPanel(w)
		m := ws.Get(ni, ni)
		for b := 0; b < w; b++ {
			if !alive[b] {
				continue
			}
			linalg.Mul3Into(m, as[b].Lower[i-1], linalg.NoTrans, gLft[i-1].Block(b), linalg.NoTrans, as[b].Upper[i-1], linalg.NoTrans, ws)
			linalg.SubInto(m, as[b].Diag[i], m)
			if err := linalg.InverseInto(gLft[i].Block(b), m, ws); err != nil {
				fail(b, fmt.Errorf("negf: RGF forward block %d: %w", i, err))
			}
		}
		ws.Put(m)
	}

	// Backward pass for the diagonal G_ii and the column G_{i,N-1}. Layer
	// nl-1 aliases the forward panel, exactly like the width-1 solve.
	gDiagB := make([][]*linalg.Matrix, nl)
	gColRB := make([][]*linalg.Matrix, nl)
	gDiagB[nl-1] = gLft[nl-1].Blocks()
	gColRB[nl-1] = gLft[nl-1].Blocks()
	for i := nl - 2; i >= 0; i-- {
		ni := s.H.LayerSize(i)
		gu := ws.Get(ni, s.H.LayerSize(i+1))
		t := ws.Get(ni, ni)
		gDiagP := ws.GetPanel(w, ni, ni)
		countPanel(w)
		gColRP := ws.GetPanel(w, ni, nN)
		countPanel(w)
		for b := 0; b < w; b++ {
			if !alive[b] {
				continue
			}
			linalg.MulInto(gu, gLft[i].Block(b), linalg.NoTrans, as[b].Upper[i], linalg.NoTrans)
			// G_ii = g_i + (g_i·U_i·G_{i+1,i+1}·L_i)·g_i
			linalg.Mul3Into(t, gu, linalg.NoTrans, gDiagB[i+1][b], linalg.NoTrans, as[b].Lower[i], linalg.NoTrans, ws)
			d := gDiagP.Block(b)
			d.CopyFrom(gLft[i].Block(b))
			linalg.GemmInto(d, 1, t, linalg.NoTrans, gLft[i].Block(b), linalg.NoTrans, 1)
			linalg.GemmInto(gColRP.Block(b), -1, gu, linalg.NoTrans, gColRB[i+1][b], linalg.NoTrans, 0)
		}
		ws.Put(t)
		ws.Put(gu)
		gDiagB[i] = gDiagP.Blocks()
		gColRB[i] = gColRP.Blocks()
	}

	// Caroli transmission and layer DOS per element.
	off := s.H.Offsets()
	res := make([]*Result, w)
	tns := ws.Get(n0, nN)
	for b := 0; b < w; b++ {
		if !alive[b] {
			continue
		}
		r := &Result{E: es[idxs[b]]}
		linalg.Mul3Into(tns, gamLP.Block(b), linalg.NoTrans, gColRB[0][b], linalg.NoTrans, gamRP.Block(b), linalg.NoTrans, ws)
		r.T = real(linalg.TraceMulConj(tns, gColRB[0][b]))
		r.DOS = make([]float64, s.H.N())
		for i := 0; i < nl; i++ {
			d := gDiagB[i][b]
			for k := 0; k < d.Rows; k++ {
				r.DOS[off[i]+k] = -imag(d.At(k, k)) / math.Pi
			}
		}
		res[b] = r
	}
	ws.Put(tns)

	if density {
		// Right-connected pass for the column G_{i,0}, layer-major.
		gRgtB := make([][]*linalg.Matrix, nl)
		gRgtP := ws.GetPanel(w, nN, nN)
		countPanel(w)
		for b := 0; b < w; b++ {
			if !alive[b] {
				continue
			}
			if err := linalg.InverseInto(gRgtP.Block(b), as[b].Diag[nl-1], ws); err != nil {
				fail(b, fmt.Errorf("negf: RGF backward block %d: %w", nl-1, err))
			}
		}
		gRgtB[nl-1] = gRgtP.Blocks()
		for i := nl - 2; i >= 0; i-- {
			ni := s.H.LayerSize(i)
			m := ws.Get(ni, ni)
			p := ws.GetPanel(w, ni, ni)
			countPanel(w)
			for b := 0; b < w; b++ {
				if !alive[b] {
					continue
				}
				linalg.Mul3Into(m, as[b].Upper[i], linalg.NoTrans, gRgtB[i+1][b], linalg.NoTrans, as[b].Lower[i], linalg.NoTrans, ws)
				linalg.SubInto(m, as[b].Diag[i], m)
				if err := linalg.InverseInto(p.Block(b), m, ws); err != nil {
					fail(b, fmt.Errorf("negf: RGF backward block %d: %w", i, err))
				}
			}
			ws.Put(m)
			gRgtB[i] = p.Blocks()
		}
		gColLB := make([][]*linalg.Matrix, nl) // G_{i,0}
		gColLB[0] = gDiagB[0]
		for i := 1; i < nl; i++ {
			ni := s.H.LayerSize(i)
			t := ws.Get(ni, n0)
			p := ws.GetPanel(w, ni, n0)
			countPanel(w)
			for b := 0; b < w; b++ {
				if !alive[b] {
					continue
				}
				linalg.MulInto(t, as[b].Lower[i-1], linalg.NoTrans, gColLB[i-1][b], linalg.NoTrans)
				linalg.GemmInto(p.Block(b), -1, gRgtB[i][b], linalg.NoTrans, t, linalg.NoTrans, 0)
			}
			ws.Put(t)
			gColLB[i] = p.Blocks()
		}
		// Spectral diagonals [G·Γ·G†]_ii, layer-major across the batch.
		for b := 0; b < w; b++ {
			if !alive[b] {
				continue
			}
			res[b].SpectralL = make([]float64, s.H.N())
			res[b].SpectralR = make([]float64, s.H.N())
		}
		for i := 0; i < nl; i++ {
			ni := s.H.LayerSize(i)
			d := ws.Get(ni, 1)
			for b := 0; b < w; b++ {
				if !alive[b] {
					continue
				}
				linalg.DiagMulConjInto(d.Data, gColLB[i][b], gamLP.Block(b), ws)
				for k := 0; k < ni; k++ {
					res[b].SpectralL[off[i]+k] = real(d.Data[k])
				}
				linalg.DiagMulConjInto(d.Data, gColRB[i][b], gamRP.Block(b), ws)
				for k := 0; k < ni; k++ {
					res[b].SpectralR[off[i]+k] = real(d.Data[k])
				}
			}
			ws.Put(d)
		}
	}

	for b := 0; b < w; b++ {
		if alive[b] {
			results[idxs[b]] = res[b]
		}
	}
}
