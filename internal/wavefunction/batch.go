package wavefunction

import (
	"context"
	"fmt"
	"math"

	"repro/internal/linalg"
	"repro/internal/negf"
	"repro/internal/perf"
	"repro/internal/sparse"
)

// SolveBatch runs the batched wave-function solve at a batch of energies.
// See SolveBatchCtx.
func (s *Solver) SolveBatch(es []float64, density bool) ([]*negf.Result, []error) {
	return s.SolveBatchCtx(context.Background(), es, density)
}

// SolveBatchCtx solves every energy of es through one batched
// block-Thomas pass and returns per-energy results and errors
// positionally, each failed element carrying the error the width-1
// SolveCtx would have returned. The contact stage — broadenings and
// injection eigenproblems — stays per energy (the injection rank is
// ragged across the batch); the shifted-system assembly and the
// open-boundary linear solve, the dominant direct-solver costs, advance
// the whole batch one block-column at a time through panel storage.
// Element j is bitwise-identical to SolveCtx(es[j]), reported flops
// included, even on per-element failure paths (DESIGN.md §14).
//
// A width-1 batch delegates to SolveCtx, and a Solver with a custom
// SolveStrategy (domain-decomposed solves) falls back to looping SolveCtx:
// batching composes with the serial block-Thomas strategy only.
func (s *Solver) SolveBatchCtx(ctx context.Context, es []float64, density bool) ([]*negf.Result, []error) {
	results := make([]*negf.Result, len(es))
	errs := make([]error, len(es))
	if len(es) == 0 {
		return results, errs
	}
	if len(es) == 1 || s.SolveStrategy != nil {
		for j, e := range es {
			results[j], errs[j] = s.SolveCtx(ctx, e, density)
		}
		return results, errs
	}
	perf.GetCounter(fmt.Sprintf("batch-width-%d", len(es))).Add(1)

	ws := linalg.GetWorkspace()
	defer ws.Release()

	nl := s.H.Layers()
	n0 := s.H.LayerSize(0)
	nN := s.H.LayerSize(nl - 1)

	// Self-energies per energy through the shared cache, compacting the
	// batch to the elements that survived the contact stage.
	zs := make([]complex128, 0, len(es))
	idxs := make([]int, 0, len(es))
	sigLs := make([]*linalg.Matrix, 0, len(es))
	sigRs := make([]*linalg.Matrix, 0, len(es))
	for j, e := range es {
		if err := ctx.Err(); err != nil {
			errs[j] = err
			continue
		}
		z := complex(e, s.Eta)
		sigL, sigR, err := negf.CachedSelfEnergies(s.Cache, s.Leads, z)
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

	// Batched shifted-system assembly. Like the width-1 solve, assembly
	// precedes the injection stage, so an element that later fails its
	// injection eigenproblem has paid the same assembly flops either way.
	w := len(idxs)
	as := sparse.ShiftedBatchFromHermitianWS(s.H, zs, ws)
	for b := range as {
		as[b].AddScaledToDiagBlock(0, sigLs[b], -1)
		as[b].AddScaledToDiagBlock(nl-1, sigRs[b], -1)
	}

	// Broadenings, injection vectors, and the (ragged-width) RHS columns,
	// per element. Zero-channel elements complete immediately like the
	// width-1 path; failures drop out of the solve batch.
	gamRP := ws.GetPanel(w, nN, nN) // BroadeningInto fully overwrites
	countPanel(w)
	gamL := ws.Get(n0, n0)
	solveAs := make([]*sparse.BlockTridiag, 0, w)
	solveIdxs := make([]int, 0, w)
	gamRs := make([]*linalg.Matrix, 0, w)
	wLs := make([]*linalg.Matrix, 0, w)
	wRs := make([]*linalg.Matrix, 0, w)
	rhss := make([][]*linalg.Matrix, 0, w)
	for b := 0; b < w; b++ {
		j := idxs[b]
		negf.BroadeningInto(gamL, sigLs[b])
		gamR := gamRP.Block(b)
		negf.BroadeningInto(gamR, sigRs[b])
		wL, err := injectionVectors(gamL)
		if err != nil {
			errs[j] = fmt.Errorf("wavefunction: left injection: %w", err)
			continue
		}
		var wR *linalg.Matrix
		width := wL.Cols
		if density {
			wR, err = injectionVectors(gamR)
			if err != nil {
				errs[j] = fmt.Errorf("wavefunction: right injection: %w", err)
				continue
			}
			width += wR.Cols
		}
		if width == 0 {
			// No open or evanescent channels at this energy: everything is 0.
			res := &negf.Result{E: es[j]}
			res.DOS = make([]float64, s.H.N())
			res.SpectralL = make([]float64, s.H.N())
			res.SpectralR = make([]float64, s.H.N())
			results[j] = res
			continue
		}
		rhs := make([]*linalg.Matrix, nl)
		for i := 0; i < nl; i++ {
			rhs[i] = ws.Get(s.H.LayerSize(i), width)
		}
		for k := 0; k < n0; k++ {
			for jj := 0; jj < wL.Cols; jj++ {
				rhs[0].Set(k, jj, wL.At(k, jj))
			}
		}
		if density {
			for k := 0; k < nN; k++ {
				for jj := 0; jj < wR.Cols; jj++ {
					rhs[nl-1].Set(k, wL.Cols+jj, wR.At(k, jj))
				}
			}
		}
		solveAs = append(solveAs, as[b])
		solveIdxs = append(solveIdxs, j)
		gamRs = append(gamRs, gamR)
		wLs = append(wLs, wL)
		wRs = append(wRs, wR)
		rhss = append(rhss, rhs)
	}
	ws.Put(gamL)
	if len(solveIdxs) == 0 {
		return results, errs
	}
	if err := ctx.Err(); err != nil {
		for _, j := range solveIdxs {
			errs[j] = err
		}
		return results, errs
	}

	// Batched open-boundary solve over the survivors.
	stop := perf.StartPhase("wf-solve")
	xs, serrs := sparse.SolveBlocksBatchWS(solveAs, rhss, ws)
	stop()

	// Per-element contraction and density assembly, identical to SolveCtx.
	off := s.H.Offsets()
	for b, j := range solveIdxs {
		if serrs[b] != nil {
			errs[j] = fmt.Errorf("wavefunction: open-boundary solve: %w", serrs[b])
			continue
		}
		x := xs[b]
		wL, wR, gamR := wLs[b], wRs[b], gamRs[b]
		width := wL.Cols
		if density {
			width += wR.Cols
		}
		res := &negf.Result{E: es[j]}
		gwL := ws.Get(nN, wL.Cols)
		for k := 0; k < nN; k++ {
			copy(gwL.Data[k*wL.Cols:(k+1)*wL.Cols], x[nl-1].Data[k*width:k*width+wL.Cols])
		}
		ggw := ws.Get(nN, wL.Cols)
		linalg.MulInto(ggw, gamR, linalg.NoTrans, gwL, linalg.NoTrans)
		res.T = real(linalg.TraceMulConj(ggw, gwL))
		ws.Put(ggw)
		ws.Put(gwL)
		if density {
			res.SpectralL = make([]float64, s.H.N())
			res.SpectralR = make([]float64, s.H.N())
			res.DOS = make([]float64, s.H.N())
			for i := 0; i < nl; i++ {
				ni := s.H.LayerSize(i)
				for k := 0; k < ni; k++ {
					var sl, sr float64
					for jj := 0; jj < wL.Cols; jj++ {
						v := x[i].At(k, jj)
						sl += real(v)*real(v) + imag(v)*imag(v)
					}
					for jj := 0; jj < wR.Cols; jj++ {
						v := x[i].At(k, wL.Cols+jj)
						sr += real(v)*real(v) + imag(v)*imag(v)
					}
					res.SpectralL[off[i]+k] = sl
					res.SpectralR[off[i]+k] = sr
					res.DOS[off[i]+k] = (sl + sr) / (2 * math.Pi)
				}
			}
		}
		results[j] = res
	}
	return results, errs
}

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
