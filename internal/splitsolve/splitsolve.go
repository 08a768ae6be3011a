// Package splitsolve implements the paper's parallel sparse direct solver
// for nearest-neighbor tight-binding problems (Luisier et al. 2008; the
// "SplitSolve" spatial parallelism level of the SC11 simulator).
//
// The block-tridiagonal open-boundary system A·X = B over L principal
// layers is split into P contiguous sub-domains. Each domain concurrently
// factorizes its local block-tridiagonal matrix and solves it against its
// local right-hand side and against the two coupling "spikes" that connect
// it to its neighbors. The interface unknowns — the first and last layer
// of every domain — then satisfy a small reduced Schur-complement system,
// which is solved serially; a final embarrassingly parallel correction
// reconstructs the interior unknowns. The result is algebraically
// identical to a global direct solve, at 1/P of the critical-path
// factorization work plus the reduced-system overhead — exactly the
// trade-off the paper's strong-scaling curves exercise.
//
// A structural property of nearest-neighbor tight-binding keeps the
// overhead small: the inter-layer coupling blocks are low-rank (only the
// boundary atomic planes of adjacent layers touch), so the spike solves
// run against just the nonzero coupling columns rather than full layer
// blocks.
package splitsolve

import (
	"context"
	"fmt"
	"time"

	"repro/internal/linalg"
	"repro/internal/perf"
	"repro/internal/sched"
	"repro/internal/sparse"
)

// Options configures a split solve.
type Options struct {
	// Domains is the number of spatial sub-domains P (≥ 1). Values larger
	// than the layer count are rejected.
	Domains int
	// Workers bounds the number of concurrent domain solves; 0 means
	// runtime.GOMAXPROCS(0). Ignored when Pool is set.
	Workers int
	// Pool optionally provides the worker pool the domain stages run on,
	// sharing its budget with the enclosing parallelism levels (energy
	// points). Nil creates a private pool of Workers.
	Pool *sched.Pool
}

// Solve solves A·X = B by spatial domain decomposition. rhs is given per
// layer (layer i block is LayerSize(i)×k); the solution is returned in the
// same layout. With Domains == 1 it reduces to the serial block-Thomas
// solve. Cancelling ctx aborts the parallel stages between domain solves.
func Solve(ctx context.Context, a *sparse.BlockTridiag, rhs []*linalg.Matrix, opt Options) ([]*linalg.Matrix, error) {
	nl := a.Layers()
	p := opt.Domains
	if p < 1 {
		return nil, fmt.Errorf("splitsolve: need at least one domain, got %d", p)
	}
	if p > nl {
		return nil, fmt.Errorf("splitsolve: %d domains exceed %d layers", p, nl)
	}
	if len(rhs) != nl {
		return nil, fmt.Errorf("splitsolve: got %d RHS blocks for %d layers", len(rhs), nl)
	}
	if p == 1 {
		return a.SolveBlocks(rhs)
	}
	pool := opt.Pool
	if pool == nil {
		pool = sched.New(opt.Workers)
	}

	// Partition layers into contiguous domains as evenly as possible.
	bounds := partition(nl, p)

	type domainResult struct {
		g []*linalg.Matrix // A_p⁻¹·B_p
		// v and w are the right/left spikes restricted to the column
		// supports of the couplings: v[i] is (A_p⁻¹·Ê_p)[layer i][:, supV].
		// supV and supW index the neighbour's interface group [ξ^f; ξ^l] of
		// the reduced system — supW already past the group's first half.
		v, w       []*linalg.Matrix
		supV, supW []int
	}
	results := make([]domainResult, p)

	// Stage 1 (parallel): local factorizations and spike solves, fanned
	// out on the shared pool so the spatial level borrows workers from —
	// rather than multiplies with — the enclosing energy level.
	err := pool.ForEach(ctx, "splitsolve", p, func(_ context.Context, d int) error {
		lo, hi := bounds[d], bounds[d+1] // layers [lo, hi)
		local := a.Window(lo, hi)
		nLoc := hi - lo
		k := rhs[0].Cols
		var supV, supW []int
		if d < p-1 {
			supV = a.Coupling(hi - 1).Cols
		}
		if d > 0 {
			// ξ_{d-1}^l sits after ξ_{d-1}^f in its group.
			for _, row := range a.Coupling(lo - 1).Rows {
				supW = append(supW, a.LayerSize(bounds[d-1])+row)
			}
		}
		width := k + len(supV) + len(supW)
		stacked := make([]*linalg.Matrix, nLoc)
		for i := 0; i < nLoc; i++ {
			stacked[i] = linalg.New(a.LayerSize(lo+i), width)
			stacked[i].SetSubmatrix(0, 0, rhs[lo+i])
		}
		if d < p-1 {
			// Ê: the supported columns of U_{hi-1} in the last local
			// layer-row.
			u := a.Upper[hi-1]
			for j, col := range supV {
				for i := 0; i < u.Rows; i++ {
					stacked[nLoc-1].Set(i, k+j, u.At(i, col))
				}
			}
		}
		if d > 0 {
			// F̂: the supported columns of L_{lo-1} in the first local
			// layer-row.
			l := a.Lower[lo-1]
			for j, col := range a.Coupling(lo - 1).Rows {
				for i := 0; i < l.Rows; i++ {
					stacked[0].Set(i, k+len(supV)+j, l.At(i, col))
				}
			}
		}
		x, err := local.SolveBlocks(stacked)
		if err != nil {
			return fmt.Errorf("splitsolve: domain %d: %w", d, err)
		}
		res := domainResult{
			g:    make([]*linalg.Matrix, nLoc),
			v:    make([]*linalg.Matrix, nLoc),
			w:    make([]*linalg.Matrix, nLoc),
			supV: supV,
			supW: supW,
		}
		for i := 0; i < nLoc; i++ {
			ni := a.LayerSize(lo + i)
			res.g[i] = x[i].Submatrix(0, 0, ni, k)
			if d < p-1 {
				res.v[i] = x[i].Submatrix(0, k, ni, len(supV))
			}
			if d > 0 {
				res.w[i] = x[i].Submatrix(0, k+len(supV), ni, len(supW))
			}
		}
		results[d] = res
		return nil
	})
	if err != nil {
		return nil, unwrapTask(err)
	}

	// Stage 2 (serial critical path): reduced interface system. Unknowns:
	// for each domain, its first-layer block ξ_d^f and last-layer block
	// ξ_d^l. From X_d = G_d − V_d·ξ_{d+1}^f − W_d·ξ_{d-1}^l, taking the
	// first and last layer-rows closes the system. Grouping u_d = [ξ_d^f;
	// ξ_d^l] makes the reduced matrix block-tridiagonal over domains —
	// O(P·n³) like the paper's banded interface solver, not O((P·n)³) —
	// so it is solved with the same block-Thomas kernel. Single-layer
	// domains keep both slots with an explicit ξ_d^l = ξ_d^f constraint
	// row so every group has uniform size.
	redStart := time.Now()
	k := rhs[0].Cols
	redDiag := make([]*linalg.Matrix, p)
	redUpper := make([]*linalg.Matrix, p-1)
	redLower := make([]*linalg.Matrix, p-1)
	redRHS := make([]*linalg.Matrix, p)
	sizeF := make([]int, p) // first-layer block size per domain
	sizeL := make([]int, p) // last-layer block size per domain
	for d := 0; d < p; d++ {
		lo, hi := bounds[d], bounds[d+1]
		sizeF[d] = a.LayerSize(lo)
		sizeL[d] = a.LayerSize(hi - 1)
	}
	for d := 0; d < p; d++ {
		nLoc := bounds[d+1] - bounds[d]
		r := results[d]
		nf, nlst := sizeF[d], sizeL[d]
		tot := nf + nlst
		diag := linalg.New(tot, tot)
		for i := 0; i < nf; i++ {
			diag.Set(i, i, 1)
		}
		b := linalg.New(tot, k)
		b.SetSubmatrix(0, 0, r.g[0])
		if nLoc == 1 {
			// Constraint rows: ξ_d^l − ξ_d^f = 0.
			for i := 0; i < nlst; i++ {
				diag.Set(nf+i, nf+i, 1)
				diag.Set(nf+i, i, -1)
			}
		} else {
			for i := 0; i < nlst; i++ {
				diag.Set(nf+i, nf+i, 1)
			}
			b.SetSubmatrix(nf, 0, r.g[nLoc-1])
		}
		redDiag[d] = diag
		redRHS[d] = b
		if d < p-1 {
			// Coupling of u_d's equations to ξ_{d+1}^f (first half of u_{d+1}).
			up := linalg.New(tot, sizeF[d+1]+sizeL[d+1])
			sparse.ScatterAdd(up, r.v[0], sparse.Range(0, nf), r.supV)
			if nLoc > 1 {
				sparse.ScatterAdd(up, r.v[nLoc-1], sparse.Range(nf, tot), r.supV)
			}
			redUpper[d] = up
		}
		if d > 0 {
			// Coupling of u_d's equations to ξ_{d-1}^l (second half of u_{d-1}).
			lowBlk := linalg.New(tot, sizeF[d-1]+sizeL[d-1])
			sparse.ScatterAdd(lowBlk, r.w[0], sparse.Range(0, nf), r.supW)
			if nLoc > 1 {
				sparse.ScatterAdd(lowBlk, r.w[nLoc-1], sparse.Range(nf, tot), r.supW)
			}
			redLower[d-1] = lowBlk
		}
	}
	reduced, err := sparse.NewBlockTridiag(redDiag, redUpper, redLower)
	if err != nil {
		return nil, fmt.Errorf("splitsolve: reduced interface assembly: %w", err)
	}
	xiBlocks, err := reduced.SolveBlocks(redRHS)
	if err != nil {
		return nil, fmt.Errorf("splitsolve: reduced interface system: %w", err)
	}
	// Attribute the serial critical path to its own phase, with the flop
	// count of the reduced block-Thomas solve from the repo's standard
	// cost formulas (one LU, coupled triangular solves, and the two
	// coupling products per domain group).
	var redFlops int64
	for d := 0; d < p; d++ {
		tot := sizeF[d] + sizeL[d]
		redFlops += perf.LUFlops(tot) + perf.SolveFlops(tot, tot+k) +
			2*perf.GemmFlops(tot, tot, tot)
	}
	perf.RecordPhase("splitsolve-reduced", time.Since(redStart), redFlops)

	// Stage 3 (parallel): interior reconstruction,
	// X_d = G_d − V_d·ξ_{d+1}^f[supV] − W_d·ξ_{d-1}^l[supW].
	out := make([]*linalg.Matrix, nl)
	err = pool.ForEach(ctx, "splitsolve", p, func(_ context.Context, d int) error {
		lo, hi := bounds[d], bounds[d+1]
		r := results[d]
		var xiNext, xiPrev *linalg.Matrix
		if d < p-1 {
			xiNext = linalg.New(len(r.supV), k)
			sparse.Gather(xiNext, xiBlocks[d+1], r.supV, sparse.Range(0, k))
		}
		if d > 0 {
			xiPrev = linalg.New(len(r.supW), k)
			sparse.Gather(xiPrev, xiBlocks[d-1], r.supW, sparse.Range(0, k))
		}
		for i := lo; i < hi; i++ {
			// x = g − V·ξ_next − W·ξ_prev, accumulated in place through the
			// fused GEMM so no product is materialized.
			x := r.g[i-lo].Clone()
			if xiNext != nil {
				linalg.GemmInto(x, -1, r.v[i-lo], linalg.NoTrans, xiNext, linalg.NoTrans, 1)
			}
			if xiPrev != nil {
				linalg.GemmInto(x, -1, r.w[i-lo], linalg.NoTrans, xiPrev, linalg.NoTrans, 1)
			}
			out[i] = x
		}
		return nil
	})
	if err != nil {
		return nil, unwrapTask(err)
	}
	return out, nil
}

// unwrapTask strips the sched.TaskError wrapper: the domain errors built
// inside the stages already carry their domain number.
func unwrapTask(err error) error {
	if te, ok := sched.AsTaskError(err); ok {
		return te.Err
	}
	return err
}

// Strategy returns a solve function with the given decomposition baked in,
// suitable for plugging into the wave-function solver. The pool (nil: a
// private GOMAXPROCS-sized one) bounds the domain fan-out; passing the
// enclosing energy-level pool makes the two levels share one worker
// budget.
func Strategy(domains int, pool *sched.Pool) func(context.Context, *sparse.BlockTridiag, []*linalg.Matrix) ([]*linalg.Matrix, error) {
	return func(ctx context.Context, a *sparse.BlockTridiag, rhs []*linalg.Matrix) ([]*linalg.Matrix, error) {
		return Solve(ctx, a, rhs, Options{Domains: domains, Pool: pool})
	}
}

// InterfaceRank returns the largest coupling-column count between
// adjacent layers of a — the effective spike width of a split solve, used
// to parameterize the performance model (machine.Workload.CouplingRank).
func InterfaceRank(a *sparse.BlockTridiag) int {
	r := 0
	for i := range a.Upper {
		r = max(r, len(a.Coupling(i).Cols), len(a.Coupling(i).Rows))
	}
	return r
}

// partition splits n layers into p contiguous chunks whose sizes differ by
// at most one, returning p+1 boundary indices.
func partition(n, p int) []int {
	bounds := make([]int, p+1)
	base, rem := n/p, n%p
	for d := 0; d < p; d++ {
		sz := base
		if d < rem {
			sz++
		}
		bounds[d+1] = bounds[d] + sz
	}
	return bounds
}
