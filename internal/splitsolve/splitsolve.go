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
// Every factorization here — each domain's and the reduced system's — is
// the one block-Thomas kernel of the serial solve, sparse.BlockTridiag.
// SolveBlocks, on a workspace the solving goroutine checks out for itself
// (DESIGN.md §8); only the pieces that cross into another stage are
// copied to the heap.
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

	"repro/internal/linalg"
	"repro/internal/perf"
	"repro/internal/sched"
	"repro/internal/sparse"
)

// Solve solves A·X = B by spatial decomposition into domains (≥ 1, at
// most the layer count) contiguous sub-domains. rhs is given per layer
// (layer i block is LayerSize(i)×k); the solution is returned in the same
// layout, on the heap. With one domain it reduces to the serial
// block-Thomas solve. The domain stages fan out on pool, sharing its budget
// with the enclosing parallelism levels (energy points); nil creates a
// private GOMAXPROCS-sized one. a is only read, by every domain at once.
// Cancelling ctx aborts the parallel stages between domain solves.
func Solve(ctx context.Context, a *sparse.BlockTridiag, rhs []*linalg.Matrix, domains int, pool *sched.Pool) ([]*linalg.Matrix, error) {
	nl := a.Layers()
	p := domains
	if p < 1 {
		return nil, fmt.Errorf("splitsolve: need at least one domain, got %d", p)
	}
	if p > nl {
		return nil, fmt.Errorf("splitsolve: %d domains exceed %d layers", p, nl)
	}
	if len(rhs) != nl {
		return nil, fmt.Errorf("splitsolve: got %d RHS blocks for %d layers", len(rhs), nl)
	}
	if pool == nil {
		pool = sched.New(0)
	}

	// Partition layers into contiguous domains as evenly as possible.
	bounds := partition(nl, p)
	k := rhs[0].Cols

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
		ws := linalg.GetWorkspace()
		defer ws.Release()
		width := k + len(supV) + len(supW)
		stacked := make([]*linalg.Matrix, nLoc)
		for i := 0; i < nLoc; i++ {
			stacked[i] = ws.Get(a.LayerSize(lo+i), width)
			stacked[i].SetSubmatrix(0, 0, rhs[lo+i])
		}
		if d < p-1 {
			// Ê: U_{hi-1} on its supported columns, in the last local
			// layer-row.
			c := a.Coupling(hi - 1)
			e := ws.Get(a.LayerSize(hi-1), len(c.Cols))
			sparse.ScatterRows(e, c.U, c.Rows)
			stacked[nLoc-1].SetSubmatrix(0, k, e)
		}
		if d > 0 {
			// F̂: L_{lo-1} on its supported columns, in the first local
			// layer-row.
			c := a.Coupling(lo - 1)
			f := ws.Get(a.LayerSize(lo), len(c.Rows))
			sparse.ScatterRows(f, c.L, c.Cols)
			stacked[0].SetSubmatrix(0, k+len(supV), f)
		}
		x, err := local.SolveBlocks(stacked, ws)
		if err != nil {
			return fmt.Errorf("splitsolve: domain %d: %w", d, err)
		}
		// g, v and w leave ws for the heap: stages 2 and 3 read them on
		// other goroutines.
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
	if p == 1 {
		return results[0].g, nil
	}

	// Stage 2 (serial critical path): reduced interface system. Unknowns:
	// for each domain, its first-layer block ξ_d^f and last-layer block
	// ξ_d^l. From X_d = G_d − V_d·ξ_{d+1}^f − W_d·ξ_{d-1}^l, taking the
	// first and last layer-rows closes the system. Grouping u_d = [ξ_d^f;
	// ξ_d^l] makes the reduced matrix block-tridiagonal over domains —
	// O(P·n³) like the paper's banded interface solver, not O((P·n)³) —
	// so it is solved with the same block-Thomas kernel. Single-layer
	// domains keep both slots with an explicit ξ_d^l = ξ_d^f constraint
	// row so every group has uniform size. The counted flops are the
	// kernel's own; the phase records wall time only.
	stop := perf.StartPhase("splitsolve-reduced")
	ws := linalg.GetWorkspace()
	defer ws.Release()
	redDiag := make([]*linalg.Matrix, p)
	redUpper := make([]*linalg.Matrix, p-1)
	redLower := make([]*linalg.Matrix, p-1)
	redRHS := make([]*linalg.Matrix, p)
	// first and last are the sizes of ξ_d^f and ξ_d^l.
	first := func(d int) int { return a.LayerSize(bounds[d]) }
	last := func(d int) int { return a.LayerSize(bounds[d+1] - 1) }
	for d := 0; d < p; d++ {
		nLoc := bounds[d+1] - bounds[d]
		r := results[d]
		nf, nlst := first(d), last(d)
		tot := nf + nlst
		diag := ws.Get(tot, tot)
		for i := 0; i < nf; i++ {
			diag.Set(i, i, 1)
		}
		b := ws.Get(tot, k)
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
			up := ws.Get(tot, first(d+1)+last(d+1))
			sparse.ScatterAdd(up, r.v[0], sparse.Range(0, nf), r.supV)
			if nLoc > 1 {
				sparse.ScatterAdd(up, r.v[nLoc-1], sparse.Range(nf, tot), r.supV)
			}
			redUpper[d] = up
		}
		if d > 0 {
			// Coupling of u_d's equations to ξ_{d-1}^l (second half of u_{d-1}).
			lowBlk := ws.Get(tot, first(d-1)+last(d-1))
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
	xiBlocks, err := reduced.SolveBlocks(redRHS, ws)
	if err != nil {
		return nil, fmt.Errorf("splitsolve: reduced interface system: %w", err)
	}
	// ξ_{d+1}^f[supV] and ξ_{d-1}^l[supW] per domain, gathered to the heap
	// for stage 3's goroutines.
	xiNext := make([]*linalg.Matrix, p)
	xiPrev := make([]*linalg.Matrix, p)
	for d, r := range results {
		if d < p-1 {
			xiNext[d] = linalg.New(len(r.supV), k)
			sparse.Gather(xiNext[d], xiBlocks[d+1], r.supV, sparse.Range(0, k))
		}
		if d > 0 {
			xiPrev[d] = linalg.New(len(r.supW), k)
			sparse.Gather(xiPrev[d], xiBlocks[d-1], r.supW, sparse.Range(0, k))
		}
	}
	stop()

	// Stage 3 (parallel): interior reconstruction,
	// X_d = G_d − V_d·ξ_{d+1}^f[supV] − W_d·ξ_{d-1}^l[supW].
	out := make([]*linalg.Matrix, nl)
	err = pool.ForEach(ctx, "splitsolve", p, func(_ context.Context, d int) error {
		lo, hi := bounds[d], bounds[d+1]
		r := results[d]
		for i := lo; i < hi; i++ {
			// x = g − V·ξ_next − W·ξ_prev, accumulated in place through the
			// fused GEMM so no product is materialized.
			x := r.g[i-lo]
			if xiNext[d] != nil {
				linalg.GemmInto(x, -1, r.v[i-lo], linalg.NoTrans, xiNext[d], linalg.NoTrans, 1)
			}
			if xiPrev[d] != nil {
				linalg.GemmInto(x, -1, r.w[i-lo], linalg.NoTrans, xiPrev[d], linalg.NoTrans, 1)
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

// Flops returns each domain's and the reduced system's flops of one Solve
// over p domains at width k, with sparse.BlockThomasFlops' sizes, rows and
// cols, for spikes nonzero on every row of a domain's end layers.
func Flops(sizes, rows, cols []int, k, p int) (domains []int64, reduced int64) {
	bounds := partition(len(sizes), p)
	domains = make([]int64, p)
	// Reduced group d, [ξ_d^f; ξ_d^l], is filled by spikes (a single-layer
	// domain's: ξ_d^f, and ξ_d^l coupled where domain d+1's spike meets it).
	group, filled, coupled := make([]int, p), make([]int, p), make([]int, p-1)
	for d := range domains {
		lo, hi := bounds[d], bounds[d+1]
		group[d], filled[d] = sizes[lo]+sizes[hi-1], sizes[lo]
		if hi-lo > 1 {
			filled[d] = group[d]
		}
		var spikes int // |supV| + |supW|
		if d > 0 {
			spikes += rows[lo-1]
		}
		if d < p-1 {
			spikes += cols[hi-1]
			coupled[d] = min(group[d], filled[d]+rows[hi-1])
		}
		domains[d] = sparse.BlockThomasFlops(sizes[lo:hi], rows[lo:hi-1], cols[lo:hi-1], nil, k+spikes)
		for _, n := range sizes[lo:hi] {
			domains[d] += perf.GemmFlops(n, spikes, k) // stage 3
		}
		reduced += int64(filled[d]*spikes) * perf.FlopsCAdd // its assembly
	}
	if p == 1 {
		return domains, 0
	}
	return domains, reduced + sparse.BlockThomasFlops(group, coupled, filled[1:], nil, k)
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
