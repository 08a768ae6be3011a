package cluster

import (
	"context"

	"repro/internal/linalg"
)

// Group is a lane group: up to linalg.Lanes consecutive pending tasks of
// one (bias, k) row, the unit both engines hand a pool worker. The worker
// runs the group's tasks in index order on its own goroutine, each as its
// own task — its own Attempt, injector trip, journal record or upload, and
// Meter delta — and passes the group to them through their ctx
// (GroupFrom), so a task function can compute what the group's tasks
// share once, for all of them (Lanes): a transmission plan or an I-V's
// energy pass solves the group's energies in lockstep, one kernel lane per
// energy. What the group holds goes with it when the worker is
// done with it. A group is used by one goroutine at a time.
type Group struct {
	// Index holds the flat task indices, ascending and consecutive.
	Index []int

	nK, nE int
	filled bool
	lanes  any
}

// Lane returns t's position in the group, or -1 where g is nil or does not
// hold t.
func (g *Group) Lane(t Task) int {
	if g == nil {
		return -1
	}
	if i := (t.Bias*g.nK+t.K)*g.nE + t.E - g.Index[0]; i >= 0 && i < len(g.Index) {
		return i
	}
	return -1
}

// Lanes returns what fill made of the group's tasks — the first of them
// and their count n, the rest following it by one energy each — calling
// fill until a call returns.
func (g *Group) Lanes(fill func(first Task, n int) any) any {
	if !g.filled {
		g.lanes, g.filled = fill(TaskAt(g.Index[0], g.nK, g.nE), len(g.Index)), true
	}
	return g.lanes
}

// Groups cuts the flat task indices idx of an nK × nE-per-bias grid into
// lane groups, in order: each group is a run of up to linalg.Lanes indices
// that follow each other by one within one (bias, k) row. A gap — a task
// already done, or not in idx — ends a group, so no group skips a task or
// straddles a row.
func Groups(idx []int, nK, nE int) []Group {
	var out []Group
	for i := 0; i < len(idx); {
		j := i + 1
		for j < len(idx) && j-i < linalg.Lanes && idx[j] == idx[j-1]+1 && idx[j]/nE == idx[i]/nE {
			j++
		}
		if out == nil {
			out = make([]Group, 0, (len(idx)+linalg.Lanes-1)/linalg.Lanes)
		}
		out = append(out, Group{Index: idx[i:j:j], nK: nK, nE: nE})
		i = j
	}
	return out
}

// Run runs task for the group's indices in order, on the calling
// goroutine, with the group in their ctx (GroupFrom), and stops at the
// first error: it returns that error and the index that returned it.
func (g *Group) Run(ctx context.Context, task func(ctx context.Context, idx int) error) (failed int, err error) {
	ctx = context.WithValue(ctx, groupKey{}, g)
	for _, idx := range g.Index {
		if err := task(ctx, idx); err != nil {
			return idx, err
		}
	}
	return -1, nil
}

type groupKey struct{}

// GroupFrom returns the lane group ctx carries, or nil.
func GroupFrom(ctx context.Context) *Group {
	g, _ := ctx.Value(groupKey{}).(*Group)
	return g
}
