// Package cluster is the durable sweep log and the task runner of the
// multi-level sweep — and nothing else.
//
// The runner executes an nBias × nK × nE task grid on a scheduler pool
// (Task, TaskAt, RunTasks), and fault-tolerantly with per-task retries,
// fault injection, quarantine and checkpoint/restart
// (RunTasksResumable, SweepFunc, SweepOptions, SweepReport). The log is
// the append-only journal a sweep commits its results to: self-verifying
// TaskRecords behind the Checkpointer interface, the on-disk FileJournal
// (OpenFileJournal, WithFsync) with its header and epoch records, and
// Tail/NewTail, the incremental reader the job service streams from.
// The distributed engine (internal/distrib) and the run harness
// (internal/run) are built on exactly these names.
//
// The analytic model of the paper's machine — what this package was
// named after — lives in internal/machine; nothing here predicts
// anything.
package cluster

import (
	"context"
	"fmt"

	"repro/internal/sched"
)

// See resumable.go for the fault-tolerant variant (RunTasksResumable) with
// checkpoint/restart, retries, and quarantine.

// Task identifies one independent work item of the multi-level sweep.
type Task struct {
	// Bias, K, E index the bias point, transverse momentum point, and
	// energy point.
	Bias, K, E int
}

// TaskAt maps a flat task index to sweep coordinates — the inverse of the
// bias·nK·nE + k·nE + E layout RunTasks iterates in. Exported so the
// distributed engine (internal/distrib), which ships flat indices over
// the wire, reconstructs the same coordinates the local runner uses.
func TaskAt(idx, nK, nE int) Task { return taskAt(idx, nK, nE) }

// RunTasks executes fn for every (bias, k, E) task on the given worker
// pool — the real (shared-memory) counterpart of the distributed
// decomposition internal/machine models. Each task must write only to
// its own output slot. A nil pool runs on a private GOMAXPROCS-sized
// one. The first error (by task order, so failures are deterministic)
// cancels the in-flight siblings through ctx and is returned after all
// running tasks have drained.
func RunTasks(ctx context.Context, nBias, nK, nE int, pool *sched.Pool, fn func(context.Context, Task) error) error {
	if nBias < 1 || nK < 1 || nE < 1 {
		return fmt.Errorf("cluster: task counts must be positive")
	}
	if pool == nil {
		pool = sched.New(0)
	}
	total := nBias * nK * nE
	err := pool.ForEach(ctx, "sweep", total, func(ctx context.Context, idx int) error {
		return fn(ctx, taskAt(idx, nK, nE))
	})
	return wrapTaskErr(err, nK, nE)
}
