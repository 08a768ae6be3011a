// Package cluster is the sweep-engine core and the durable sweep log of
// the multi-level sweep — and nothing else.
//
// The core is what both engines mean by a sweep: Task/TaskAt (the
// nBias × nK × nE grid and its flat layout), Attempt (one task under
// retry and fault injection), QuarantineBudget (how many tasks may be
// given up on), Seed (what a journal already covers: the first record
// per task wins) and Contents/Read/ReadJournal (a journal parsed in one
// pass, read-only). RunTasksResumable, the local engine, adds a
// sched.Pool loop and the journal append around them; the distributed
// engine (internal/distrib) adds leases and a wire between the attempt,
// which runs on a worker, and the commit, which runs on the coordinator.
//
// The log is the append-only journal a sweep commits its results to:
// self-verifying TaskRecords behind the Checkpointer interface, the
// on-disk FileJournal (OpenFileJournal, WithFsync — for code that
// appends) with its header and epoch records, and Tail/NewTail, the
// follower the job service streams from. DESIGN.md §7, "Sweep log",
// has the format and the reader rules.
package cluster

// Task identifies one independent work item of the multi-level sweep.
type Task struct {
	// Bias, K, E index the bias point, transverse momentum point, and
	// energy point.
	Bias, K, E int
}

// TaskAt maps a flat task index to sweep coordinates — the inverse of the
// bias·nK·nE + k·nE + E layout both engines iterate in. The distributed
// engine (internal/distrib), which ships flat indices over the wire,
// reconstructs with it the same coordinates the local runner uses.
func TaskAt(idx, nK, nE int) Task {
	return Task{Bias: idx / (nK * nE), K: (idx / nE) % nK, E: idx % nE}
}
