package cluster

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/perf"
	"repro/internal/resilience"
	"repro/internal/sched"
)

// SweepFunc runs one (bias, k, E) task and returns its result serialized
// as an opaque payload. The payload is what the journal persists and what
// Restore receives on resume, so it must capture everything the caller
// needs to reconstruct the task's contribution to the observables —
// typically a few float64s (a transmission value, a charge column). It
// must be a deterministic function of the task for resumed sweeps to be
// bitwise-identical to uninterrupted ones.
type SweepFunc func(ctx context.Context, t Task) ([]byte, error)

// RestoreFunc reinstates a completed task's result from its journaled
// payload. It runs serially before the sweep starts.
type RestoreFunc func(t Task, payload []byte) error

// SweepOptions configures RunTasksResumable. The zero value is the plain
// sweep: no journal, no retries, no injection, fail on first error.
type SweepOptions struct {
	// Pool supplies the worker budget (nil: a private GOMAXPROCS pool).
	Pool *sched.Pool
	// Journal, when non-nil, records every completed task and is consulted
	// at startup to skip tasks a previous run already finished.
	Journal Checkpointer
	// Restore reinstates journaled results. Required when Journal is set
	// and the caller accumulates results outside the journal.
	Restore RestoreFunc
	// Retry is the per-task retry policy (zero value: single attempt).
	Retry resilience.Policy
	// Injector, when non-nil, deterministically perturbs tasks — the
	// reproducible failure-drill hook.
	Injector *resilience.Injector
	// Quarantine enables graceful degradation: a task that fails past its
	// retry budget (or permanently, e.g. a non-finite observable) is set
	// aside and the sweep continues; the quarantined set is reported so
	// the caller can renormalize its integrals over the surviving points.
	// At most QuarantineBudget tasks are set aside; one more fails the
	// run (a sweep that loses that much of its grid is not salvageable
	// by renormalization).
	Quarantine bool
	// OnProgress, when non-nil, observes completion: done counts both
	// restored and newly finished tasks. It must be cheap and
	// thread-safe; quarantined tasks count as done.
	OnProgress func(done, total int)
}

// SweepReport summarizes a resumable sweep.
type SweepReport struct {
	// Total is the task count of the full sweep.
	Total int
	// Restored tasks were skipped because the journal already held their
	// verified results.
	Restored int
	// Completed tasks ran (successfully) in this invocation.
	Completed int
	// Retries is the number of extra attempts spent beyond first tries.
	Retries int
	// Quarantined lists the tasks abandoned after exhausting retries,
	// sorted by flat index. Empty unless SweepOptions.Quarantine is set.
	Quarantined []Task
	// Perf is what the restored tasks cost the runs that journaled them
	// (Seed's sum): add it to this invocation's own perf delta for the
	// sweep's total.
	Perf perf.Snapshot
}

// QuarantinedSet returns the quarantined tasks keyed by flat index
// (bias·nK·nE + k·nE + E layout, see TaskAt).
func (r *SweepReport) QuarantinedSet(nK, nE int) map[int]bool {
	set := make(map[int]bool, len(r.Quarantined))
	for _, t := range r.Quarantined {
		set[(t.Bias*nK+t.K)*nE+t.E] = true
	}
	return set
}

// wrapTaskErr rewrites a sched.TaskError into sweep coordinates.
func wrapTaskErr(err error, nK, nE int) error {
	if te, ok := sched.AsTaskError(err); ok {
		t := TaskAt(te.Index, nK, nE)
		return fmt.Errorf("cluster: task %d (bias %d, k %d, E %d): %w",
			te.Index, t.Bias, t.K, t.E, te.Err)
	}
	return err
}

// Seed folds a journal's records into the done set of an
// nBias × nK × nE sweep — the one place that decides what a journal
// covers. The first record of each index in the grid wins and its
// payload is handed to restore (nil: none) in file order; later records
// of the same index are echoes of it (a task re-dispatched before its
// first result landed) and out-of-range indices belong to no task, so
// both are skipped. A restore error stops the fold and comes back naming
// the index. n counts the indices done, and sum re-adds their records'
// perf deltas — what the runs that wrote the journal spent on the tasks
// it covers (see Meter), so a resumed or replayed run reports the flop
// total of an uninterrupted one.
func Seed(recs []TaskRecord, nBias, nK, nE int, restore RestoreFunc) (done []bool, n int, sum perf.Snapshot, err error) {
	done = make([]bool, nBias*nK*nE)
	for _, rec := range recs {
		if rec.Index < 0 || rec.Index >= len(done) || done[rec.Index] {
			continue
		}
		if restore != nil {
			if err := restore(TaskAt(rec.Index, nK, nE), rec.Payload); err != nil {
				return done, n, sum, fmt.Errorf("task %d: %w", rec.Index, err)
			}
		}
		done[rec.Index] = true
		n++
		if rec.Perf != nil {
			sum.Add(*rec.Perf)
		}
	}
	return done, n, sum, nil
}

// Attempt runs one task to its verdict: under the retry policy, each
// attempt first trips the injector (the failure drill) and then runs fn.
// It returns the successful attempt's payload, the number of attempts
// spent beyond the first, and the policy's error when none succeeded.
// What happens to the verdict — journal append here, an upload over the
// wire in internal/distrib — is the caller's.
func Attempt(ctx context.Context, retry resilience.Policy, inj *resilience.Injector, idx int, t Task, fn SweepFunc) (payload []byte, retries int, err error) {
	attempts := 0
	err = retry.Do(ctx, func(actx context.Context) error {
		a := attempts
		attempts++
		if err := inj.Trip(idx, a); err != nil {
			return err
		}
		b, err := fn(actx, t)
		if err != nil {
			return err
		}
		payload = b
		return nil
	})
	if attempts > 1 {
		retries = attempts - 1
	}
	return payload, retries, err
}

// QuarantineBudget returns how many tasks of a sweep may be quarantined
// before the run fails: a quarter of total, at least one task. Without
// quarantine nothing is ever set aside, and the budget is the whole
// sweep.
func QuarantineBudget(quarantine bool, total int) int {
	if !quarantine {
		return total
	}
	return max(total/4, 1)
}

// RunTasksResumable is the local sweep engine: it executes fn for every
// task of the nBias × nK × nE grid on a scheduler pool, with
// checkpoint/restart, per-task retry with backoff, panic isolation,
// deterministic fault injection, and optional quarantine of unsalvageable
// points. Each task must write only to its own output slot. Without
// quarantine the first error (by task order) cancels the in-flight
// siblings through ctx and is returned after all running tasks have
// drained. Under a single-attempt Retry every task that started runs to
// its own verdict (resilience.Policy.Do), so the error is deterministic.
//
// Execution of one task: Attempt, then the journal append (the payload
// and the task's perf delta, see Meter); a panic
// anywhere inside an attempt is recovered into a *resilience.PanicError
// and retried like an ordinary transient error. On startup the journal
// is seeded (Seed): every verified record marks its task done and
// replays its payload through Restore, so a rerun after a crash performs
// only the unfinished work — and because payloads capture the results
// exactly, the resumed observables are bitwise-identical to an
// uninterrupted run.
//
// The returned report is valid (and meaningful) even when err != nil: it
// describes how far the sweep got.
func RunTasksResumable(ctx context.Context, nBias, nK, nE int, opts SweepOptions, fn SweepFunc) (*SweepReport, error) {
	if nBias < 1 || nK < 1 || nE < 1 {
		return nil, fmt.Errorf("cluster: task counts must be positive")
	}
	total := nBias * nK * nE
	rep := &SweepReport{Total: total}

	// A journaled task's record carries what it cost, like the
	// coordinator's; a sweep without a journal takes no snapshots.
	var recs []TaskRecord
	var meter *Meter
	if opts.Journal != nil {
		var err error
		if recs, err = opts.Journal.Load(); err != nil {
			return rep, fmt.Errorf("cluster: resume: %w", err)
		}
		meter = NewMeter(nil)
	}
	done, restored, sum, err := Seed(recs, nBias, nK, nE, opts.Restore)
	rep.Restored, rep.Perf = restored, sum
	if err != nil {
		return rep, fmt.Errorf("cluster: restore %w", err)
	}
	maxQuarantine := QuarantineBudget(opts.Quarantine, total)

	pool := opts.Pool
	if pool == nil {
		pool = sched.New(0)
	}
	var (
		progress    atomic.Int64
		retries     atomic.Int64
		completed   atomic.Int64
		mu          sync.Mutex // guards quarantined
		quarantined []int
	)
	progress.Store(int64(rep.Restored))

	step := func() {
		if opts.OnProgress != nil {
			opts.OnProgress(int(progress.Add(1)), total)
		} else {
			progress.Add(1)
		}
	}

	// run executes one task to its verdict and its journal append.
	run := func(ctx context.Context, idx int) error {
		payload, r, runErr := Attempt(ctx, opts.Retry, opts.Injector, idx, TaskAt(idx, nK, nE), fn)
		retries.Add(int64(r))
		if runErr == nil {
			if meter != nil {
				delta := meter.Delta()
				if err := opts.Journal.Append(TaskRecord{Index: idx, Payload: payload, Perf: &delta}); err != nil {
					return err
				}
			}
			completed.Add(1)
			step()
			return nil
		}
		if ctx.Err() != nil {
			return runErr
		}
		if opts.Quarantine {
			mu.Lock()
			over := len(quarantined) >= maxQuarantine
			if !over {
				quarantined = append(quarantined, idx)
			}
			mu.Unlock()
			if over {
				return fmt.Errorf("cluster: quarantine budget (%d tasks) exceeded: %w", maxQuarantine, runErr)
			}
			step()
			return nil
		}
		return runErr
	}
	pending := make([]int, 0, total-restored)
	for idx, d := range done {
		if !d {
			pending = append(pending, idx)
		}
	}
	// A pool job is a lane group (Group), its tasks run in index order; a
	// failing task ends its group and is named by its own index.
	groups := Groups(pending, nK, nE)
	err = pool.ForEach(ctx, "energy", len(groups), func(ctx context.Context, gi int) error {
		if idx, err := groups[gi].Run(ctx, run); err != nil {
			return &sched.TaskError{Phase: "energy", Index: idx, Err: err}
		}
		return nil
	})
	if te, ok := sched.AsTaskError(err); ok {
		err = te.Err // the group's: it wraps its failing task's
	}

	rep.Completed = int(completed.Load())
	rep.Retries = int(retries.Load())
	sort.Ints(quarantined)
	for _, idx := range quarantined {
		rep.Quarantined = append(rep.Quarantined, TaskAt(idx, nK, nE))
	}
	if err != nil {
		return rep, wrapTaskErr(err, nK, nE)
	}
	return rep, nil
}
