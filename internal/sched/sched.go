// Package sched is the shared bounded-parallelism execution layer of the
// simulator. Every concurrent site — the bias sweep of core.FET, the
// momentum fan-out of core.Simulator, the energy grids of
// transport.Engine, and the spatial-domain stages of splitsolve — runs on
// a sched.Pool instead of an ad-hoc goroutine-per-item loop, which gives
// all of them uniformly:
//
//   - a hard bound on live goroutines: work is pulled from a shared index
//     counter by at most Workers goroutines, never spawned per item;
//   - deterministic output ordering (results land in their input slots);
//   - first-error short-circuit: one failing task cancels its in-flight
//     siblings through context.Context and stops the scheduling of
//     remaining items;
//   - nested-pool accounting: a pool hands out Workers−1 helper tokens,
//     and a task that itself fans out (e.g. an energy point running a
//     SplitSolve domain decomposition) borrows from the same token budget,
//     falling back to running inline when the budget is exhausted — so
//     nesting levels share one worker budget instead of oversubscribing
//     multiplicatively;
//   - per-task instrumentation: wall time is attributed to a named phase
//     via internal/perf, mirroring the paper's per-level performance
//     accounting;
//   - fault containment: a panic in a task is recovered on the worker,
//     converted to a *resilience.PanicError with the captured stack, and
//     reported with ordinary task-error semantics (siblings canceled,
//     lowest failing index wins) instead of crashing the process.
//
// The nesting rule mirrors the paper's four-level parallel hierarchy
// (bias × momentum × energy × spatial domains): outer levels grab workers
// first and inner levels soak up whatever budget remains, which is exactly
// the work-conserving schedule the multi-level decomposition of the SC11
// simulator implements with MPI communicators.
package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/perf"
	"repro/internal/resilience"
)

// Pool is a bounded-parallelism executor. The zero value is not usable;
// construct with New. A Pool is safe for concurrent and nested use: all
// ForEach/Map calls on the same pool share one worker budget.
type Pool struct {
	workers int
	// tokens is the helper budget: capacity Workers−1, because the caller
	// of ForEach always contributes its own goroutine as the first worker.
	tokens chan struct{}

	// Hook, if set before the pool is used, observes every completed task.
	// It runs on the worker goroutine and must be cheap and thread-safe.
	Hook func(TaskEvent)
}

// TaskEvent describes one completed (or failed) task for the Hook.
type TaskEvent struct {
	// Phase is the name the ForEach/Map call ran under ("" if unnamed).
	Phase string
	// Index is the task's input index.
	Index int
	// Wall is the task's execution wall time.
	Wall time.Duration
	// Err is the task's error (nil on success).
	Err error
}

// New returns a pool bounding concurrent task execution to workers
// (0 or negative: runtime.GOMAXPROCS(0)).
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers, tokens: make(chan struct{}, workers-1)}
}

// Workers returns the pool's concurrency bound.
func (p *Pool) Workers() int { return p.workers }

// TaskError reports the failure of one task, preserving which input index
// failed so callers can reconstruct domain-specific messages (energy value,
// gate voltage, domain number). It unwraps to the task's own error.
type TaskError struct {
	// Phase is the phase name of the failing ForEach/Map call.
	Phase string
	// Index is the input index of the failing task — the first failing
	// index in input order among the tasks that ran.
	Index int
	// Err is the task's error.
	Err error
}

// Error implements error.
func (e *TaskError) Error() string {
	if e.Phase != "" {
		return fmt.Sprintf("sched: %s task %d: %v", e.Phase, e.Index, e.Err)
	}
	return fmt.Sprintf("sched: task %d: %v", e.Index, e.Err)
}

// Unwrap exposes the underlying task error to errors.Is/As.
func (e *TaskError) Unwrap() error { return e.Err }

// AsTaskError unwraps err to a *TaskError if one is in its chain.
func AsTaskError(err error) (*TaskError, bool) {
	var te *TaskError
	ok := errors.As(err, &te)
	return te, ok
}

// tracker keeps the best (lowest-index, preferring non-cancellation)
// error seen across workers.
type tracker struct {
	mu       sync.Mutex
	set      bool
	idx      int
	err      error
	canceled bool
}

func (t *tracker) record(i int, err error) {
	c := errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
	t.mu.Lock()
	defer t.mu.Unlock()
	switch {
	case !t.set:
	case t.canceled && !c:
	case t.canceled == c && i < t.idx:
	default:
		return
	}
	t.set, t.idx, t.err, t.canceled = true, i, err, c
}

func (t *tracker) get() (int, error, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.idx, t.err, t.set
}

// ForEach runs fn(ctx, i) for i in [0, n) on the pool, bounding live
// goroutines to the pool's worker budget and preserving the input indexing
// (fn must write only to its own output slot). The first task error cancels
// the context passed to in-flight siblings, stops the scheduling of
// remaining indices, and is returned as a *TaskError carrying the lowest
// failing index in input order among the tasks that ran. If ctx is
// canceled externally, ForEach drains and returns ctx.Err(). When phase is
// non-empty, every task's wall time is recorded under that phase name in
// internal/perf. A panicking task does not unwind ForEach: the panic is
// recovered into a *resilience.PanicError (panic value + captured stack)
// and handled as a task error.
//
// Nested calls — fn itself calling ForEach/Map on the same pool — are safe
// and share the worker budget: the inner call runs on the calling worker's
// goroutine plus however many helper tokens remain, degrading to an inline
// serial loop when the budget is exhausted. ForEach never blocks waiting
// for helpers, so nested use cannot deadlock.
func (p *Pool) ForEach(ctx context.Context, phase string, n int, fn func(context.Context, int) error) error {
	if n <= 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	ctx2, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next atomic.Int64
		done atomic.Int64
		tr   tracker
	)
	work := func() {
		for ctx2.Err() == nil {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			start := time.Now()
			// The panic boundary: a panicking task becomes an ordinary
			// *resilience.PanicError — carrying the panic value and the
			// worker's stack — so one bad energy point cancels its siblings
			// like any failing task instead of killing the process.
			err := resilience.Call(ctx2, func(ctx context.Context) error { return fn(ctx, i) })
			wall := time.Since(start)
			if phase != "" {
				perf.RecordPhase(phase, wall)
			}
			if p.Hook != nil {
				p.Hook(TaskEvent{Phase: phase, Index: i, Wall: wall, Err: err})
			}
			if err != nil {
				tr.record(i, err)
				cancel()
				return
			}
			done.Add(1)
		}
	}

	// Borrow helper workers from the shared budget without blocking: if
	// the budget is exhausted (an outer level holds the tokens), the loop
	// below degrades to a serial run on the calling goroutine.
	var wg sync.WaitGroup
	helpers := n - 1
	if max := p.workers - 1; helpers > max {
		helpers = max
	}
acquire:
	for h := 0; h < helpers; h++ {
		select {
		case p.tokens <- struct{}{}:
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-p.tokens }()
				work()
			}()
		default:
			break acquire
		}
	}
	work()
	wg.Wait()

	if done.Load() == int64(n) {
		return nil
	}
	if idx, err, ok := tr.get(); ok {
		if errors.Is(err, context.Canceled) && ctx.Err() != nil {
			// The task failed only because the parent context was
			// canceled; report the cancellation, not the task.
			return ctx.Err()
		}
		return &TaskError{Phase: phase, Index: idx, Err: err}
	}
	// No task error but not all tasks completed: the parent context was
	// canceled before scheduling finished.
	if err := ctx.Err(); err != nil {
		return err
	}
	return context.Canceled
}

// Map runs fn(ctx, i) for i in [0, n) on the pool and collects the results
// in input order. Error and cancellation semantics match Pool.ForEach; on
// any error the partial results are discarded and nil is returned.
func Map[T any](ctx context.Context, p *Pool, phase string, n int, fn func(context.Context, int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := p.ForEach(ctx, phase, n, func(ctx context.Context, i int) error {
		v, err := fn(ctx, i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
