// Package server turns the batch engine into a simulation service: a
// job manager that runs submitted RunSpecs through the distributed
// coordinator on a bounded executor, an admission queue with priority
// classes and per-client quotas, and an HTTP/SSE front end (`cmd/omend`)
// for submit/poll/stream/cancel.
//
// The engine stays importable and ignorant of HTTP — the server
// composes it. Job identity is the spec's content hash: submitting a
// spec twice is by construction the same job, a completed job's journal
// is replayed instead of recomputed, and a drained or crashed job's
// journal is resumed by the next submission of the same spec. Every
// correctness property (byte-identical observables, exact flop totals,
// exactly-once journals under failover) is inherited from the engine;
// the server adds only scheduling and transport.
package server

import (
	"context"
	"sync"
	"time"

	"repro/internal/perf"
	"repro/internal/run"
	"repro/internal/spec"
)

// State is a job's lifecycle phase.
type State string

const (
	// StateQueued: admitted, waiting for an executor slot.
	StateQueued State = "queued"
	// StateRunning: executing on the distributed engine.
	StateRunning State = "running"
	// StateDone: every task accounted for; result available.
	StateDone State = "done"
	// StateFailed: the run ended with an error; the journal (if any
	// results committed) is kept, so a re-submission resumes.
	StateFailed State = "failed"
	// StateCanceled: canceled by the client mid-queue or mid-flight.
	StateCanceled State = "canceled"
	// StateDrained: a graceful server drain stopped the run; committed
	// results are journaled and a re-submission completes the remainder.
	StateDrained State = "drained"
)

// terminal reports whether a state is final.
func terminal(st State) bool {
	switch st {
	case StateDone, StateFailed, StateCanceled, StateDrained:
		return true
	}
	return false
}

// Job is one submitted spec moving through the service. All fields
// behind mu; readers take snapshots via view().
type Job struct {
	// Immutable after creation.
	ID        string // the spec's SpecHash — job identity IS content identity
	Spec      spec.RunSpec
	Client    string
	Class     int // priority class index (see queue.go)
	Summary   string
	Submitted time.Time

	mu       sync.Mutex
	state    State
	err      string
	started  time.Time
	finished time.Time
	done     int // completed+restored+quarantined tasks
	total    int
	restored int // tasks restored from the journal at start
	runID    string
	epoch    uint64
	out      run.Outcome // the harness's outcome; zero until finish

	cancel    context.CancelFunc
	drain     chan struct{}
	drainOnce sync.Once
	// change is closed and replaced on every observable transition —
	// streams wait on it instead of polling hot.
	change chan struct{}
}

func newJob(id string, s spec.RunSpec, client string, class int, now time.Time) *Job {
	nBias, nK, nE := s.Dims()
	return &Job{
		ID: id, Spec: s, Client: client, Class: class,
		Summary: s.Summary(), Submitted: now,
		state:  StateQueued,
		total:  nBias * nK * nE,
		change: make(chan struct{}),
	}
}

// ping wakes every waiter of changed(). Callers hold mu.
func (j *Job) pingLocked() {
	close(j.change)
	j.change = make(chan struct{})
}

// ping wakes waiters without changing state (used by the per-result
// commit hook to make streams tail the journal promptly).
func (j *Job) ping() {
	j.mu.Lock()
	j.pingLocked()
	j.mu.Unlock()
}

// changed returns a channel closed at the next observable transition.
func (j *Job) changed() <-chan struct{} {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.change
}

// begin moves the job to running and arms its cancel/drain controls.
func (j *Job) begin(cancel context.CancelFunc, now time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = StateRunning
	j.started = now
	j.cancel = cancel
	j.drain = make(chan struct{})
	j.pingLocked()
}

// requestDrain asks a running job to drain gracefully (idempotent).
func (j *Job) requestDrain() {
	j.mu.Lock()
	drain := j.drain
	j.mu.Unlock()
	if drain == nil {
		return
	}
	j.drainOnce.Do(func() { close(drain) })
}

// setIdentity records the journal-derived run identity.
func (j *Job) setIdentity(runID string, epoch uint64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.runID = runID
	j.epoch = epoch
}

// setProgress is the run harness's OnProgress observer.
func (j *Job) setProgress(done, total int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.done, j.total = done, total
	j.pingLocked()
}

// finish lands the job in a terminal state with the harness's outcome
// (its sweep is nil for failed/canceled/drained ends).
func (j *Job) finish(st State, errMsg string, out *run.Outcome, now time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = st
	j.err = errMsg
	j.finished = now
	j.out = *out
	if rep := out.Report; rep != nil {
		j.restored = rep.Restored
		j.done = rep.Restored + rep.Completed + len(rep.Quarantined)
		j.total = rep.Total
	}
	j.cancel = nil
	j.pingLocked()
}

// markCanceledIfQueued flips a queued job to canceled; returns whether it
// did. Running jobs are canceled through their context instead.
func (j *Job) markCanceledIfQueued(now time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateCanceled
	j.finished = now
	j.pingLocked()
	return true
}

// snapshot-style accessors used by the manager and handlers.

func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Result returns the harness's outcome of a finished job — sweep, perf
// delta, cluster accounting; ok is false until the job is done.
func (j *Job) Result() (out run.Outcome, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.out, j.state == StateDone && j.out.Sweep != nil
}

// JobView is the JSON shape of a job in every API response.
type JobView struct {
	ID           string     `json:"id"`
	State        State      `json:"state"`
	Summary      string     `json:"summary"`
	Client       string     `json:"client,omitempty"`
	Priority     string     `json:"priority"`
	Submitted    time.Time  `json:"submitted"`
	Started      *time.Time `json:"started,omitempty"`
	Finished     *time.Time `json:"finished,omitempty"`
	Done         int        `json:"done"`
	Total        int        `json:"total"`
	Restored     int        `json:"restored,omitempty"`
	Replayed     bool       `json:"replayed,omitempty"`
	RunID        string     `json:"runID,omitempty"`
	Epoch        uint64     `json:"epoch,omitempty"`
	Workers      int        `json:"workers,omitempty"`
	Redispatched int        `json:"redispatched"`
	Flops        int64      `json:"flops"`
	Error        string     `json:"error,omitempty"`
	// Perf carries the full counter snapshot on detail views only.
	Perf *perf.Snapshot `json:"perf,omitempty"`
}

// view snapshots the job for an API response; detail adds the full perf
// counters.
func (j *Job) view(detail bool) JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID: j.ID, State: j.state, Summary: j.Summary,
		Client: j.Client, Priority: className(j.Class),
		Submitted: j.Submitted,
		Done:      j.done, Total: j.total,
		Restored: j.restored, Replayed: j.out.Replayed,
		RunID: j.runID, Epoch: j.epoch,
		Workers: j.out.Workers, Redispatched: j.out.Redispatched,
		Flops: j.out.Perf.Flops, Error: j.err,
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	if detail {
		p := j.out.Perf
		v.Perf = &p
	}
	return v
}
