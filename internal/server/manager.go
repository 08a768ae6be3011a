package server

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/distrib"
	"repro/internal/perf"
	"repro/internal/run"
	"repro/internal/spec"
)

// Admission errors, mapped to HTTP statuses by the handlers.
var (
	// ErrSaturated: the queue is full. 429 with Retry-After.
	ErrSaturated = errors.New("server: queue full")
	// ErrQuota: the client has too many live jobs. 429.
	ErrQuota = errors.New("server: client quota exceeded")
	// ErrDraining: the server is shutting down. 503.
	ErrDraining = errors.New("server: draining, not accepting jobs")
	// ErrClosed: the manager has been shut down.
	ErrClosed = errors.New("server: closed")
)

// SpawnFunc launches one worker process (or goroutine) that dials addr
// and serves the given worker-variant spec until dismissed — the run
// harness's spawn function. cmd/omend passes run.ReExec.
type SpawnFunc = run.SpawnFunc

// InProcessSpawner returns a SpawnFunc that runs workers as goroutines
// of this process — test and single-binary deployments. Production
// daemons re-exec themselves instead (process isolation: a crashing
// worker loses a lease, not the service).
func InProcessSpawner() SpawnFunc {
	return func(ctx context.Context, addr string, ws spec.RunSpec) error {
		return run.Work(ctx, ws, addr)
	}
}

// Config sizes the manager.
type Config struct {
	// DataDir holds one journal per job, named <spechash>.journal. The
	// directory is the service's durable state: restarting the daemon
	// over the same directory makes every finished job replayable and
	// every interrupted one resumable.
	DataDir string
	// MaxRunning bounds concurrently executing jobs (default 2). Zero
	// is normalized to the default; negative means "no executors" —
	// jobs queue but never start (used by admission tests).
	MaxRunning int
	// MaxQueued bounds the admission queue (default 16). Beyond it,
	// submissions get ErrSaturated.
	MaxQueued int
	// ClientQuota bounds one client's live (queued+running) jobs
	// (default 4; negative = unlimited).
	ClientQuota int
	// DefaultWorkers is the worker count for jobs whose spec leaves
	// Exec.Workers at 0 (default 2).
	DefaultWorkers int
	// SpawnWorker launches the job's workers. Required to run jobs.
	SpawnWorker SpawnFunc
	// Logf receives operational log lines (default: discard).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.MaxRunning == 0 {
		c.MaxRunning = 2
	}
	if c.MaxRunning < 0 {
		c.MaxRunning = 0
	}
	if c.MaxQueued == 0 {
		c.MaxQueued = 16
	}
	if c.ClientQuota == 0 {
		c.ClientQuota = 4
	}
	if c.DefaultWorkers == 0 {
		c.DefaultWorkers = 2
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Manager owns the job table, the admission queue, and the executor
// pool. One Manager per daemon.
type Manager struct {
	cfg   Config
	store *Store
	start time.Time

	mu       sync.Mutex
	cond     *sync.Cond
	jobs     map[string]*Job // every job this process has seen, by ID
	queue    jobQueue
	running  int
	draining bool
	closed   bool
	// aggregate accumulates the perf of every job finished by this
	// process — the /metrics counters.
	aggregate perf.Snapshot

	executors sync.WaitGroup
}

// NewManager builds a manager over dataDir and starts its executors.
func NewManager(cfg Config) (*Manager, error) {
	cfg = cfg.withDefaults()
	if cfg.DataDir == "" {
		return nil, errors.New("server: Config.DataDir is required")
	}
	if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
		return nil, err
	}
	m := &Manager{
		cfg:   cfg,
		store: NewStore(cfg.DataDir),
		start: time.Now(),
		jobs:  make(map[string]*Job),
	}
	m.cond = sync.NewCond(&m.mu)
	for i := 0; i < cfg.MaxRunning; i++ {
		m.executors.Add(1)
		go m.executor()
	}
	return m, nil
}

// Uptime reports how long the manager has been up.
func (m *Manager) Uptime() time.Duration { return time.Since(m.start) }

// Submit admits a spec as a job. The spec must already have passed
// ValidateFor(RoleServer). Returns the job and whether it was newly
// created (false = dedup hit on a live or remembered job).
func (m *Manager) Submit(s spec.RunSpec, client string) (*Job, bool, error) {
	id := s.SpecHash()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, false, ErrClosed
	}
	if j, ok := m.jobs[id]; ok {
		// Same content hash, same job — unless the previous attempt
		// ended resumable (failed/canceled/drained), in which case the
		// re-submission re-enqueues it to finish the remainder from its
		// journal. Done jobs stay done: their result is served as-is.
		st := j.State()
		if st == StateQueued || st == StateRunning || st == StateDone {
			return j, false, nil
		}
	}
	if m.draining {
		return nil, false, ErrDraining
	}
	if m.queue.depth() >= m.cfg.MaxQueued {
		return nil, false, ErrSaturated
	}
	if m.cfg.ClientQuota > 0 && m.liveForLocked(client) >= m.cfg.ClientQuota {
		return nil, false, ErrQuota
	}
	j := newJob(id, s, client, classOf(s.Exec.Priority), time.Now())
	m.jobs[id] = j
	m.queue.push(j)
	m.cond.Signal()
	m.cfg.Logf("server: queued %s (%s, priority %s, client %s)", shortID(id), j.Summary, className(j.Class), client)
	return j, true, nil
}

// liveForLocked counts a client's queued+running jobs. Callers hold mu.
func (m *Manager) liveForLocked(client string) int {
	n := 0
	for _, j := range m.jobs {
		if j.Client != client {
			continue
		}
		switch j.State() {
		case StateQueued, StateRunning:
			n++
		}
	}
	return n
}

// Job returns a job this process has seen, by ID.
func (m *Manager) Job(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Jobs snapshots every known job, live ones first (the HTTP list merges
// these with the store's historical journals).
func (m *Manager) Jobs() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		out = append(out, j)
	}
	return out
}

// QueueDepth reports live queued jobs.
func (m *Manager) QueueDepth() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.queue.depth()
}

// Counts tallies known jobs by state.
func (m *Manager) Counts() map[State]int {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[State]int)
	for _, j := range m.jobs {
		out[j.State()]++
	}
	return out
}

// Draining reports whether a drain is in progress.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// Aggregate returns the accumulated perf of every job this process
// finished (the /metrics exposition).
func (m *Manager) Aggregate() perf.Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	agg := perf.Snapshot{}
	agg.Add(m.aggregate)
	return agg
}

// Cancel cancels a job: queued jobs are marked directly, running jobs
// through their context. Finished jobs return false.
func (m *Manager) Cancel(id string) (ok bool, err error) {
	m.mu.Lock()
	j, found := m.jobs[id]
	m.mu.Unlock()
	if !found {
		return false, fmt.Errorf("server: unknown job %s", id)
	}
	if j.markCanceledIfQueued(time.Now()) {
		m.cfg.Logf("server: canceled queued %s", shortID(id))
		return true, nil
	}
	j.mu.Lock()
	cancel := j.cancel
	running := j.state == StateRunning
	j.mu.Unlock()
	if running && cancel != nil {
		cancel()
		m.cfg.Logf("server: canceling running %s", shortID(id))
		return true, nil
	}
	return false, nil
}

// Drain stops admissions, asks running jobs to drain gracefully (their
// journals stay resumable), and waits up to timeout for executors to
// settle. Queued jobs are left queued — a restarted daemon re-admits
// them by re-submission.
func (m *Manager) Drain(timeout time.Duration) {
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return
	}
	m.draining = true
	var running []*Job
	for _, j := range m.jobs {
		if j.State() == StateRunning {
			running = append(running, j)
		}
	}
	m.cond.Broadcast()
	m.mu.Unlock()
	for _, j := range running {
		j.requestDrain()
	}
	done := make(chan struct{})
	go func() {
		m.executors.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(timeout):
		m.cfg.Logf("server: drain timeout after %v; %d jobs may be mid-flight", timeout, len(running))
	}
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
}

// Close hard-stops the manager: cancels running jobs and returns once
// executors exit. Used by tests; production uses Drain.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.draining = true
	m.closed = true
	var running []*Job
	for _, j := range m.jobs {
		if j.State() == StateRunning {
			running = append(running, j)
		}
	}
	m.cond.Broadcast()
	m.mu.Unlock()
	for _, j := range running {
		j.mu.Lock()
		cancel := j.cancel
		j.mu.Unlock()
		if cancel != nil {
			cancel()
		}
	}
	m.executors.Wait()
}

// executor is one slot of the bounded pool: pop, execute, repeat.
func (m *Manager) executor() {
	defer m.executors.Done()
	for {
		m.mu.Lock()
		var j *Job
		for {
			if m.closed || m.draining {
				m.mu.Unlock()
				return
			}
			if j = m.queue.pop(); j != nil {
				break
			}
			m.cond.Wait()
		}
		m.running++
		m.mu.Unlock()

		m.execute(j)

		m.mu.Lock()
		m.running--
		m.mu.Unlock()
	}
}

// JournalPath returns the on-disk journal of a job ID.
func (m *Manager) JournalPath(id string) string {
	return filepath.Join(m.cfg.DataDir, id+".journal")
}

// execute runs one job to a terminal state. The server owns journal
// placement: the submitted spec's Resilience.Checkpoint/Resume are
// rejected at validation, and here the job's journal is pinned to
// dataDir/<spechash>.journal — resume is implied by the file existing.
func (m *Manager) execute(j *Job) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	j.begin(cancel, time.Now())
	m.cfg.Logf("server: running %s (%s)", shortID(j.ID), j.Summary)

	out, err := m.run(ctx, j)
	now := time.Now()
	switch {
	case err == nil:
		m.mu.Lock()
		m.aggregate.Add(out.Perf)
		m.mu.Unlock()
		j.finish(StateDone, "", out, now)
		m.cfg.Logf("server: done %s (%d/%d tasks, %d restored, replayed=%v)",
			shortID(j.ID), out.Report.Restored+out.Report.Completed, out.Report.Total, out.Report.Restored, out.Replayed)
	case errors.Is(err, distrib.ErrDrained):
		j.finish(StateDrained, err.Error(), out, now)
		m.cfg.Logf("server: drained %s — journal resumable", shortID(j.ID))
	case ctx.Err() != nil:
		j.finish(StateCanceled, "canceled", out, now)
		m.cfg.Logf("server: canceled %s", shortID(j.ID))
	default:
		j.finish(StateFailed, err.Error(), out, now)
		m.cfg.Logf("server: failed %s: %v", shortID(j.ID), err)
	}
}

// run executes the job's sweep through the shared run harness
// (internal/run): journal replay when the journal already covers every
// task — which is what makes re-submitting a completed spec free — and
// the distributed engine otherwise. What is the service's own: the
// journal pinned by content hash with resume implied by its existence,
// the worker count defaulted, a loopback listener, the job's drain
// channel, and the job as the observer of identity, progress and
// committed results.
func (m *Manager) run(ctx context.Context, j *Job) (*run.Outcome, error) {
	s := j.Spec
	s.Resilience.Checkpoint = m.JournalPath(j.ID)
	if _, serr := os.Stat(s.Resilience.Checkpoint); serr == nil {
		s.Resilience.Resume = true
	}
	if s.Exec.Workers == 0 {
		s.Exec.Workers = m.cfg.DefaultWorkers
	}
	b, err := spec.Build(s)
	if err != nil {
		return &run.Outcome{}, err
	}
	return run.Coordinate(ctx, b, run.Hooks{
		Addr:       "127.0.0.1:0",
		Spawn:      m.cfg.SpawnWorker,
		Drain:      j.drain, // armed by begin, on this goroutine
		OnIdentity: j.setIdentity,
		OnProgress: j.setProgress,
		// OnResult wakes streams the moment a result commits to the
		// journal — the SSE tail polls on this signal instead of a timer.
		OnResult: func(cluster.Task, []byte) { j.ping() },
		Logf: func(format string, args ...any) {
			m.cfg.Logf("server: %s: "+format, append([]any{shortID(j.ID)}, args...)...)
		},
	})
}

// shortID abbreviates a job ID for logs.
func shortID(id string) string {
	if len(id) > 12 {
		return id[:12]
	}
	return id
}
