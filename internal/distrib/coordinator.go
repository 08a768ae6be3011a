package distrib

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/comms"
	"repro/internal/perf"
)

// ErrDrained is returned by Serve when a graceful drain (Options.Drain)
// dismissed the workers before the sweep completed. The report still
// carries the completed/restored accounting, every accepted result is in
// the journal, and a later -resume finishes the remainder.
var ErrDrained = errors.New("distrib: sweep drained before completion")

// Options configures Serve. The zero value is usable: 30 s leases,
// heartbeats at a quarter of that, no journal, fail on the first
// unsalvageable task.
type Options struct {
	// LeaseTimeout is how long a worker may hold a task before the
	// coordinator assumes it straggled or died and re-dispatches the task
	// (default 30s). It must comfortably exceed the cost of one task.
	LeaseTimeout time.Duration
	// HeartbeatEvery is the liveness beacon interval imposed on workers
	// (default LeaseTimeout/4, clamped to [100ms, 5s]). A worker silent
	// for three intervals is declared dead and its leases re-dispatched.
	HeartbeatEvery time.Duration
	// RetryAfter is how long a lease request is parked when every remaining
	// task is leased elsewhere, and the back-off told to the worker when
	// nothing turned up by then (default 50ms).
	RetryAfter time.Duration
	// Journal, when non-nil, records every accepted result and seeds the
	// done set on startup — the same checkpoint/restart contract as
	// cluster.SweepOptions.Journal. First-result-wins dedup guarantees at
	// most one record per task is appended per run.
	Journal cluster.Checkpointer
	// Restore reinstates payloads into the caller's accumulators, both
	// for journaled records at startup and for results as they arrive.
	Restore cluster.RestoreFunc
	// Quarantine: as in cluster.SweepOptions — a task whose worker-side
	// retry budget is exhausted is set aside instead of failing the sweep,
	// up to cluster.QuarantineBudget (25% of the grid).
	Quarantine bool
	// OnProgress observes completion (restored + completed + quarantined,
	// total). Must be cheap and thread-safe.
	OnProgress func(done, total int)
	// OnResult observes each committed result — after the fsync covering
	// its journal record and after Restore, so an observer that reads the
	// journal on the callback is guaranteed to see the record. Duplicates
	// and epoch-stale results never reach it. Must be cheap; it runs on
	// the committer goroutine, one call at a time.
	OnResult func(task cluster.Task, payload []byte)
	// SpecHash, when non-empty, is the content hash of the run spec this
	// coordinator executes (spec.RunSpec.SpecHash). A worker whose hello
	// carries a different hash is rejected at handshake — the grid-dims
	// check below only catches size mismatches, while the spec hash
	// covers the device, energy window, formalism, and solver knobs that
	// actually determine results. Empty disables the check (callers
	// driving the protocol without a spec).
	SpecHash string
	// RunID names the run instance across coordinator incarnations (the
	// journal header's RunID). Rejoining workers pin it: a changed RunID
	// means a different run reused the address. Empty disables fencing.
	RunID string
	// Epoch is this coordinator incarnation's number within the run (1
	// for a first start, bumped by every -resume —
	// cluster.FileJournal.BumpEpoch persists it). Results tagged with an
	// older epoch are discarded: their tasks were already re-dispatched
	// from the journal-seeded lease table. Zero disables fencing.
	Epoch uint64
	// Shards is the number of coordinator scheduling shards the task grid
	// is partitioned across (default 1 — the classic single FIFO). Each
	// worker is homed on one shard round-robin at registration and is
	// granted leases from its home shard's queue; a worker whose home
	// shard is empty steals a capacity-sized batch from the most loaded
	// shard, so a slow shard never idles the fleet. Shards partition
	// scheduling, not locking or the journal: all shards share one lease
	// table, one mutex, and one journal (records are shard-tagged), which
	// keeps exactly-once commits and epoch fencing exactly as strong as
	// the single-shard engine — the wire, not the lock, is what caps
	// scaling at fleet sizes.
	Shards int
	// WireFormat picks the hot messages' wire: "json" keeps their payloads
	// JSON, anything else offers workers that advertise them the binary
	// ones. Pure transport knob — results are bitwise identical either way.
	WireFormat string
	// Drain, when non-nil, triggers a graceful drain when it becomes
	// receivable (close it): the coordinator stops granting leases,
	// dismisses workers with done as they ask for more work, keeps
	// accepting and journaling in-flight results until none are
	// outstanding or DrainTimeout passes, then returns ErrDrained with
	// the partial accounting. This is the SIGTERM path of `omen -serve`.
	Drain <-chan struct{}
	// DrainTimeout bounds how long a drain waits for outstanding leases
	// to resolve (default 10s).
	DrainTimeout time.Duration
}

func (o Options) withDefaults() Options {
	if o.LeaseTimeout <= 0 {
		o.LeaseTimeout = 30 * time.Second
	}
	if o.HeartbeatEvery <= 0 {
		o.HeartbeatEvery = o.LeaseTimeout / 4
		if o.HeartbeatEvery < 100*time.Millisecond {
			o.HeartbeatEvery = 100 * time.Millisecond
		}
		if o.HeartbeatEvery > 5*time.Second {
			o.HeartbeatEvery = 5 * time.Second
		}
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = 50 * time.Millisecond
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 10 * time.Second
	}
	if o.Shards < 1 {
		o.Shards = 1
	}
	return o
}

// Report summarizes a distributed sweep: the familiar per-task accounting
// plus the cluster-level quantities only the coordinator can see.
type Report struct {
	// Sweep is the task accounting, type-compatible with the local
	// engine's report so assembly code is path-agnostic.
	Sweep *cluster.SweepReport
	// Workers is the number of distinct workers that ever connected.
	Workers int
	// Redispatched counts leases reclaimed from dead, silent, or
	// straggling workers and handed to another worker.
	Redispatched int
	// Perf is the cluster-wide merge of the per-task performance deltas
	// of every accepted result: total flops and per-phase wall/flop
	// attribution across all workers. The flop total equals the
	// single-process count when every worker runs a 1-wide pool (see
	// cluster.Meter for what a wider one does to it).
	//
	// Across coordinator restarts exactness additionally relies on the
	// journal persisting each record's perf delta (TaskRecord.Perf,
	// re-summed by cluster.Seed) and on rejoining workers resetting their
	// meter and σ-cache, so work discarded with a dead epoch neither
	// leaks into nor is shaved off later deltas.
	Perf perf.Snapshot
	// StaleEpoch counts results discarded by the epoch fence — reported
	// by a worker that computed them under a previous coordinator
	// incarnation.
	StaleEpoch int
	// Shards is the number of scheduling shards the grid was partitioned
	// across (1 for the classic single-queue coordinator).
	Shards int
	// Steals counts lease grants served by stealing from another shard's
	// queue because the worker's home shard was empty.
	Steals int
}

// task lease states.
const (
	statePending uint8 = iota
	stateLeased
	stateCommitting // result accepted; journal append + restore in flight outside the mutex
	stateDone
	stateQuarantined
)

// taskState is one cell of the coordinator's lease table.
type taskState struct {
	phase    uint8
	worker   string
	deadline time.Time
}

// workerState is the coordinator's view of one connected worker.
type workerState struct {
	id     string
	cd     *comms.Codec
	leased map[int]bool
	wire   string // negotiated wire format for this connection
	home   int    // scheduling shard this worker is homed on
	// queued counts its result frames the committer has yet to apply.
	queued sync.WaitGroup
}

// upload is one decoded result frame on its way to the committer.
type upload struct {
	w       *workerState
	results []resultMsg
}

// uploadQueue bounds the frames waiting for the committer (about one per
// worker while a group syncs); when full, only uploading connections block.
const uploadQueue = 64

// coordinator owns the lease table of one sweep.
type coordinator struct {
	opts          Options
	nBias, nK, nE int
	total         int
	maxQuarantine int

	// uploads feeds commitLoop, the one goroutine that journals, restores
	// and finishes tasks — outside mu, so grants, heartbeats and the reaper
	// never wait behind an fsync, and Restore is never called concurrently.
	uploads chan upload
	left    chan struct{} // "a worker unregistered", for awaitGoodbyes

	mu   sync.Mutex
	st   []taskState
	wake chan struct{} // non-nil: lease requests are parked on it (see lease)
	// shards holds the per-shard pending FIFOs: contiguous blocks of the
	// flat grid, so shard 0 owns the lowest (bias,k,E) indices. Queues
	// may hold stale entries (see popPendingLocked). With Shards 1 this
	// is the classic single queue.
	shards       [][]int
	nextHome     int // round-robin cursor for homing new workers
	steals       int // grants served from another shard's queue
	grants       int // non-empty lease grants
	batchedGrant int // grants carrying more than one task
	remaining    int // tasks not yet done or quarantined
	quarantined  []int
	restored     int
	completed    int
	retries      int
	redispatched int
	journalRecs  int // records the committer journaled
	journalSyncs int // AppendBatch calls (one fsync each) that carried them
	workersSeen  int
	workers      map[string]*workerState
	perf         perf.Snapshot
	staleEpoch   int
	failure      error
	finished     bool
	draining     bool // drain requested: grant nothing, dismiss on request
	drained      bool // drain completed the shutdown before the sweep finished
	done         chan struct{}

	// Coordinator-side wire accounting (the workers' sides ride their
	// perf deltas). Atomics: the codec meters fire on every connection
	// goroutine.
	framesSent, framesRecv atomic.Int64
	bytesSent, bytesRecv   atomic.Int64
}

// shardOf maps a task index to the shard owning it: contiguous balanced
// blocks, deterministic for the life of the run (journal shard tags stay
// meaningful across restarts with the same -shards).
func (c *coordinator) shardOf(idx int) int {
	if len(c.shards) <= 1 {
		return 0
	}
	return idx * len(c.shards) / c.total
}

// Serve runs a sweep's coordinator: it shards the nBias × nK × nE task
// grid over the workers that connect to lis, re-dispatches lost leases,
// and returns when every task is accounted for (or the run fails, or ctx
// is canceled). The listener is closed before Serve returns. Even on
// error the report describes how far the sweep got.
func Serve(ctx context.Context, lis net.Listener, nBias, nK, nE int, opts Options) (*Report, error) {
	if nBias < 1 || nK < 1 || nE < 1 {
		lis.Close()
		return nil, fmt.Errorf("distrib: task counts must be positive")
	}
	opts = opts.withDefaults()
	total := nBias * nK * nE
	nShards := opts.Shards
	if nShards > total {
		nShards = total // never more shards than tasks
	}
	c := &coordinator{
		opts:  opts,
		nBias: nBias, nK: nK, nE: nE,
		total:         total,
		maxQuarantine: cluster.QuarantineBudget(opts.Quarantine, total),
		st:            make([]taskState, total),
		shards:        make([][]int, nShards),
		workers:       make(map[string]*workerState),
		done:          make(chan struct{}),
		uploads:       make(chan upload, uploadQueue),
		left:          make(chan struct{}, 1),
	}
	rep := &Report{Sweep: &cluster.SweepReport{Total: total}}

	// Seed the done set and the flop ledger from the journal, exactly
	// like the local engine.
	var recs []cluster.TaskRecord
	if opts.Journal != nil {
		var err error
		if recs, err = opts.Journal.Load(); err != nil {
			lis.Close()
			return rep, fmt.Errorf("distrib: resume: %w", err)
		}
	}
	done, restored, sum, err := cluster.Seed(recs, nBias, nK, nE, opts.Restore)
	if err != nil {
		lis.Close()
		return rep, fmt.Errorf("distrib: restore %w", err)
	}
	c.restored, c.perf = restored, sum
	for i, d := range done {
		if d {
			c.st[i].phase = stateDone
			continue
		}
		sh := c.shardOf(i)
		c.shards[sh] = append(c.shards[sh], i)
		c.remaining++
	}
	c.progress()
	if c.remaining == 0 {
		lis.Close()
		c.fill(rep)
		return rep, nil
	}

	ctx2, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		c.acceptLoop(ctx2, lis, &wg)
	}()
	go func() {
		defer wg.Done()
		c.reap(ctx2)
	}()
	if opts.Drain != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.drainWatch(ctx2)
		}()
	}
	committed := make(chan struct{})
	go func() { defer close(committed); c.commitLoop() }()

	select {
	case <-c.done:
	case <-ctx.Done():
		c.fail(ctx.Err())
	}
	cancel()
	lis.Close()
	// On a clean finish (drain included), give connected workers a moment
	// to pick up their explicit done dismissal and sign off — without it,
	// a worker whose lease request races the teardown sees a hangup,
	// which means "coordinator crashed" and would send it into its rejoin
	// loop for nothing.
	if c.cleanSoFar() {
		c.awaitGoodbyes(2 * time.Second)
	}
	c.closeConns()
	wg.Wait()
	close(c.uploads) // the senders, the connection goroutines, are gone
	<-committed

	c.mu.Lock()
	defer c.mu.Unlock()
	c.fill(rep)
	if c.failure == nil && c.drained && c.remaining > 0 {
		return rep, ErrDrained
	}
	return rep, c.failure
}

// cleanSoFar reports whether no fatal error has been recorded.
func (c *coordinator) cleanSoFar() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failure == nil
}

// awaitGoodbyes waits (bounded by grace) for every connected worker to
// receive its done dismissal and disconnect.
func (c *coordinator) awaitGoodbyes(grace time.Duration) {
	timer := time.NewTimer(grace)
	defer timer.Stop()
	for {
		c.mu.Lock()
		n := len(c.workers)
		c.mu.Unlock()
		if n == 0 {
			return
		}
		select {
		case <-c.left:
		case <-timer.C:
			return
		}
	}
}

// drainWatch arms the graceful-drain path: when Options.Drain fires, stop
// granting, let in-flight leases resolve (results are still accepted and
// journaled), and force the shutdown when DrainTimeout passes first.
func (c *coordinator) drainWatch(ctx context.Context) {
	select {
	case <-ctx.Done():
		return
	case <-c.done:
		return
	case <-c.opts.Drain:
	}
	c.mu.Lock()
	c.draining = true
	c.maybeFinishDrainLocked()
	c.mu.Unlock()
	timer := time.NewTimer(c.opts.DrainTimeout)
	defer timer.Stop()
	select {
	case <-ctx.Done():
	case <-c.done:
	case <-timer.C:
		c.mu.Lock()
		c.finishDrainLocked()
		c.mu.Unlock()
	}
}

// maybeFinishDrainLocked completes a drain once no lease is outstanding:
// every task is pending (safely re-dispatchable from the journal on
// resume), committing results have landed, and nothing more will arrive.
func (c *coordinator) maybeFinishDrainLocked() {
	if !c.draining || c.finished {
		return
	}
	for i := range c.st {
		if p := c.st[i].phase; p == stateLeased || p == stateCommitting {
			return
		}
	}
	c.finishDrainLocked()
}

// finishDrainLocked ends the run as drained (idempotent).
func (c *coordinator) finishDrainLocked() {
	if c.finished {
		return
	}
	c.finished = true
	c.drained = true
	close(c.done)
}

// fill writes the coordinator's accounting into rep. Callers hold mu or
// have exclusive access.
func (c *coordinator) fill(rep *Report) {
	rep.Sweep.Restored = c.restored
	rep.Sweep.Completed = c.completed
	rep.Sweep.Retries = c.retries
	sort.Ints(c.quarantined)
	rep.Sweep.Quarantined = nil
	for _, idx := range c.quarantined {
		rep.Sweep.Quarantined = append(rep.Sweep.Quarantined, cluster.TaskAt(idx, c.nK, c.nE))
	}
	rep.Workers = c.workersSeen
	rep.Redispatched = c.redispatched
	rep.Perf = c.perf
	rep.StaleEpoch = c.staleEpoch
	rep.Shards = len(c.shards)
	rep.Steals = c.steals

	// Fold the coordinator's own wire and scheduling counters into the
	// merged perf snapshot (the workers' wire counters already arrived
	// inside their per-task deltas). Counters are copied before the fold:
	// rep.Perf shares c.perf's maps, which must stay a pure sum of
	// deltas for a possible later fill.
	extra := map[string]int64{
		"wire-frames-sent": c.framesSent.Load(),
		"wire-frames-recv": c.framesRecv.Load(),
		"wire-bytes-sent":  c.bytesSent.Load(),
		"wire-bytes-recv":  c.bytesRecv.Load(),
		"shard-steals":     int64(c.steals),
		"batched-grants":   int64(c.batchedGrant),
		"lease-grants":     int64(c.grants),
		"journal-records":  int64(c.journalRecs),
		"journal-syncs":    int64(c.journalSyncs),
	}
	merged := make(map[string]int64, len(c.perf.Counters)+len(extra))
	for k, v := range c.perf.Counters {
		merged[k] = v
	}
	for k, v := range extra {
		if v != 0 {
			merged[k] += v
		}
	}
	if len(merged) > 0 {
		rep.Perf.Counters = merged
	}
}

// acceptLoop admits workers until the listener closes.
func (c *coordinator) acceptLoop(ctx context.Context, lis net.Listener, wg *sync.WaitGroup) {
	for {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.handle(ctx, conn)
		}()
	}
}

// handle speaks the protocol with one worker for the life of its
// connection. Result frames go on the committer's queue, so the lease
// request behind a frame is granted while the frame syncs. On any exit —
// clean bye, crash, protocol violation — the worker's outstanding leases go
// back to the pending queue.
func (c *coordinator) handle(ctx context.Context, conn net.Conn) {
	cd := comms.NewCodec(conn)
	defer cd.Close()
	cd.Meter(
		func(n int) { c.framesSent.Add(1); c.bytesSent.Add(int64(n)) },
		func(n int) { c.framesRecv.Add(1); c.bytesRecv.Add(int64(n)) },
	)

	// The hello must arrive promptly; a connection that never identifies
	// itself is dropped rather than tracked.
	cd.SetReadDeadline(time.Now().Add(10 * time.Second))
	t, payload, err := cd.Recv()
	if err != nil || t != msgHello {
		return
	}
	var hello helloMsg
	if decode(t, payload, &hello) != nil {
		return
	}
	if hello.Proto != ProtoVersion {
		cd.Send(msgError, errorMsg{Reason: fmt.Sprintf(
			"protocol version mismatch: worker speaks %d, coordinator speaks %d (start the worker from the coordinator's build)",
			hello.Proto, ProtoVersion)})
		return
	}
	if hello.NBias != c.nBias || hello.NK != c.nK || hello.NE != c.nE {
		cd.Send(msgError, errorMsg{Reason: fmt.Sprintf(
			"task grid mismatch: worker configured for %d×%d×%d, coordinator for %d×%d×%d (check that both processes share the same flags)",
			hello.NBias, hello.NK, hello.NE, c.nBias, c.nK, c.nE)})
		return
	}
	if c.opts.SpecHash != "" && hello.SpecHash != c.opts.SpecHash {
		cd.Send(msgError, errorMsg{Reason: fmt.Sprintf(
			"run-spec mismatch: worker spec %.16s…, coordinator %.16s… — the worker was launched with a different device/grid/solver configuration and its results would not belong to this sweep",
			hello.SpecHash, c.opts.SpecHash)})
		return
	}

	// Wire negotiation: binary only when the worker advertised it and
	// this coordinator offers it.
	wire := wireJSON
	if hello.Wire == wireBin && c.opts.WireFormat != wireJSON {
		wire = wireBin
	}
	w := c.register(cd, hello.ID, wire)
	if w == nil {
		// The run is over (or draining): dismiss explicitly so the late
		// worker exits cleanly instead of reading the close as a crash.
		cd.Send(msgDone, doneMsg{Epoch: c.opts.Epoch})
		return
	}
	defer c.unregister(w)
	if err := cd.Send(msgWelcome, welcomeMsg{
		NBias: c.nBias, NK: c.nK, NE: c.nE,
		SpecHash:       c.opts.SpecHash,
		RunID:          c.opts.RunID,
		Epoch:          c.opts.Epoch,
		HeartbeatEvery: c.opts.HeartbeatEvery,
		LeaseTimeout:   c.opts.LeaseTimeout,
		Wire:           wire,
	}); err != nil {
		return
	}

	// Liveness: every inbound frame (heartbeats included) refreshes the
	// read deadline; three missed heartbeats kill the connection, which
	// releases the worker's leases via the deferred unregister.
	silence := 3*c.opts.HeartbeatEvery + time.Second
	for {
		cd.SetReadDeadline(time.Now().Add(silence))
		t, payload, err := cd.Recv()
		if err != nil {
			return
		}
		switch t {
		case msgLeaseRequest:
			var req leaseRequestMsg
			if decode(t, payload, &req) != nil {
				return
			}
			lease, over := c.lease(w, req.Capacity)
			if over {
				if err := cd.Send(msgDone, doneMsg{Epoch: c.opts.Epoch}); err != nil {
					return
				}
				continue // the worker answers with a bye
			}
			if w.wire == wireBin {
				err = cd.SendBin(msgLeaseBin, func(bw *comms.BinWriter) { appendLeaseBin(bw, lease) })
			} else {
				err = cd.Send(msgLease, lease)
			}
			if err != nil {
				return
			}
		case msgResultBatch, msgResultBatchBin:
			var batch resultBatchMsg
			if t == msgResultBatch {
				err = decode(t, payload, &batch)
			} else {
				batch.Results, err = decodeResultBatchBin(payload)
			}
			if err != nil {
				return // malformed frame: drop the worker, leases re-dispatch
			}
			w.queued.Add(1)
			c.uploads <- upload{w: w, results: batch.Results}
		case msgHeartbeat:
			// The deadline refresh above is the entire effect.
		case msgBye:
			return
		default:
			return // protocol violation: drop the worker
		}
	}
}

// register admits a worker under a unique id, homing it on the next
// shard round-robin, or returns nil when the run is already over or
// draining.
func (c *coordinator) register(cd *comms.Codec, id, wire string) *workerState {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.finished || c.failure != nil || c.draining {
		return nil
	}
	c.workersSeen++
	if id == "" {
		id = fmt.Sprintf("worker-%d", c.workersSeen)
	}
	if _, dup := c.workers[id]; dup {
		id = fmt.Sprintf("%s#%d", id, c.workersSeen)
	}
	w := &workerState{id: id, cd: cd, leased: make(map[int]bool), wire: wire, home: c.nextHome}
	c.nextHome = (c.nextHome + 1) % len(c.shards)
	c.workers[id] = w
	return w
}

// unregister removes a worker and returns its unfinished leases to the
// pending queue — the immediate re-dispatch path for crashed workers —
// once the committer has applied the frames the connection queued: what the
// worker did report is not re-dispatched, and a drain sees it committed.
func (c *coordinator) unregister(w *workerState) {
	w.queued.Wait()
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.workers, w.id)
	select {
	case c.left <- struct{}{}:
	default: // a goodbye is already signaled; awaitGoodbyes recounts
	}
	for idx := range w.leased {
		delete(w.leased, idx)
		if c.st[idx].phase == stateLeased && c.st[idx].worker == w.id {
			c.st[idx].phase = statePending
			c.st[idx].worker = ""
			c.requeueLocked(idx)
			c.redispatched++
		}
	}
	c.maybeFinishDrainLocked()
}

// lease answers one lease request. One that finds every remaining task
// leased elsewhere parks here: it is answered the moment a task is requeued
// or the run ends, and empty-handed after RetryAfter at the latest.
func (c *coordinator) lease(w *workerState, capacity int) (leaseMsg, bool) {
	var expired <-chan time.Time
	for {
		lease, over, wake := c.grant(w, capacity)
		if wake == nil {
			return lease, over
		}
		if expired == nil {
			expired = time.After(c.opts.RetryAfter)
		}
		select {
		case <-wake:
		case <-c.done:
		case <-expired:
			return lease, false
		}
	}
}

// grant makes one attempt at a lease request; over=true means the worker
// should be dismissed with done — the sweep is complete, failed, or
// draining (a draining coordinator grants nothing new; what a dismissed
// worker uploaded before asking is applied before unregister judges its
// leases). The grant comes from the worker's home shard when it has
// pending work, and is stolen from the most loaded shard otherwise. With
// nothing to hand out, wake is the channel the next requeue closes.
func (c *coordinator) grant(w *workerState, capacity int) (lease leaseMsg, over bool, wake <-chan struct{}) {
	if capacity < 1 {
		capacity = 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.finished || c.failure != nil || c.remaining == 0 || c.draining {
		return leaseMsg{}, true, nil
	}
	tasks, stolen := c.popShardedLocked(w.home, capacity)
	if len(tasks) == 0 {
		// Everything pending is leased elsewhere; reclaim stragglers
		// opportunistically before telling the worker to wait.
		c.reclaimExpiredLocked(time.Now())
		tasks, stolen = c.popShardedLocked(w.home, capacity)
	}
	if len(tasks) == 0 {
		if c.wake == nil {
			c.wake = make(chan struct{})
		}
		return leaseMsg{RetryAfter: c.opts.RetryAfter}, false, c.wake
	}
	if stolen {
		c.steals++
	}
	c.grants++
	if len(tasks) > 1 {
		c.batchedGrant++
	}
	deadline := time.Now().Add(c.opts.LeaseTimeout)
	for _, idx := range tasks {
		c.st[idx] = taskState{phase: stateLeased, worker: w.id, deadline: deadline}
		w.leased[idx] = true
	}
	return leaseMsg{Tasks: tasks, TTL: c.opts.LeaseTimeout}, false, nil
}

// popShardedLocked pops up to n tasks for a worker homed on shard home:
// from its own queue if possible, else a steal from the most loaded
// shard. stolen reports the steal (for the counter; at most one victim
// per grant — a steal is a whole lease batch).
func (c *coordinator) popShardedLocked(home, n int) (tasks []int, stolen bool) {
	if tasks = c.popPendingLocked(home, n); len(tasks) > 0 {
		return tasks, false
	}
	for {
		victim, max := -1, 0
		for sh := range c.shards {
			if sh != home && len(c.shards[sh]) > max {
				victim, max = sh, len(c.shards[sh])
			}
		}
		if victim < 0 {
			return nil, false
		}
		if tasks = c.popPendingLocked(victim, n); len(tasks) > 0 {
			return tasks, true
		}
		// The victim's queue was all stale entries and is now drained;
		// look for the next-most-loaded shard.
	}
}

// popPendingLocked removes up to n indices from the head of one shard's
// queue, returning only those still pending. A queue entry can go stale:
// when a reclaimed task's original holder reports before the
// re-dispatched copy is granted, the committer accepts the straggler's
// result directly from statePending and the re-queued index now names a
// finished task. Handing such an index out again would overwrite
// stateDone with stateLeased and let a second result be accepted — a
// duplicate journal record and a double decrement of remaining — so
// stale entries are dropped here.
func (c *coordinator) popPendingLocked(sh, n int) []int {
	var tasks []int
	q := c.shards[sh]
	for len(tasks) < n && len(q) > 0 {
		idx := q[0]
		q = q[1:]
		if c.st[idx].phase != statePending {
			continue
		}
		tasks = append(tasks, idx)
	}
	c.shards[sh] = q
	return tasks
}

// requeueLocked returns a reclaimed task to its home shard's queue and
// wakes the lease requests parked for one.
func (c *coordinator) requeueLocked(idx int) {
	sh := c.shardOf(idx)
	c.shards[sh] = append(c.shards[sh], idx)
	if c.wake != nil {
		close(c.wake)
		c.wake = nil
	}
}

// reclaimExpiredLocked returns every lease past its deadline to the
// pending queues. The holder may still be running the task — that is the
// straggler case, and whichever execution reports first wins.
func (c *coordinator) reclaimExpiredLocked(now time.Time) {
	for idx := range c.st {
		s := &c.st[idx]
		if s.phase != stateLeased || now.Before(s.deadline) {
			continue
		}
		if w := c.workers[s.worker]; w != nil {
			delete(w.leased, idx)
		}
		s.phase = statePending
		s.worker = ""
		c.requeueLocked(idx)
		c.redispatched++
	}
}

// reap periodically reclaims expired leases so re-dispatch does not wait
// for the next lease request.
func (c *coordinator) reap(ctx context.Context) {
	interval := c.opts.LeaseTimeout / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	if interval > time.Second {
		interval = time.Second
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case now := <-tick.C:
			c.mu.Lock()
			if !c.finished && c.failure == nil {
				c.reclaimExpiredLocked(now)
				// During a drain, an expired lease resolves it: the task is
				// safely pending again and will be re-dispatched on resume.
				c.maybeFinishDrainLocked()
			}
			c.mu.Unlock()
		}
	}
}

// commitLoop is the coordinator's one committer, the only caller of the
// journal and of Restore. Each turn commits everything queued — whatever
// the workers uploaded while the previous group synced — as one group.
func (c *coordinator) commitLoop() {
	for u := range c.uploads {
		group := []upload{u}
		for n := len(c.uploads); n > 0; n-- {
			group = append(group, <-c.uploads)
		}
		c.commit(group)
		for _, u := range group {
			u.w.queued.Done()
		}
	}
}

// commit applies one group of uploaded results (DESIGN.md §10): decided
// under c.mu, the winners journaled with one AppendBatch — one fsync —
// then restored, and only then marked done, counted and announced. A fatal
// verdict fails the run and turns the rest of the group and every later one
// away; what won before it is still journaled, for the resume. After a
// journal or Restore error the group stays stateCommitting: never re-leased.
func (c *coordinator) commit(group []upload) {
	n := 0
	for _, u := range group {
		n += len(u.results)
	}
	won := make([]resultMsg, 0, n)
	c.mu.Lock()
	for _, u := range group {
		for _, res := range u.results {
			if c.failure == nil && c.claimLocked(u.w, res) {
				won = append(won, res)
			}
		}
	}
	c.mu.Unlock()

	var recs []cluster.TaskRecord
	if c.opts.Journal != nil && len(won) > 0 {
		// The perf delta lets a restarted coordinator re-sum exactly what
		// this one counted; the shard tag is provenance. Both sit outside
		// the digest.
		recs = make([]cluster.TaskRecord, len(won))
		for i, res := range won {
			recs[i] = cluster.TaskRecord{Index: res.Task, Payload: res.Payload, Perf: &won[i].Perf, Shard: c.shardOf(res.Task)}
		}
		if err := c.opts.Journal.AppendBatch(recs); err != nil {
			c.fail(fmt.Errorf("distrib: journal: %w", err))
			return
		}
	}
	if c.opts.Restore != nil {
		for _, res := range won {
			if err := c.opts.Restore(cluster.TaskAt(res.Task, c.nK, c.nE), res.Payload); err != nil {
				// A committing cell is the committer's alone: no lock to read it.
				c.fail(fmt.Errorf("distrib: restore task %d from worker %s: %w", res.Task, c.st[res.Task].worker, err))
				return
			}
		}
	}

	c.mu.Lock()
	for _, res := range won {
		c.st[res.Task].phase = stateDone
		c.completed++
		c.perf.Add(res.Perf)
		c.noteDoneLocked()
	}
	c.journalRecs += len(recs)
	if len(recs) > 0 {
		c.journalSyncs++
	}
	c.maybeFinishDrainLocked()
	c.mu.Unlock()
	if c.opts.OnResult != nil {
		for _, res := range won {
			c.opts.OnResult(cluster.TaskAt(res.Task, c.nK, c.nE), res.Payload)
		}
	}
	c.progress()
}

// claimLocked decides one uploaded result: true means it won its task,
// now stateCommitting. Duplicates (a task the first responder finished or
// is committing, in this group or another) are discarded with their perf
// delta, so re-dispatched stragglers never double-count a task — see
// cluster.Meter. A reported failure is quarantined within the budget, and
// fails the run beyond it.
func (c *coordinator) claimLocked(w *workerState, res resultMsg) bool {
	if res.Task < 0 || res.Task >= c.total {
		c.failLocked(fmt.Errorf("distrib: worker %s reported task %d outside the %d-task grid", w.id, res.Task, c.total))
		return false
	}
	if res.Epoch != 0 && c.opts.Epoch != 0 && res.Epoch != c.opts.Epoch {
		// Epoch fence: the worker computed this under a previous
		// coordinator incarnation. The restarted coordinator re-seeded its
		// lease table from the journal, so the task is either already done
		// or owned by a fresh lease — either way this result is stale.
		c.staleEpoch++
		return false
	}
	delete(w.leased, res.Task)
	s := &c.st[res.Task]
	if s.phase == stateCommitting || s.phase == stateDone || s.phase == stateQuarantined {
		return false // first result won; this one is a re-dispatch echo
	}
	c.retries += res.Retries
	if !res.Failed {
		s.phase = stateCommitting
		s.worker = w.id
		return true
	}
	if !c.opts.Quarantine {
		task := cluster.TaskAt(res.Task, c.nK, c.nE)
		c.failLocked(fmt.Errorf("distrib: task failed: task %d (bias %d, k %d, E %d) on worker %s: %s",
			res.Task, task.Bias, task.K, task.E, w.id, res.Error))
		return false
	}
	if len(c.quarantined) >= c.maxQuarantine {
		c.failLocked(fmt.Errorf("distrib: task failed: quarantine budget (%d tasks) exceeded by task %d on worker %s: %s",
			c.maxQuarantine, res.Task, w.id, res.Error))
		return false
	}
	s.phase = stateQuarantined
	s.worker = w.id
	c.quarantined = append(c.quarantined, res.Task)
	c.perf.Add(res.Perf)
	c.noteDoneLocked()
	c.maybeFinishDrainLocked()
	return false
}

// noteDoneLocked retires one task and completes the run when it was the
// last.
func (c *coordinator) noteDoneLocked() {
	c.remaining--
	if c.remaining == 0 && !c.finished {
		c.finished = true
		close(c.done)
	}
}

// progress reports completion to the observer.
func (c *coordinator) progress() {
	if c.opts.OnProgress == nil {
		return
	}
	c.mu.Lock()
	done := c.restored + c.completed + len(c.quarantined)
	c.mu.Unlock()
	c.opts.OnProgress(done, c.total)
}

// fail records the first fatal error and tears the run down.
func (c *coordinator) fail(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failLocked(err)
}

func (c *coordinator) failLocked(err error) {
	if c.failure == nil {
		c.failure = err
	}
	if !c.finished {
		c.finished = true
		close(c.done)
	}
}

// closeConns drops every live worker connection, unblocking their
// handlers.
func (c *coordinator) closeConns() {
	c.mu.Lock()
	conns := make([]*comms.Codec, 0, len(c.workers))
	for _, w := range c.workers {
		conns = append(conns, w.cd)
	}
	c.mu.Unlock()
	for _, cd := range conns {
		cd.Close()
	}
}
