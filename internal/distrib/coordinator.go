package distrib

import (
	"context"
	"errors"
	"fmt"
	"net"
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

// Options configures Serve. The zero value is usable: 30 s leases, no
// journal, fail on the first unsalvageable task.
type Options struct {
	// LeaseTimeout is how long a worker may hold a task before the
	// coordinator assumes it straggled or died and re-dispatches the task
	// (default 30s). It must comfortably exceed the cost of one task. It
	// also sets the heartbeat interval imposed on workers, LeaseTimeout/4
	// clamped to [100ms, 5s]: a worker silent for three intervals is
	// declared dead and its leases re-dispatched.
	LeaseTimeout time.Duration
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
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 10 * time.Second
	}
	if o.Shards < 1 {
		o.Shards = 1
	}
	return o
}

// parkFor is how long a lease request that finds every remaining task
// leased elsewhere waits on the coordinator before it is answered with an
// empty lease; the worker then asks again at once.
const parkFor = 50 * time.Millisecond

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
	// meter, so work discarded with a dead epoch neither leaks into nor
	// is shaved off later deltas.
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

// upload is one decoded result frame on its way to the committer.
type upload struct {
	worker  string
	queued  *sync.WaitGroup // the connection's count of frames not yet applied
	results []resultMsg
}

// uploadQueue bounds the frames waiting for the committer (about one per
// worker while a group syncs); when full, only uploading connections block.
const uploadQueue = 64

// coordinator moves the bytes and the time of one sweep; every decision
// is its lease table's.
type coordinator struct {
	opts          Options
	nBias, nK, nE int

	// uploads feeds commitLoop, the one goroutine that journals, restores
	// and finishes tasks — outside mu, so grants, heartbeats and the clock
	// never wait behind an fsync, and Restore is never called concurrently.
	uploads chan upload
	left    chan struct{} // "a worker unregistered", for awaitGoodbyes

	mu    sync.Mutex
	table *leaseTable

	// Coordinator-side wire accounting (the workers' sides ride their
	// perf deltas). Atomics: the codec meters fire on every connection
	// goroutine.
	framesSent, framesRecv atomic.Int64
	bytesSent, bytesRecv   atomic.Int64
}

// newCoordinator builds a coordinator whose table queues every task done
// does not mark. opts must have its defaults applied.
func newCoordinator(nBias, nK, nE int, opts Options, done []bool) *coordinator {
	return &coordinator{
		opts:  opts,
		nBias: nBias, nK: nK, nE: nE,
		uploads: make(chan upload, uploadQueue),
		left:    make(chan struct{}, 1),
		table:   newLeaseTable(nK, nE, opts, done),
	}
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
	rep := &Report{Sweep: &cluster.SweepReport{Total: nBias * nK * nE}}

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
	c := newCoordinator(nBias, nK, nE, opts, done)
	c.table.restored, c.table.perf = restored, sum
	c.progress()
	if c.table.remaining == 0 {
		lis.Close()
		c.fill(rep)
		return rep, nil
	}

	// Canceling ctx2 stops the clock and closes every connection still
	// open, unblocking its handler.
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
		c.clock(ctx2)
	}()
	committed := make(chan struct{})
	go func() { defer close(committed); c.commitLoop() }()

	select {
	case <-c.table.done:
	case <-ctx.Done():
		c.fail(ctx.Err())
	}
	lis.Close()
	// On a clean finish (drain included), give connected workers a moment
	// to pick up their explicit done dismissal and sign off — without it,
	// a worker whose lease request races the teardown sees a hangup,
	// which means "coordinator crashed" and would send it into its rejoin
	// loop for nothing.
	if c.cleanSoFar() {
		c.awaitGoodbyes(2 * time.Second)
	}
	cancel()
	wg.Wait()
	close(c.uploads) // the senders, the connection goroutines, are gone
	<-committed

	c.mu.Lock()
	defer c.mu.Unlock()
	c.fill(rep)
	t := c.table
	if t.failure == nil && t.drained && t.remaining > 0 {
		return rep, ErrDrained
	}
	return rep, t.failure
}

// cleanSoFar reports whether no fatal error has been recorded.
func (c *coordinator) cleanSoFar() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.table.failure == nil
}

// awaitGoodbyes waits (bounded by grace) for every connected worker to
// receive its done dismissal and disconnect.
func (c *coordinator) awaitGoodbyes(grace time.Duration) {
	timer := time.NewTimer(grace)
	defer timer.Stop()
	for {
		c.mu.Lock()
		n := len(c.table.workers)
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

// clock is the coordinator's one timer. Every quarter LeaseTimeout
// (clamped to [10ms, 1s]) it expires the leases past their deadline; when
// Options.Drain fires it drains the table and arms DrainTimeout, after
// which the drain ends with whatever is still outstanding.
func (c *coordinator) clock(ctx context.Context) {
	tick := time.NewTicker(min(max(c.opts.LeaseTimeout/4, 10*time.Millisecond), time.Second))
	defer tick.Stop()
	drain := c.opts.Drain
	var timeout <-chan time.Time
	for {
		select {
		case <-ctx.Done():
			return
		case now := <-tick.C:
			c.mu.Lock()
			c.table.expire(now)
			c.mu.Unlock()
		case <-drain:
			drain = nil
			timer := time.NewTimer(c.opts.DrainTimeout)
			defer timer.Stop()
			timeout = timer.C
			c.mu.Lock()
			c.table.drain()
			c.mu.Unlock()
		case <-timeout:
			c.mu.Lock()
			c.table.end(true)
			c.mu.Unlock()
		}
	}
}

// fill writes the accounting into rep. Callers hold mu or have exclusive
// access.
func (c *coordinator) fill(rep *Report) {
	c.table.fill(rep, map[string]int64{
		"wire-frames-sent": c.framesSent.Load(),
		"wire-frames-recv": c.framesRecv.Load(),
		"wire-bytes-sent":  c.bytesSent.Load(),
		"wire-bytes-recv":  c.bytesRecv.Load(),
	})
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
// connection, which ends when ctx does at the latest. Result frames go
// on the committer's queue, so the lease request behind a frame is
// granted while the frame syncs. On any exit — clean bye, crash, protocol
// violation — the worker's outstanding leases go back to the pending
// queue.
func (c *coordinator) handle(ctx context.Context, conn net.Conn) {
	cd := comms.NewCodec(conn)
	defer cd.Close()
	defer context.AfterFunc(ctx, func() { cd.Close() })()
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
	c.mu.Lock()
	l := c.table.join(hello.ID)
	c.mu.Unlock()
	if l == nil {
		// The run is over (or draining): dismiss explicitly so the late
		// worker exits cleanly instead of reading the close as a crash.
		cd.Send(msgDone, doneMsg{Epoch: c.opts.Epoch})
		return
	}
	// queued counts this connection's result frames the committer has yet
	// to apply.
	var queued sync.WaitGroup
	defer c.unregister(l, &queued)
	heartbeat := min(max(c.opts.LeaseTimeout/4, 100*time.Millisecond), 5*time.Second)
	if err := cd.Send(msgWelcome, welcomeMsg{
		NBias: c.nBias, NK: c.nK, NE: c.nE,
		SpecHash:       c.opts.SpecHash,
		RunID:          c.opts.RunID,
		Epoch:          c.opts.Epoch,
		HeartbeatEvery: heartbeat,
		LeaseTimeout:   c.opts.LeaseTimeout,
		Wire:           wire,
	}); err != nil {
		return
	}

	// Liveness: every inbound frame (heartbeats included) refreshes the
	// read deadline; three missed heartbeats kill the connection, which
	// releases the worker's leases via the deferred unregister.
	silence := 3*heartbeat + time.Second
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
			lease, over := c.lease(l, req.Capacity)
			if over {
				if err := cd.Send(msgDone, doneMsg{Epoch: c.opts.Epoch}); err != nil {
					return
				}
				continue // the worker answers with a bye
			}
			if wire == wireBin {
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
			queued.Add(1)
			c.uploads <- upload{worker: l.id, queued: &queued, results: batch.Results}
		case msgHeartbeat:
			// The deadline refresh above is the entire effect.
		case msgBye:
			return
		default:
			return // protocol violation: drop the worker
		}
	}
}

// unregister removes a worker and returns its unfinished leases to the
// pending queue — the immediate re-dispatch path for crashed workers —
// once the committer has applied the frames the connection queued: what the
// worker did report is not re-dispatched, and a drain sees it committed.
func (c *coordinator) unregister(l *lessee, queued *sync.WaitGroup) {
	queued.Wait()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.table.leave(l)
	select {
	case c.left <- struct{}{}:
	default: // a goodbye is already signaled; awaitGoodbyes recounts
	}
}

// lease answers one lease request; over=true means dismiss the worker
// with done (DESIGN.md §10, "Lease table"). A request that finds every
// remaining task leased elsewhere parks on the table's wake channel, and
// is answered with an empty lease after parkFor at the latest.
func (c *coordinator) lease(l *lessee, capacity int) (leaseMsg, bool) {
	var expired <-chan time.Time
	for {
		c.mu.Lock()
		tasks, over, wake := c.table.grant(l, capacity, time.Now())
		c.mu.Unlock()
		if wake == nil {
			return leaseMsg{Tasks: tasks, TTL: c.opts.LeaseTimeout}, over
		}
		if expired == nil {
			expired = time.After(parkFor)
		}
		select {
		case <-wake:
		case <-expired:
			return leaseMsg{}, false
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
			u.queued.Done()
		}
	}
}

// commit applies one group of uploaded results (DESIGN.md §10): claimed
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
			if c.table.claim(u.worker, res) {
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
			recs[i] = cluster.TaskRecord{Index: res.Task, Payload: res.Payload, Perf: &won[i].Perf, Shard: c.table.shardOf(res.Task)}
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
				c.fail(fmt.Errorf("distrib: restore task %d from worker %s: %w", res.Task, c.table.st[res.Task].worker, err))
				return
			}
		}
	}

	c.mu.Lock()
	c.table.committed(won, len(recs))
	c.mu.Unlock()
	if c.opts.OnResult != nil {
		for _, res := range won {
			c.opts.OnResult(cluster.TaskAt(res.Task, c.nK, c.nE), res.Payload)
		}
	}
	c.progress()
}

// progress reports completion to the observer.
func (c *coordinator) progress() {
	if c.opts.OnProgress == nil {
		return
	}
	c.mu.Lock()
	t := c.table
	done := t.restored + t.completed + len(t.quarantined)
	c.mu.Unlock()
	c.opts.OnProgress(done, len(t.st))
}

// fail records the first fatal error and tears the run down.
func (c *coordinator) fail(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.table.fail(err)
}
