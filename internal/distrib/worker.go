package distrib

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/comms"
	"repro/internal/perf"
	"repro/internal/resilience"
	"repro/internal/sched"
)

// WorkerOptions configures RunWorker. The zero value is usable: anonymous
// identity, a private GOMAXPROCS pool, lease capacity equal to the pool
// width, single-attempt execution, no fault injection, no rejoin (a
// coordinator crash is surfaced as an error).
type WorkerOptions struct {
	// ID names the worker in coordinator-side diagnostics ("" lets the
	// coordinator assign one).
	ID string
	// Pool executes leased tasks (nil: a private GOMAXPROCS pool). Use
	// width 1 whenever exact merged flop accounting matters (see
	// cluster.Meter).
	Pool *sched.Pool
	// Capacity is how many tasks to request per lease (default: the
	// pool's worker count). Production CLIs ask for several tasks per
	// width-1 pool (DefaultLeaseBatch) so the lease-request/grant
	// round-trip amortizes over a batch — one of the two halves of
	// keeping frames/task below one.
	Capacity int
	// UploadBatch is how many finished results to coalesce into one
	// upload frame (default: the lease capacity; minimum 1). A batch is
	// flushed when it reaches this size, when its oldest result has
	// waited a quarter of the lease TTL, and at lease end. UploadBatch 1
	// sends one result per frame (the benchmark baseline shape).
	UploadBatch int
	// WireFormat is the worker's wire preference: "json" keeps the hot
	// messages' payloads JSON, anything else advertises the compact
	// binary payloads (used only when the coordinator accepts).
	WireFormat string
	// Retry is the per-task retry policy, identical in semantics to
	// cluster.SweepOptions.Retry (zero value: single attempt).
	Retry resilience.Policy
	// Injector, when non-nil, deterministically perturbs tasks — the same
	// reproducible failure-drill hook the local engine takes.
	Injector *resilience.Injector
	// PerfNow samples the performance counters this worker's deltas are
	// computed from (default perf.TakeSnapshot, the process globals —
	// correct when the worker is its own process; in-process tests with
	// several workers inject per-worker counters here).
	PerfNow func() perf.Snapshot
	// SpecHash is the content hash of the run spec this worker was built
	// from, announced in the hello so a coordinator running a different
	// spec rejects the worker outright. The worker symmetrically refuses
	// a welcome whose hash differs from its own. "" skips both checks.
	SpecHash string
	// HandshakeTimeout bounds the wait for the coordinator's welcome
	// after sending hello (default 30s).
	HandshakeTimeout time.Duration
	// RejoinWindow is how long the worker keeps re-dialing after losing
	// its coordinator mid-run before giving up (0: rejoin disabled — a
	// pre-done hangup is then an error, never a silent clean exit). The
	// window restarts at each connection loss, so a worker survives any
	// number of coordinator restarts as long as each one comes back
	// within the window. Requires Dial.
	RejoinWindow time.Duration
	// Dial re-establishes the coordinator connection during a rejoin.
	// Typically a comms.DialRetry closure; its jittered exponential
	// backoff is what keeps a rejoining fleet from thundering-herding
	// the restarting coordinator.
	Dial func(ctx context.Context) (net.Conn, error)
	// Logf reports worker lifecycle events — connection loss, rejoin
	// attempts, epoch changes (default: standard error). Set to a no-op
	// to silence.
	Logf func(format string, args ...any)
}

// DefaultLeaseBatch is the lease capacity the CLIs request per width-1
// worker pool: enough tasks per grant that the request/grant round-trip
// and the coalesced result upload amortize to well under one frame per
// task, small enough that a straggling worker strands little work.
const DefaultLeaseBatch = 8

// RunWorker speaks the worker side of the protocol until the coordinator
// dismisses it with an explicit done message (returns nil) or ctx is
// canceled. A hangup is never a clean exit: losing the connection before
// done means the coordinator crashed. With a RejoinWindow the worker then
// re-dials (jittered backoff via Dial), re-handshakes, verifies it
// rejoined the same run (pinned RunID), adopts the new epoch, and resumes
// pulling leases; without one the crash is surfaced as an error.
//
// Each leased task runs under the retry policy and fault injector with
// exactly the attempt semantics of cluster.RunTasksResumable; a task that
// exhausts its budget is reported to the coordinator as failed rather
// than ending the worker, so quarantine decisions stay centralized.
func RunWorker(ctx context.Context, conn net.Conn, nBias, nK, nE int, opts WorkerOptions, fn cluster.SweepFunc) error {
	pool := opts.Pool
	if pool == nil {
		pool = sched.New(0)
	}
	capacity := opts.Capacity
	if capacity < 1 {
		capacity = pool.Workers()
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "distrib: "+format+"\n", args...)
		}
	}

	uploadBatch := opts.UploadBatch
	if uploadBatch < 1 {
		uploadBatch = capacity
	}
	w := &worker{
		pool: pool, capacity: capacity, uploadBatch: uploadBatch,
		wantBin: opts.WireFormat != wireJSON,
		nBias:   nBias, nK: nK, nE: nE,
		meter: cluster.NewMeter(opts.PerfNow), fn: fn,
		opts: opts, logf: logf,
	}

	for {
		err := w.session(ctx, conn)
		conn = nil // each further session dials its own connection
		if err == nil {
			return nil // dismissed with done: the sweep is over for us
		}
		if resilience.Classify(err) == resilience.Permanent || ctx.Err() != nil {
			return err
		}
		// The coordinator vanished mid-run. Without a rejoin window that
		// is a crash to surface — the silent status-0 exit this error
		// path replaced would strand the sweep with nobody noticing.
		if opts.RejoinWindow <= 0 || opts.Dial == nil {
			return fmt.Errorf("distrib: lost coordinator before the sweep was done: %w", err)
		}
		logf("worker %s: lost coordinator (%v); rejoining for up to %v", w.name(), err, opts.RejoinWindow)
		rejoinCtx, cancel := context.WithTimeout(ctx, opts.RejoinWindow)
		nc, derr := opts.Dial(rejoinCtx)
		cancel()
		if derr != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return fmt.Errorf("distrib: rejoin after losing coordinator (%v) failed: %w", err, derr)
		}
		conn = nc
	}
}

// worker is the state of one RunWorker invocation, spanning sessions.
type worker struct {
	pool          *sched.Pool
	capacity      int
	uploadBatch   int
	wantBin       bool // advertise the binary wire in the hello
	bin           bool // the current session negotiated the binary wire
	nBias, nK, nE int
	fn            cluster.SweepFunc
	opts          WorkerOptions
	logf          func(format string, args ...any)
	meter         *cluster.Meter // cuts the per-task deltas results carry

	// runID pins the run across sessions; epoch tracks the coordinator
	// incarnation the current session was welcomed into.
	runID string
	epoch uint64
}

// name identifies the worker in log lines.
func (w *worker) name() string {
	if w.opts.ID != "" {
		return w.opts.ID
	}
	return "(anonymous)"
}

// session runs one connection's worth of protocol: handshake, then the
// lease/result loop until dismissal or failure. A nil error means the
// coordinator sent done. Errors classify via resilience.Classify:
// Permanent ends RunWorker (rejections, run mismatches, caller
// cancellation), Transient sends it to the rejoin path (hangups,
// timeouts, corrupted frames).
func (w *worker) session(ctx context.Context, conn net.Conn) error {
	cd := comms.NewCodec(conn)
	defer cd.Close()
	// Wire observability: frames and bytes this worker moves ride the
	// process-global perf counters, so for out-of-process workers (whose
	// deltas come from perf.TakeSnapshot) they travel inside the per-task
	// deltas and merge cluster-wide at the coordinator.
	cd.Meter(meterWireSend, meterWireRecv)

	// A session-local context lets the heartbeat goroutine abort the
	// lease loop when its sends start failing — a one-way wedge (worker
	// can read but not write) would otherwise only surface once the
	// coordinator reaps our silent leases.
	sctx, scancel := context.WithCancel(ctx)
	defer scancel()
	var hbFailed atomic.Bool

	hello := helloMsg{ID: w.opts.ID, Proto: ProtoVersion, NBias: w.nBias, NK: w.nK, NE: w.nE, SpecHash: w.opts.SpecHash}
	if w.wantBin {
		hello.Wire = wireBin
	}
	if err := cd.Send(msgHello, hello); err != nil {
		return fmt.Errorf("distrib: hello: %w", err)
	}
	hsTimeout := w.opts.HandshakeTimeout
	if hsTimeout <= 0 {
		hsTimeout = 30 * time.Second
	}
	cd.SetReadDeadline(time.Now().Add(hsTimeout))
	t, payload, err := cd.Recv()
	cd.SetReadDeadline(time.Time{})
	if err != nil {
		return fmt.Errorf("distrib: handshake: %w", err)
	}
	var welcome welcomeMsg
	switch t {
	case msgWelcome:
		if err := decode(t, payload, &welcome); err != nil {
			return err
		}
		if w.opts.SpecHash != "" && welcome.SpecHash != "" && welcome.SpecHash != w.opts.SpecHash {
			return resilience.MarkPermanent(fmt.Errorf("distrib: coordinator runs a different spec (%.16s… vs this worker's %.16s…); refusing to pull its leases",
				welcome.SpecHash, w.opts.SpecHash))
		}
		if w.runID != "" && welcome.RunID != "" && welcome.RunID != w.runID {
			return resilience.MarkPermanent(fmt.Errorf("distrib: rejoined a different run (%s, expected %s) — another sweep reused the coordinator address; discarding nothing, contributing nothing",
				welcome.RunID, w.runID))
		}
		if welcome.RunID != "" {
			w.runID = welcome.RunID
		}
		if w.epoch != 0 && welcome.Epoch != 0 && welcome.Epoch != w.epoch {
			w.logf("worker %s: rejoined run %s at epoch %d (was %d); results from the dead epoch are fenced off", w.name(), w.runID, welcome.Epoch, w.epoch)
		}
		w.epoch = welcome.Epoch
		// The session's wire format is the coordinator's pick, honored
		// only if we offered binary — a coordinator cannot talk a JSON
		// worker into a format it never advertised. Each session (rejoins
		// included) renegotiates, so mixed-format failover works.
		w.bin = w.wantBin && welcome.Wire == wireBin
	case msgDone:
		// The sweep finished before this worker arrived (or got back).
		cd.Send(msgBye, byeMsg{})
		return nil
	case msgError:
		var e errorMsg
		if err := decode(t, payload, &e); err != nil {
			return err
		}
		return resilience.MarkPermanent(fmt.Errorf("distrib: coordinator rejected worker: %s", e.Reason))
	default:
		return fmt.Errorf("distrib: unexpected handshake message type %d", t)
	}

	// The perf baseline restarts with the session: work executed under a
	// dead epoch was discarded by everyone (fence on the coordinator,
	// re-dispatch from the journal), so its flops must not leak into the
	// first delta of the new epoch.
	w.meter.Reset()

	// Heartbeats: periodic liveness beacons on their own goroutine. A
	// send failure cancels the session — the connection is wedged or
	// dead, and waiting for a read deadline would just waste the lease.
	hbEvery := welcome.HeartbeatEvery
	if hbEvery <= 0 {
		hbEvery = time.Second
	}
	hbDone := make(chan struct{})
	// Close the codec before waiting: a heartbeat Send wedged against a
	// dead synchronous pipe only unblocks when the conn closes.
	defer func() { scancel(); cd.Close(); <-hbDone }()
	go func() {
		defer close(hbDone)
		tick := time.NewTicker(hbEvery)
		defer tick.Stop()
		for {
			select {
			case <-sctx.Done():
				return
			case <-tick.C:
				if err := cd.SendBin(msgHeartbeat, func(*comms.BinWriter) {}); err != nil {
					hbFailed.Store(true)
					scancel()
					return
				}
			}
		}
	}()

	// Liveness symmetry with the coordinator: while awaiting a lease
	// response, three missed heartbeat intervals of silence mean the
	// coordinator is wedged-but-connected — treat it like a crash.
	silence := 3*hbEvery + time.Second

	failed := func(err error) error {
		// Heartbeat-send failure caused the cancellation: rejoinable, so
		// mark it transient (the cancellation in its chain would
		// otherwise classify it permanent).
		if hbFailed.Load() && ctx.Err() == nil {
			return resilience.MarkTransient(fmt.Errorf("distrib: heartbeat send failed (coordinator connection wedged): %w", err))
		}
		return err
	}

	for {
		if err := sctx.Err(); err != nil {
			return failed(err)
		}
		if err := cd.Send(msgLeaseRequest, leaseRequestMsg{Capacity: w.capacity}); err != nil {
			return failed(fmt.Errorf("distrib: lease request: %w", err))
		}
		cd.SetReadDeadline(time.Now().Add(silence))
		t, payload, err := cd.Recv()
		cd.SetReadDeadline(time.Time{})
		if err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				return failed(fmt.Errorf("distrib: coordinator silent for %v awaiting lease: %w", silence, err))
			}
			return failed(fmt.Errorf("distrib: awaiting lease: %w", err))
		}
		var lease leaseMsg
		switch t {
		case msgLease:
			if err := decode(t, payload, &lease); err != nil {
				return err
			}
		case msgLeaseBin:
			var err error
			if lease, err = decodeLeaseBin(payload); err != nil {
				return err
			}
		case msgDone:
			cd.Send(msgBye, byeMsg{})
			return nil
		case msgError:
			var e errorMsg
			if err := decode(t, payload, &e); err != nil {
				return err
			}
			return resilience.MarkPermanent(fmt.Errorf("distrib: coordinator error: %s", e.Reason))
		default:
			return fmt.Errorf("distrib: unexpected message type %d awaiting lease", t)
		}
		if len(lease.Tasks) == 0 {
			continue // the request already waited out the coordinator's park
		}
		if err := w.runLease(sctx, cd, lease); err != nil {
			return failed(err)
		}
	}
}

// runLease executes one lease's tasks on the pool and reports results
// (success or exhausted failure) to the coordinator, tagged with the
// session's epoch and coalesced into batched uploads (see uploader).
// Only transport-level send failures end the lease early.
func (w *worker) runLease(ctx context.Context, cd *comms.Codec, lease leaseMsg) error {
	up := newUploader(cd, w.bin, w.uploadBatch, lease.TTL)
	// A pool job is a lane group (cluster.Group) of the lease's tasks, run
	// in index order, each task uploaded as its own result.
	groups := cluster.Groups(lease.Tasks, w.nK, w.nE)
	err := w.pool.ForEach(ctx, "distrib-lease", len(groups), func(ctx context.Context, gi int) error {
		_, err := groups[gi].Run(ctx, func(gctx context.Context, idx int) error {
			payload, retries, runErr := cluster.Attempt(gctx, w.opts.Retry, w.opts.Injector, idx, cluster.TaskAt(idx, w.nK, w.nE), w.fn)
			if runErr != nil && ctx.Err() != nil {
				return runErr // canceled mid-task: nothing to report
			}
			res := resultMsg{Task: idx, Retries: retries, Perf: w.meter.Delta(), Epoch: w.epoch}
			if runErr != nil {
				res.Failed = true
				res.Error = runErr.Error()
			} else {
				res.Payload = payload
			}
			return up.add(res)
		})
		return err
	})
	if err != nil {
		if te, ok := sched.AsTaskError(err); ok {
			err = te.Err
		}
		if ctx.Err() != nil {
			return err // canceled: the lease will expire, nothing to flush
		}
		// A task failed terminally but results already accumulated still
		// belong to the coordinator; flush them before surfacing.
		up.flush()
		return err
	}
	return up.flush()
}

// uploader coalesces finished results into batched upload frames: one
// frame per UploadBatch results instead of one per task. A batch also
// flushes when its oldest result has waited a quarter of the lease TTL,
// so a batch can never age a lease into expiry, and at lease end.
type uploader struct {
	cd         *comms.Codec
	bin        bool
	max        int
	flushAfter time.Duration

	mu     sync.Mutex
	buf    []resultMsg
	oldest time.Time
}

// newUploader sizes an uploader for one lease.
func newUploader(cd *comms.Codec, bin bool, max int, ttl time.Duration) *uploader {
	flushAfter := ttl / 4
	if flushAfter <= 0 {
		flushAfter = time.Second
	}
	return &uploader{cd: cd, bin: bin, max: max, flushAfter: flushAfter}
}

// add queues one result, flushing when the batch is full or overdue.
func (u *uploader) add(res resultMsg) error {
	u.mu.Lock()
	defer u.mu.Unlock()
	if len(u.buf) == 0 {
		u.oldest = time.Now()
	}
	u.buf = append(u.buf, res)
	if len(u.buf) >= u.max || time.Since(u.oldest) >= u.flushAfter {
		return u.flushLocked()
	}
	return nil
}

// flush sends any buffered results.
func (u *uploader) flush() error {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.flushLocked()
}

// flushLocked sends the buffered batch as one frame. Callers hold mu;
// the send is serialized by the codec anyway, and holding mu keeps batch
// order deterministic.
func (u *uploader) flushLocked() error {
	if len(u.buf) == 0 {
		return nil
	}
	batch := u.buf
	u.buf = u.buf[:0]
	if u.bin {
		return u.cd.SendBin(msgResultBatchBin, func(bw *comms.BinWriter) {
			appendResultBatchBin(bw, batch)
		})
	}
	return u.cd.Send(msgResultBatch, resultBatchMsg{Results: batch})
}
