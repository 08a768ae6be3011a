// Package run is the one run harness of the distributed sweep: the
// coordinator lifecycle and the worker lifecycle that `omen -serve`,
// `omen -worker`, the `omend` job manager and its worker processes all
// share. It owns the composition around distrib.Serve and
// distrib.RunWorker — journal, run identity, replay, epoch, listener,
// worker fleet, assembly — exactly once; callers supply only what
// differs between them, through Hooks (DESIGN.md, "Run lifecycle").
package run

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/comms"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/perf"
	"repro/internal/resilience"
	"repro/internal/spec"
)

// SpawnFunc launches one worker (a process, or a goroutine calling Work)
// that dials addr and serves the given worker-variant spec until it is
// dismissed. It must respect ctx and return when the worker exits.
type SpawnFunc func(ctx context.Context, addr string, ws spec.RunSpec) error

// Hooks is everything a caller of Coordinate decides for itself.
type Hooks struct {
	// Addr is the TCP address the coordinator listens on (port 0 picks
	// a free one).
	Addr string
	// Spawn launches each of the spec's Exec.Workers self-spawned
	// workers. It may be nil when Exec.Workers is 0 (external fleet) —
	// and is never called on a replay.
	Spawn SpawnFunc
	// Drain, when it becomes receivable, drains the run gracefully:
	// Coordinate then returns distrib.ErrDrained with the journal
	// resumable (SIGTERM for omen, Job.requestDrain for the service).
	Drain <-chan struct{}
	// OnIdentity observes the journal-derived run identity once it is
	// settled: the RunID of the header and this incarnation's epoch.
	OnIdentity func(runID string, epoch uint64)
	// OnProgress and OnResult are distrib.Options' observers; OnProgress
	// additionally fires with (0, total) as soon as the grid is planned.
	OnProgress func(done, total int)
	OnResult   func(task cluster.Task, payload []byte)
	// Logf receives the operator-facing lines (default: discard).
	Logf func(format string, args ...any)
}

// Outcome is what a coordinated run produced. Coordinate returns it
// non-nil even with an error, describing how far the run got.
type Outcome struct {
	// Sweep is the assembled result; nil unless the run finished.
	Sweep *core.TransmissionSweep
	// Report is the task accounting (nil if the engine never started).
	Report *cluster.SweepReport
	// Perf is the exact merge of the per-task perf deltas.
	Perf perf.Snapshot
	// Workers, Redispatched, Shards and Steals are distrib.Report's.
	Workers, Redispatched, Shards, Steals int
	// RunID and Epoch are the journal-derived identity ("" and 0
	// without a journal).
	RunID string
	Epoch uint64
	// Replayed reports that the journal already covered the grid: the
	// result was restored from disk with no listener, worker or write.
	Replayed bool
}

// ClusterLines returns the comment lines a coordinated run's text report
// carries ahead of its counters (core.WriteSweep's extra lines).
func (o *Outcome) ClusterLines() []string {
	lines := []string{fmt.Sprintf("# cluster: %d workers, %d leases re-dispatched", o.Workers, o.Redispatched)}
	if o.Shards > 1 {
		// Only sharded runs print the line, so single-shard output stays
		// byte-identical to what it was before shards existed.
		lines = append(lines, fmt.Sprintf("# shards: %d, steals: %d", o.Shards, o.Steals))
	}
	return lines
}

// Coordinate runs the built spec's transmission sweep as the coordinator
// of a distributed run, start to finish:
//
//  1. open the spec's journal with fsync — the coordinator's journal is
//     the cluster's source of truth;
//  2. read the journal once: RunID, epoch, replay decision;
//  3. on resume, replay: a journal that already covers the grid is
//     restored and assembled, and nothing else happens;
//  4. otherwise bump the epoch on resume — the incarnation a resume
//     replaces is dead by definition, and its in-flight results must be
//     fenced out, not double-counted;
//  5. listen;
//  6. spawn the self-spawned workers;
//  7. serve, once: a Serve error (or a panic on its goroutine) ends the
//     run with the journal resumable at its epoch, and recovery is a
//     later -resume, which bumps it;
//  8. wait for the spawned workers;
//  9. assemble.
func Coordinate(ctx context.Context, b *spec.Built, h Hooks) (*Outcome, error) {
	s := b.Spec
	logf := h.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	out := &Outcome{}
	plan, err := b.Sim.PlanTransmission(b.Grid, nil)
	if err != nil {
		return out, err
	}
	nBias, nK, nE := plan.Dims()
	total := nBias * nK * nE
	if h.OnProgress != nil {
		h.OnProgress(0, total)
	}

	opts := distrib.Options{
		LeaseTimeout: s.Exec.LeaseTimeout.Std(),
		DrainTimeout: s.Exec.DrainTimeout.Std(),
		Shards:       s.Exec.Shards,
		WireFormat:   s.Exec.WireFormat,
		Restore:      plan.Restore,
		Quarantine:   s.Resilience.Quarantine,
		OnProgress:   h.OnProgress,
		OnResult:     h.OnResult,
		SpecHash:     s.SpecHash(),
		Drain:        h.Drain,
	}
	j, err := spec.OpenJournal(s, func(format string, args ...any) {
		logf("warning: "+format, args...)
	}, cluster.WithFsync())
	if err != nil {
		return out, err
	}
	if j != nil {
		defer j.Close()
		opts.Journal = j
		// Read the journal once: RunID, epoch, replay decision.
		c, err := j.Read()
		if err != nil {
			return out, err
		}
		if c.Header != nil {
			out.RunID = c.Header.RunID
		}
		out.Epoch = c.Epoch
		if s.Resilience.Resume {
			if err := replay(c.Records, plan, out); err != nil {
				return out, err
			}
			if !out.Replayed {
				if out.Epoch, err = j.BumpEpoch(); err != nil {
					return out, err
				}
			}
		}
		if h.OnIdentity != nil {
			h.OnIdentity(out.RunID, out.Epoch)
		}
		if out.Replayed {
			logf("journal %s covers all %d tasks — replayed, no workers started", s.Resilience.Checkpoint, total)
			return out, nil
		}
		opts.RunID, opts.Epoch = out.RunID, out.Epoch
		logf("run %s epoch %d", out.RunID, out.Epoch)
	}
	if s.Exec.Workers > 0 && h.Spawn == nil {
		return out, errors.New("run: the spec asks for self-spawned workers but no spawn function is configured")
	}

	lis, err := comms.TCP{}.Listen(h.Addr)
	if err != nil {
		return out, err
	}
	// The workers dial the concrete address (Addr may carry port 0).
	addr := comms.DialableAddr(lis.Addr())
	logf("%s — coordinating %d tasks on %s", s.Summary(), total, lis.Addr())
	if s.Exec.Workers == 0 {
		// Zero self-spawned workers is a legitimate deployment, but
		// without this notice a bare `omen -serve` looks hung.
		logf("no self-spawned workers (-workers 0); waiting for external `omen -worker %s` processes to connect", addr)
	}

	wctx, stopWorkers := context.WithCancel(ctx)
	defer stopWorkers()
	var children sync.WaitGroup
	ws := s.WorkerVariant()
	for i := 0; i < s.Exec.Workers; i++ {
		children.Add(1)
		go func(i int) {
			defer children.Done()
			if werr := h.Spawn(wctx, addr, ws); werr != nil && wctx.Err() == nil {
				// A dead worker is tolerated: its leases re-dispatch.
				logf("worker %d exited: %v", i, werr)
			}
		}(i)
	}

	// resilience.Call turns a panic on the serve path into this run's
	// error, so it ends one omend job, not the daemon.
	var rep *distrib.Report
	err = resilience.Call(ctx, func(ctx context.Context) error {
		var serr error
		rep, serr = distrib.Serve(ctx, lis, nBias, nK, nE, opts)
		return serr
	})
	if err != nil && !errors.Is(err, distrib.ErrDrained) {
		// Nobody dismissed the fleet; do not sit out its dial and
		// rejoin patience.
		stopWorkers()
	}
	children.Wait()
	if rep != nil {
		out.Report, out.Perf = rep.Sweep, rep.Perf
		out.Workers, out.Redispatched = rep.Workers, rep.Redispatched
		out.Shards, out.Steals = rep.Shards, rep.Steals
	}
	if err != nil {
		return out, err
	}
	out.Sweep = plan.Assemble(rep.Sweep)
	return out, nil
}

// replay serves a run entirely from its journal when that already holds
// a verified result for every task: one record per task restored into
// the plan and assembled, the flop total the sum cluster.Seed makes of
// the journaled per-task perf deltas — zero new solves, no listener, no
// worker, no write. It leaves out.Replayed false when the journal does
// not cover the grid (the caller falls through to a live run).
func replay(recs []cluster.TaskRecord, plan *core.TransmissionPlan, out *Outcome) error {
	nBias, nK, nE := plan.Dims()
	done, n, sum, err := cluster.Seed(recs, nBias, nK, nE, plan.Restore)
	if err != nil {
		return fmt.Errorf("replay %w", err)
	}
	if n < len(done) {
		// Not covered: the live run that follows restores these records
		// again, into the same slots.
		return nil
	}
	out.Report = &cluster.SweepReport{Total: n, Restored: n}
	out.Sweep = plan.Assemble(out.Report)
	out.Perf = sum
	out.Replayed = true
	return nil
}

// Work runs one worker of a distributed run: build the spec, dial the
// coordinator (with patience — workers often start first), pull task
// leases, solve them on the local pool, report results. It returns nil
// only when the coordinator dismisses it with an explicit done; a hangup
// before that means the coordinator crashed, and with the spec's
// RejoinWindow set the worker re-dials the same address, re-handshakes
// under the pinned run ID, and resumes under the replacement's epoch. A
// coordinator running a different spec rejects it at the handshake.
func Work(ctx context.Context, s spec.RunSpec, addr string) error {
	if err := s.ValidateFor(spec.RoleWorker); err != nil {
		return err
	}
	b, err := spec.Build(s)
	if err != nil {
		return err
	}
	plan, err := b.Sim.PlanTransmission(b.Grid, nil)
	if err != nil {
		return err
	}
	nBias, nK, nE := plan.Dims()
	conn, err := comms.DialRetry(ctx, comms.TCP{}, addr, 30*time.Second)
	if err != nil {
		return err
	}
	host, _ := os.Hostname()
	rejoin := s.Exec.RejoinWindow.Std()
	return distrib.RunWorker(ctx, conn, nBias, nK, nE, distrib.WorkerOptions{
		ID:   fmt.Sprintf("%s-%d", host, os.Getpid()),
		Pool: plan.Pool(),
		// Batched leases amortize the request/grant round-trip over
		// several tasks per width-1 pool; the coalesced uploads piggyback
		// on the same batch size.
		Capacity:     distrib.DefaultLeaseBatch,
		WireFormat:   s.Exec.WireFormat,
		Retry:        b.RetryPolicy(),
		Injector:     b.Injector(),
		SpecHash:     s.SpecHash(),
		RejoinWindow: rejoin,
		Dial: func(ctx context.Context) (net.Conn, error) {
			return comms.DialRetry(ctx, comms.TCP{}, addr, rejoin)
		},
	}, plan.Run)
}

// ReExec is the one re-exec SpawnFunc: it runs a worker as a child
// process of this binary, `os.Args[0] -worker ADDR -spec-json SPEC`. The
// one serialized spec is the worker's whole configuration — no per-flag
// argv mirroring to drift — and every binary that coordinates (omen,
// omend) answers that command line by calling Work.
func ReExec(ctx context.Context, addr string, ws spec.RunSpec) error {
	wj, err := ws.Canonical()
	if err != nil {
		return err
	}
	cmd := exec.CommandContext(ctx, os.Args[0], "-worker", addr, "-spec-json", string(wj))
	cmd.Stderr = os.Stderr
	return cmd.Run()
}
