package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/comms"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/resilience"
	"repro/internal/spec"
)

// workerArgs is the argv (minus argv[0]) a self-spawned worker is
// launched with: the dial address plus the one serialized spec that
// fully describes its run. No per-flag mirroring — a worker cannot
// drift from the coordinator because it is launched with the
// coordinator's own spec (in its worker variant: no journal, width-1
// pool for exact flop merging; same content hash).
func workerArgs(s spec.RunSpec, dialAddr string) ([]string, error) {
	wj, err := s.WorkerVariant().Canonical()
	if err != nil {
		return nil, err
	}
	return []string{"-worker", dialAddr, "-spec-json", string(wj)}, nil
}

// runServeMode runs the transmission sweep as the coordinator of a
// distributed run: it owns the task grid, the checkpoint journal (opened
// with fsync — the coordinator's journal is the cluster's source of
// truth), and the assembly of worker results into observables. Workers
// connect over TCP; optionally this process spawns its own.
//
// With a journal the coordinator is crash-recoverable: a panic or an
// unexpected serve failure restarts it in place on the same address
// under a bumped epoch (see superviseServe), and a SIGTERM drains it
// gracefully — no new leases, in-flight results accepted for
// -drain-timeout, then a resumable exit with status 143.
func runServeMode(ctx context.Context, b *spec.Built, addr string, shardHold time.Duration, prog *progress) error {
	s := b.Spec
	plan, err := b.Sim.PlanTransmission(b.Grid, nil)
	if err != nil {
		return err
	}
	nBias, nK, nE := plan.Dims()

	opts := distrib.Options{
		LeaseTimeout: s.Exec.LeaseTimeout.Std(),
		DrainTimeout: s.Exec.DrainTimeout.Std(),
		Restore:      plan.Restore,
		Quarantine:   s.Resilience.Quarantine,
		OnProgress:   prog.set,
		SpecHash:     s.SpecHash(),
		Shards:       s.Exec.Shards,
		WireFormat:   s.Exec.WireFormat,
		ShardHold:    shardHold,
	}
	j, closeJournal, err := openJournal(s, cluster.WithFsync())
	if err != nil {
		return err
	}
	if j != nil {
		defer closeJournal()
		opts.Journal = j
		// The failover fencing identity lives in the journal: the RunID
		// pins rejoining workers to this run instance, the epoch fences
		// out results produced under a previous coordinator incarnation.
		// A resumed journal bumps the epoch — the incarnation it replaces
		// is dead by definition, and anything still in flight from it must
		// not be double-counted.
		if h, herr := j.ReadHeader(); herr == nil && h != nil {
			opts.RunID = h.RunID
		}
		epoch, eerr := j.LatestEpoch()
		if s.Resilience.Resume {
			epoch, eerr = j.BumpEpoch()
		}
		if eerr != nil {
			return eerr
		}
		opts.Epoch = epoch
		fmt.Fprintf(os.Stderr, "omen: run %s epoch %d\n", opts.RunID, opts.Epoch)
	}

	// SIGTERM is the graceful-drain signal (SIGINT stays the hard
	// cooperative cancel): stop granting leases, keep accepting results
	// already in flight, fsync the journal, exit resumable.
	drain := make(chan struct{})
	sigC := make(chan os.Signal, 1)
	signal.Notify(sigC, syscall.SIGTERM)
	defer signal.Stop(sigC)
	go func() {
		<-sigC
		fmt.Fprintf(os.Stderr, "omen: SIGTERM — draining (accepting in-flight results for up to %v)\n",
			opts.DrainTimeout)
		close(drain)
	}()
	opts.Drain = drain

	lis, err := comms.TCP{}.Listen(addr)
	if err != nil {
		return err
	}
	// The concrete dialable address is captured once: a restarted
	// incarnation must come back on the same address the workers' rejoin
	// loops are re-dialing ("addr" may carry port 0).
	liveAddr := comms.DialableAddr(lis.Addr())
	fmt.Fprintf(os.Stderr, "omen: %s — coordinating %d tasks on %s\n", s.Summary(), nBias*nK*nE, lis.Addr())

	var children sync.WaitGroup
	selfWorkers := s.Exec.Workers
	if selfWorkers == 0 {
		// In serve mode -workers means self-spawned worker processes, and
		// zero of them is a legitimate deployment (external workers dial
		// in) — but without this notice a bare `omen -serve` looks hung.
		fmt.Fprintf(os.Stderr, "omen: no self-spawned workers (-workers 0); waiting for external `omen -worker %s` processes to connect\n",
			liveAddr)
	}
	if selfWorkers > 0 {
		args, err := workerArgs(s, liveAddr)
		if err != nil {
			lis.Close()
			return err
		}
		for i := 0; i < selfWorkers; i++ {
			cmd := exec.CommandContext(ctx, os.Args[0], args...)
			cmd.Stderr = os.Stderr
			if err := cmd.Start(); err != nil {
				lis.Close()
				return fmt.Errorf("spawn worker: %w", err)
			}
			children.Add(1)
			go func(cmd *exec.Cmd, i int) {
				defer children.Done()
				if err := cmd.Wait(); err != nil {
					// A dead worker is tolerated, not fatal: its leases are
					// re-dispatched. Note it for the operator and move on.
					fmt.Fprintf(os.Stderr, "omen: worker %d exited: %v\n", i, err)
				}
			}(cmd, i)
		}
	}

	rep, err := superviseServe(ctx, lis, liveAddr, nBias, nK, nE, j, opts)
	children.Wait()
	if errors.Is(err, distrib.ErrDrained) {
		// Deliberately resumable: every committed result is journaled, and
		// 143 (128+SIGTERM) tells the supervisor upstream this was the
		// graceful path, not a crash. os.Exit skips the deferred cleanups,
		// so flush them here.
		stopProfiles()
		closeJournal()
		fmt.Fprintf(os.Stderr, "omen: drained — completed %d/%d tasks; rerun with -resume to finish\n",
			prog.done.Load(), prog.total.Load())
		os.Exit(143)
	}
	if err != nil {
		return err
	}

	sweep := plan.Assemble(rep.Sweep)
	extra := []string{fmt.Sprintf("# cluster: %d workers, %d leases re-dispatched", rep.Workers, rep.Redispatched)}
	if rep.Shards > 1 {
		// Only sharded runs print the line, so single-shard drill output
		// stays byte-identical across this feature's introduction.
		extra = append(extra, fmt.Sprintf("# shards: %d, steals: %d", rep.Shards, rep.Steals))
	}
	core.WriteSweep(os.Stdout, sweep, rep.Perf, extra...)
	return nil
}

// superviseServe runs distrib.Serve under a crash supervisor. With a
// journal on disk a coordinator failure — a panic in the serve path or
// an unexpected error — is survivable: every committed result is already
// journaled, so the coordinator restarts in place (same address, bumped
// epoch) and the sweep continues with whatever workers rejoin. Context
// cancellation, graceful drains, and journal-less runs pass straight
// through: without a journal a restart would silently redo work. So does
// a failed task (distrib.ErrTaskFailed): it is the sweep's verdict, the
// workers have been dismissed, and a restart would wait on them for ever.
func superviseServe(ctx context.Context, lis net.Listener, liveAddr string, nBias, nK, nE int, j *cluster.FileJournal, opts distrib.Options) (*distrib.Report, error) {
	const maxRestarts = 3
	for attempt := 0; ; attempt++ {
		var rep *distrib.Report
		err := resilience.Call(ctx, func(ctx context.Context) error {
			var serr error
			rep, serr = distrib.Serve(ctx, lis, nBias, nK, nE, opts)
			return serr
		})
		switch {
		case err == nil:
			return rep, nil
		case errors.Is(err, distrib.ErrDrained), errors.Is(err, distrib.ErrTaskFailed):
			return rep, err
		case ctx.Err() != nil || j == nil || attempt >= maxRestarts:
			return rep, err
		}
		fmt.Fprintf(os.Stderr, "omen: coordinator failed (%v); restarting in place (%d/%d)\n",
			err, attempt+1, maxRestarts)
		// Serve closed the listener on its way down; reopen the captured
		// address so the workers' rejoin dials land on the incarnation
		// replacing the one that died, and bump the epoch so any result
		// still in flight from the dead incarnation is fenced out instead
		// of double-counted. The restarted Serve re-seeds its done set
		// (and re-sums the flop deltas) from the journal.
		lis.Close()
		nl, lerr := comms.TCP{}.Listen(liveAddr)
		if lerr != nil {
			return rep, fmt.Errorf("restart after %v: %w", err, lerr)
		}
		lis = nl
		epoch, eerr := j.BumpEpoch()
		if eerr != nil {
			lis.Close()
			return rep, fmt.Errorf("restart after %v: %w", err, eerr)
		}
		opts.Epoch = epoch
	}
}

// runWorkerMode runs the transmission sweep as one worker of a
// distributed run: dial the coordinator (with patience — workers often
// start first), pull task leases, solve them on the local pool, report
// results. The process exits cleanly only when the coordinator dismisses
// it with an explicit done; a hangup before that means the coordinator
// crashed, and with -rejoin-window set the worker re-dials the same
// address (jittered backoff), re-handshakes under the pinned run ID, and
// resumes pulling leases under the replacement's epoch. A coordinator
// running a different spec rejects this worker at the handshake (and
// vice versa).
func runWorkerMode(ctx context.Context, b *spec.Built, addr string) error {
	plan, err := b.Sim.PlanTransmission(b.Grid, nil)
	if err != nil {
		return err
	}
	nBias, nK, nE := plan.Dims()
	fmt.Fprintf(os.Stderr, "omen: %s — worker dialing %s\n", b.Spec.Summary(), addr)
	conn, err := comms.DialRetry(ctx, comms.TCP{}, addr, 30*time.Second)
	if err != nil {
		return err
	}
	host, _ := os.Hostname()
	rejoin := b.Spec.Exec.RejoinWindow.Std()
	return distrib.RunWorker(ctx, conn, nBias, nK, nE, distrib.WorkerOptions{
		ID:   fmt.Sprintf("%s-%d", host, os.Getpid()),
		Pool: plan.Pool(),
		// Batched leases amortize the request/grant round-trip over
		// several tasks per width-1 pool; the coalesced uploads piggyback
		// on the same batch size.
		Capacity:     distrib.DefaultLeaseBatch,
		WireFormat:   b.Spec.Exec.WireFormat,
		Retry:        b.RetryPolicy(),
		Injector:     b.Injector(),
		SpecHash:     b.Spec.SpecHash(),
		RejoinWindow: rejoin,
		Dial: func(ctx context.Context) (net.Conn, error) {
			return comms.DialRetry(ctx, comms.TCP{}, addr, rejoin)
		},
		OnRejoin: func() {
			// Everything computed under the dead epoch is fenced out by the
			// new coordinator, and a warm σ-cache would let the re-dispatched
			// twins of that work skip the decimation flops the serial run
			// counts — reset so the merged flop total stays exact.
			if b.Cache != nil {
				b.Cache.Reset()
			}
		},
	}, plan.Run)
}
