package distrib

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/comms"
	"repro/internal/sched"
)

// TestPreDoneHangupIsCrash pins the semantic the done message
// exists for: a coordinator that hangs up before sending done crashed,
// and a worker without a rejoin window must surface that as an error —
// under v2 the same hangup was indistinguishable from completion and the
// worker exited 0, stranding the sweep with nobody noticing.
func TestPreDoneHangupIsCrash(t *testing.T) {
	server, client := net.Pipe()
	go func() {
		// A fake coordinator: welcome the worker, then die mid-run.
		cd := comms.NewCodec(server)
		mt, payload, err := cd.Recv()
		if err != nil || mt != msgHello {
			cd.Close()
			return
		}
		var hello helloMsg
		if decode(mt, payload, &hello) != nil {
			cd.Close()
			return
		}
		cd.Send(msgWelcome, welcomeMsg{
			NBias: hello.NBias, NK: hello.NK, NE: hello.NE,
			HeartbeatEvery: 50 * time.Millisecond, LeaseTimeout: time.Second,
		})
		// Consume exactly one lease request so the worker is demonstrably
		// mid-run, then vanish without a done.
		cd.Recv()
		cd.Close()
	}()

	err := RunWorker(context.Background(), client, 1, 1, 4, WorkerOptions{
		ID: "orphan", Pool: sched.New(1),
		Logf: func(string, ...any) {},
	}, workerFn(1, 4, nil, nil))
	if err == nil {
		t.Fatal("worker exited cleanly after a pre-done hangup")
	}
	if !strings.Contains(err.Error(), "lost coordinator") {
		t.Fatalf("error %q does not name the lost coordinator", err)
	}
}

// TestWorkerRejoinAcrossRestart is the in-process version of the failover
// drill: a coordinator at epoch 1 is killed mid-sweep, a successor at
// epoch 2 resumes from the same journal, and a worker with a rejoin
// window re-dials, re-handshakes into the same run, observes the epoch
// bump, and finishes the sweep. The merged observables must be exact, the
// journal must hold exactly one record per task across both incarnations,
// and the re-summed flop total must equal the serial count.
func TestWorkerRejoinAcrossRestart(t *testing.T) {
	const nBias, nK, nE = 1, 1, 12
	total := nBias * nK * nE
	lb := comms.NewLoopback()
	lis1, err := lb.Listen("coord")
	if err != nil {
		t.Fatal(err)
	}
	journal := &cluster.MemJournal{}
	res1 := newResults(nBias, nK, nE)

	// Kill coordinator #1 once a few tasks have landed.
	ctx1, kill := context.WithCancel(context.Background())
	var killOnce sync.Once
	ch1 := serveAsync(ctx1, lis1, nBias, nK, nE, Options{
		Journal: journal,
		Restore: res1.restore,
		RunID:   "run-rejoin",
		Epoch:   1,
		OnProgress: func(done, _ int) {
			if done >= 3 {
				killOnce.Do(kill)
			}
		},
	})

	var logMu sync.Mutex
	var logs []string
	meter := &flopMeter{}
	workerErr := make(chan error, 1)
	go func() {
		conn, err := comms.DialRetry(context.Background(), lb, "coord", 5*time.Second)
		if err != nil {
			workerErr <- err
			return
		}
		workerErr <- RunWorker(context.Background(), conn, nBias, nK, nE, WorkerOptions{
			ID: "survivor", Pool: sched.New(1), PerfNow: meter.now,
			RejoinWindow: 15 * time.Second,
			Dial: func(ctx context.Context) (net.Conn, error) {
				return comms.DialRetry(ctx, lb, "coord", 15*time.Second)
			},
			Logf: func(format string, args ...any) {
				logMu.Lock()
				logs = append(logs, fmt.Sprintf(format, args...))
				logMu.Unlock()
			},
		}, workerFn(nK, nE, meter, withDelay(5*time.Millisecond, nil)))
	}()

	r1 := <-ch1
	if !errors.Is(r1.err, context.Canceled) {
		t.Fatalf("coordinator #1 exit = %v, want the injected kill (context.Canceled)", r1.err)
	}
	if got := journal.Len(); got == 0 || got >= total {
		t.Fatalf("journal holds %d records at the crash, want a strict partial (0 < n < %d)", got, total)
	}

	// Coordinator #2: same journal, same run ID, next epoch.
	lis2, err := lb.Listen("coord")
	if err != nil {
		t.Fatalf("re-listen after crash: %v", err)
	}
	res2 := newResults(nBias, nK, nE)
	ch2 := serveAsync(context.Background(), lis2, nBias, nK, nE, Options{
		Journal: journal,
		Restore: res2.restore,
		RunID:   "run-rejoin",
		Epoch:   2,
	})
	rep := waitServe(t, ch2)
	if err := <-workerErr; err != nil {
		t.Fatalf("worker did not survive the coordinator restart: %v", err)
	}

	// The epoch-2 log line is the rejoin path's: a worker logs the epoch
	// it adopts only after re-dialing and re-handshaking.
	logMu.Lock()
	var sawEpoch bool
	for _, l := range logs {
		if strings.Contains(l, "epoch 2") {
			sawEpoch = true
		}
	}
	logMu.Unlock()
	if !sawEpoch {
		t.Errorf("worker never logged the epoch bump; logs: %q", logs)
	}

	// res2 saw every task exactly once: the journaled prefix at seed time,
	// the remainder as live results.
	checkValues(t, res2, nil)
	if journal.Len() != total {
		t.Fatalf("journal has %d records across both incarnations, want exactly %d", journal.Len(), total)
	}
	if rep.Sweep.Restored+rep.Sweep.Completed != total {
		t.Fatalf("restored %d + completed %d != %d", rep.Sweep.Restored, rep.Sweep.Completed, total)
	}
	if want := serialFlops(total, nil); rep.Perf.Flops != want {
		t.Fatalf("merged flops across restart = %d, serial total = %d", rep.Perf.Flops, want)
	}
}

// TestGracefulDrain closes the drain channel mid-sweep and verifies the
// SIGTERM contract: the coordinator stops granting, accepts the in-flight
// results, returns ErrDrained with honest partial accounting, the worker
// is dismissed cleanly (exit nil, not a crash), and a successor run
// finishes the remainder from the journal.
func TestGracefulDrain(t *testing.T) {
	const nBias, nK, nE = 1, 1, 10
	total := nBias * nK * nE
	lb := comms.NewLoopback()
	lis, err := lb.Listen("coord")
	if err != nil {
		t.Fatal(err)
	}
	journal := &cluster.MemJournal{}
	res := newResults(nBias, nK, nE)
	drain := make(chan struct{})
	var drainOnce sync.Once
	ch := serveAsync(context.Background(), lis, nBias, nK, nE, Options{
		Journal:      journal,
		Restore:      res.restore,
		DrainTimeout: 5 * time.Second,
		Drain:        drain,
		OnProgress: func(done, _ int) {
			if done >= 2 {
				drainOnce.Do(func() { close(drain) })
			}
		},
	})
	workerErr := make(chan error, 1)
	go func() {
		workerErr <- RunWorker(context.Background(), dial(t, lb, "coord"), nBias, nK, nE,
			WorkerOptions{ID: "drained", Pool: sched.New(1), Logf: func(string, ...any) {}},
			workerFn(nK, nE, nil, withDelay(10*time.Millisecond, nil)))
	}()

	r := <-ch
	if !errors.Is(r.err, ErrDrained) {
		t.Fatalf("Serve = %v, want ErrDrained", r.err)
	}
	if err := <-workerErr; err != nil {
		t.Fatalf("drained worker exited with %v, want a clean done dismissal", err)
	}
	done := r.rep.Sweep.Completed + r.rep.Sweep.Restored
	if done == 0 || done >= total {
		t.Fatalf("drain accounting: %d done of %d, want a strict partial", done, total)
	}
	if journal.Len() != done {
		t.Fatalf("journal has %d records, drain reported %d done", journal.Len(), done)
	}

	// The drained journal resumes to completion.
	lis2, err := lb.Listen("coord")
	if err != nil {
		t.Fatal(err)
	}
	res2 := newResults(nBias, nK, nE)
	ch2 := serveAsync(context.Background(), lis2, nBias, nK, nE, Options{
		Journal: journal, Restore: res2.restore,
	})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := RunWorker(context.Background(), dial(t, lb, "coord"), nBias, nK, nE,
			WorkerOptions{Pool: sched.New(1)}, workerFn(nK, nE, nil, nil)); err != nil {
			t.Errorf("resume worker: %v", err)
		}
	}()
	rep2 := waitServe(t, ch2)
	wg.Wait()
	checkValues(t, res2, nil)
	if rep2.Sweep.Restored != done || journal.Len() != total {
		t.Fatalf("resume restored %d (want %d), journal %d (want %d)",
			rep2.Sweep.Restored, done, journal.Len(), total)
	}
}

// TestEpochFenceDiscardsStaleResults drives the committer directly with the
// interleaving the fence exists for: a result computed under coordinator
// incarnation 1 arrives at incarnation 2, whose lease table was re-seeded
// from the journal. Accepting it would race the re-dispatched twin for a
// duplicate journal record; the fence must discard it, count it, and
// leave the lease table untouched.
func TestEpochFenceDiscardsStaleResults(t *testing.T) {
	const total = 2
	journal := &cluster.MemJournal{}
	c := newCoordinator(1, 1, total, Options{Epoch: 2, Journal: journal}.withDefaults(), make([]bool, total))
	w := c.table.join("ghost")
	tasks, over, _ := c.table.grant(w, total, time.Now())
	if over || len(tasks) != total {
		t.Fatalf("grant = %v over=%v, want both tasks", tasks, over)
	}

	// Stale: tagged with the dead incarnation.
	if err := commitOne(c, w.id, resultMsg{Task: 0, Payload: encodeVal(valFor(0)), Epoch: 1}); err != nil {
		t.Fatalf("stale result: %v", err)
	}
	if journal.Len() != 0 {
		t.Fatal("stale-epoch result reached the journal")
	}
	if tb := c.table; tb.staleEpoch != 1 || tb.remaining != total || tb.st[0].phase != stateLeased {
		t.Fatalf("after stale result: staleEpoch=%d remaining=%d phase=%d, want 1/%d/leased",
			tb.staleEpoch, tb.remaining, tb.st[0].phase, total)
	}

	// Current-epoch results are accepted as usual.
	for idx := 0; idx < total; idx++ {
		if err := commitOne(c, w.id, resultMsg{Task: idx, Payload: encodeVal(valFor(idx)), Epoch: 2}); err != nil {
			t.Fatalf("current result %d: %v", idx, err)
		}
	}
	if journal.Len() != total {
		t.Fatalf("journal has %d records, want %d", journal.Len(), total)
	}
	rep := &Report{Sweep: &cluster.SweepReport{Total: total}}
	c.fill(rep)
	if rep.StaleEpoch != 1 || rep.Sweep.Completed != total {
		t.Fatalf("report StaleEpoch=%d Completed=%d, want 1/%d", rep.StaleEpoch, rep.Sweep.Completed, total)
	}
}

// TestChaosSweepStillExact runs a sweep through deterministically hostile
// connections — cuts, stalls, and bit flips on every worker conn — and
// requires the full correctness contract anyway: every observable exact,
// exactly one journal record per task, and the merged flop total equal to
// the serial count. Cuts exercise the rejoin loop against a live
// coordinator; corruption exercises the frame CRC (a flipped bit must
// surface as a dropped conn and a re-dispatch, never as silent damage).
func TestChaosSweepStillExact(t *testing.T) {
	const nBias, nK, nE = 1, 2, 10
	total := nBias * nK * nE
	lb := comms.NewLoopback()
	chaos := &comms.ChaosTransport{Inner: lb, Cfg: comms.ChaosConfig{
		Seed:        0xC0FFEE,
		CutRate:     0.04,
		DelayRate:   0.05,
		MaxDelay:    time.Millisecond,
		CorruptRate: 0.02,
	}}
	lis, err := lb.Listen("coord")
	if err != nil {
		t.Fatal(err)
	}
	journal := &cluster.MemJournal{}
	res := newResults(nBias, nK, nE)
	ch := serveAsync(context.Background(), lis, nBias, nK, nE, Options{
		Journal:      journal,
		Restore:      res.restore,
		RunID:        "run-chaos",
		Epoch:        1,
		LeaseTimeout: 500 * time.Millisecond,
	})

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := comms.DialRetry(context.Background(), chaos, "coord", 10*time.Second)
			if err != nil {
				t.Errorf("worker %d dial: %v", i, err)
				return
			}
			meter := &flopMeter{}
			// The worker's exit code is not asserted: the done dismissal
			// itself can fall to chaos (cut or corrupted), in which case the
			// worker burns its rejoin window against a closed listener and
			// reports an error — the sweep's correctness must not depend on
			// the dismissal frame surviving.
			RunWorker(context.Background(), conn, nBias, nK, nE, WorkerOptions{
				ID: fmt.Sprintf("chaos-%d", i), Pool: sched.New(1), PerfNow: meter.now,
				HandshakeTimeout: 2 * time.Second,
				RejoinWindow:     2 * time.Second,
				Dial: func(ctx context.Context) (net.Conn, error) {
					return comms.DialRetry(ctx, chaos, "coord", 2*time.Second)
				},
				Logf: func(string, ...any) {},
			}, workerFn(nK, nE, meter, withDelay(2*time.Millisecond, nil)))
		}(i)
	}
	rep := waitServe(t, ch)
	wg.Wait()

	checkValues(t, res, nil)
	if journal.Len() != total {
		t.Fatalf("journal has %d records, want exactly %d", journal.Len(), total)
	}
	if rep.Sweep.Completed != total {
		t.Fatalf("completed %d of %d", rep.Sweep.Completed, total)
	}
	if want := serialFlops(total, nil); rep.Perf.Flops != want {
		t.Fatalf("merged flops under chaos = %d, serial total = %d", rep.Perf.Flops, want)
	}
	t.Logf("chaos sweep: %d workers seen, %d redispatched, %d stale-epoch discards",
		rep.Workers, rep.Redispatched, rep.StaleEpoch)
}
