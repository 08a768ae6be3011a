package distrib

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/comms"
	"repro/internal/linalg"
	"repro/internal/perf"
	"repro/internal/resilience"
	"repro/internal/sched"
)

// valFor is the deterministic "observable" of a fake task — what a real
// sweep's transmission solve would compute from (bias, k, E).
func valFor(idx int) float64 { return float64(idx)*1.5 + 0.25 }

// costFor is the fake task's flop cost, distinct per task so a merged
// total that merely looks plausible cannot pass by accident.
func costFor(idx int) int64 { return int64(idx) + 1 }

func encodeVal(v float64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	return b[:]
}

// results accumulates restored payloads like a real plan's accumulators,
// counting restores per task to catch double-applied results.
type results struct {
	nK, nE int
	mu     sync.Mutex
	vals   []float64
	counts []int
}

func newResults(nBias, nK, nE int) *results {
	return &results{nK: nK, nE: nE, vals: make([]float64, nBias*nK*nE), counts: make([]int, nBias*nK*nE)}
}

func (r *results) flat(t cluster.Task) int { return (t.Bias*r.nK+t.K)*r.nE + t.E }

func (r *results) restore(t cluster.Task, payload []byte) error {
	if len(payload) != 8 {
		return fmt.Errorf("payload is %d bytes, want 8", len(payload))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	idx := r.flat(t)
	r.vals[idx] = math.Float64frombits(binary.LittleEndian.Uint64(payload))
	r.counts[idx]++
	return nil
}

// flopMeter is a per-worker stand-in for the process-global perf
// counters: in-process tests run every worker in one process, so each
// needs private counters for the delta arithmetic to mean anything.
type flopMeter struct{ n atomic.Int64 }

func (m *flopMeter) now() perf.Snapshot { return perf.Snapshot{Flops: m.n.Load()} }

// workerFn builds a sweep function that computes valFor and meters
// costFor, with an optional per-call hook (crash/straggle behavior).
func workerFn(nK, nE int, meter *flopMeter, hook func(idx int) error) cluster.SweepFunc {
	return func(ctx context.Context, t cluster.Task) ([]byte, error) {
		idx := (t.Bias*nK+t.K)*nE + t.E
		if hook != nil {
			if err := hook(idx); err != nil {
				return nil, err
			}
		}
		if meter != nil {
			meter.n.Add(costFor(idx))
		}
		return encodeVal(valFor(idx)), nil
	}
}

// withDelay paces a hook so trivial fake tasks don't let the first
// worker drain the whole grid before the test finishes dialing the rest.
func withDelay(d time.Duration, inner func(idx int) error) func(idx int) error {
	return func(idx int) error {
		time.Sleep(d)
		if inner != nil {
			return inner(idx)
		}
		return nil
	}
}

type serveResult struct {
	rep *Report
	err error
}

func serveAsync(ctx context.Context, lis net.Listener, nBias, nK, nE int, opts Options) chan serveResult {
	ch := make(chan serveResult, 1)
	go func() {
		rep, err := Serve(ctx, lis, nBias, nK, nE, opts)
		ch <- serveResult{rep, err}
	}()
	return ch
}

func dial(t *testing.T, lb *comms.Loopback, addr string) net.Conn {
	t.Helper()
	conn, err := lb.Dial(context.Background(), addr)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	return conn
}

func waitServe(t *testing.T, ch chan serveResult) *Report {
	t.Helper()
	select {
	case r := <-ch:
		if r.err != nil {
			t.Fatalf("Serve: %v", r.err)
		}
		return r.rep
	case <-time.After(30 * time.Second):
		t.Fatal("Serve did not finish")
		return nil
	}
}

func checkValues(t *testing.T, res *results, skip map[int]bool) {
	t.Helper()
	for idx, v := range res.vals {
		if skip[idx] {
			continue
		}
		if v != valFor(idx) {
			t.Fatalf("task %d: value %g, want %g", idx, v, valFor(idx))
		}
		if res.counts[idx] != 1 {
			t.Fatalf("task %d restored %d times, want exactly once", idx, res.counts[idx])
		}
	}
}

func serialFlops(total int, skip map[int]bool) int64 {
	var sum int64
	for idx := 0; idx < total; idx++ {
		if !skip[idx] {
			sum += costFor(idx)
		}
	}
	return sum
}

// commitOne runs one result through the committer as a group of its own
// and returns the failure it recorded, if any.
func commitOne(c *coordinator, worker string, res resultMsg) error {
	c.commit([]upload{{worker: worker, results: []resultMsg{res}}})
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.table.failure
}

// TestDistributedMatchesLocal is the baseline: a fault-free 3-worker run
// must reproduce the serial observables bitwise, append exactly one
// journal record per task, and merge the per-worker flop deltas to the
// exact serial total.
func TestDistributedMatchesLocal(t *testing.T) {
	const nBias, nK, nE = 2, 3, 8
	total := nBias * nK * nE
	lb := comms.NewLoopback()
	lis, err := lb.Listen("coord")
	if err != nil {
		t.Fatal(err)
	}
	res := newResults(nBias, nK, nE)
	journal := &cluster.MemJournal{}
	ch := serveAsync(context.Background(), lis, nBias, nK, nE, Options{
		Journal: journal,
		Restore: res.restore,
	})

	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		conn := dial(t, lb, "coord")
		wg.Add(1)
		go func(i int, conn net.Conn) {
			defer wg.Done()
			meter := &flopMeter{}
			err := RunWorker(context.Background(), conn, nBias, nK, nE, WorkerOptions{
				ID:      fmt.Sprintf("w%d", i),
				Pool:    sched.New(1),
				PerfNow: meter.now,
			}, workerFn(nK, nE, meter, withDelay(time.Millisecond, nil)))
			if err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
		}(i, conn)
	}
	rep := waitServe(t, ch)
	wg.Wait()

	checkValues(t, res, nil)
	// Serial reference through the local engine, compared through the same
	// payload channel (its journal) the distributed path uses.
	localJournal := &cluster.MemJournal{}
	if _, err := cluster.RunTasksResumable(context.Background(), nBias, nK, nE,
		cluster.SweepOptions{Journal: localJournal}, workerFn(nK, nE, nil, nil)); err != nil {
		t.Fatalf("local run: %v", err)
	}
	local := newResults(nBias, nK, nE)
	recs, err := localJournal.Load()
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := local.restore(cluster.TaskAt(rec.Index, nK, nE), rec.Payload); err != nil {
			t.Fatal(err)
		}
	}
	for idx := range res.vals {
		if math.Float64bits(res.vals[idx]) != math.Float64bits(local.vals[idx]) {
			t.Fatalf("task %d: distributed %x, local %x", idx,
				math.Float64bits(res.vals[idx]), math.Float64bits(local.vals[idx]))
		}
	}

	if rep.Sweep.Completed != total || rep.Sweep.Restored != 0 {
		t.Fatalf("report: %+v", rep.Sweep)
	}
	if journal.Len() != total {
		t.Fatalf("journal has %d records, want %d", journal.Len(), total)
	}
	if rep.Workers != 3 {
		t.Fatalf("workers = %d, want 3", rep.Workers)
	}
	if want := serialFlops(total, nil); rep.Perf.Flops != want {
		t.Fatalf("merged flops = %d, serial total = %d", rep.Perf.Flops, want)
	}
}

// TestWorkerCrashRedispatch kills one worker mid-lease (it dies after two
// tasks, leaving the rest of its lease orphaned) and verifies the
// re-dispatch path: every task still completes exactly once, observables
// are bitwise-identical to a fault-free run, the journal holds exactly
// one record per task, and the merged flop count still matches serial.
func TestWorkerCrashRedispatch(t *testing.T) {
	const nBias, nK, nE = 1, 4, 12
	total := nBias * nK * nE
	lb := comms.NewLoopback()
	lis, err := lb.Listen("coord")
	if err != nil {
		t.Fatal(err)
	}
	res := newResults(nBias, nK, nE)
	journal := &cluster.MemJournal{}
	ch := serveAsync(context.Background(), lis, nBias, nK, nE, Options{
		Journal: journal,
		Restore: res.restore,
	})

	// The victim leases 6 tasks, completes 2, then "dies": its connection
	// drops without a word, exactly like a kill -9 seen from the
	// coordinator's side of the socket.
	victimConn := dial(t, lb, "coord")
	victimMeter := &flopMeter{}
	var victimRuns atomic.Int64
	leased := make(chan struct{})
	var leasedOnce sync.Once
	victimHook := func(idx int) error {
		leasedOnce.Do(func() { close(leased) })
		if victimRuns.Add(1) > 2 {
			victimConn.Close()
			return errors.New("simulated kill -9")
		}
		return nil
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		err := RunWorker(context.Background(), victimConn, nBias, nK, nE, WorkerOptions{
			ID: "victim", Pool: sched.New(1), Capacity: 6, PerfNow: victimMeter.now,
		}, workerFn(nK, nE, victimMeter, victimHook))
		// A hang-up before the explicit done message is a
		// crash, not a clean exit: the victim must come back with an error
		// (its own severed connection), never nil.
		if err == nil {
			t.Error("victim worker exited cleanly despite dying mid-lease")
		}
	}()
	<-leased // make sure the victim holds a lease before the survivor drains the queue

	survivorConn := dial(t, lb, "coord")
	survivorMeter := &flopMeter{}
	wg.Add(1)
	go func() {
		defer wg.Done()
		err := RunWorker(context.Background(), survivorConn, nBias, nK, nE, WorkerOptions{
			ID: "survivor", Pool: sched.New(1), PerfNow: survivorMeter.now,
		}, workerFn(nK, nE, survivorMeter, nil))
		if err != nil {
			t.Errorf("survivor worker: %v", err)
		}
	}()

	rep := waitServe(t, ch)
	wg.Wait()

	checkValues(t, res, nil)
	if rep.Sweep.Completed != total {
		t.Fatalf("completed %d of %d", rep.Sweep.Completed, total)
	}
	if journal.Len() != total {
		t.Fatalf("journal has %d records, want exactly %d", journal.Len(), total)
	}
	if rep.Redispatched == 0 {
		t.Fatal("no leases were re-dispatched despite a worker death")
	}
	if want := serialFlops(total, nil); rep.Perf.Flops != want {
		t.Fatalf("merged flops = %d, serial total = %d", rep.Perf.Flops, want)
	}
}

// TestStragglerRedispatch holds one task hostage on a slow worker past
// its lease deadline; the coordinator must re-dispatch it, accept the
// first result, and discard the straggler's late duplicate.
func TestStragglerRedispatch(t *testing.T) {
	const nBias, nK, nE = 1, 1, 6
	total := nBias * nK * nE
	lb := comms.NewLoopback()
	lis, err := lb.Listen("coord")
	if err != nil {
		t.Fatal(err)
	}
	res := newResults(nBias, nK, nE)
	journal := &cluster.MemJournal{}
	ch := serveAsync(context.Background(), lis, nBias, nK, nE, Options{
		Journal:      journal,
		Restore:      res.restore,
		LeaseTimeout: 50 * time.Millisecond,
	})

	started := make(chan struct{})
	var once sync.Once
	slowHook := func(idx int) error {
		if idx == 0 {
			once.Do(func() { close(started) })
			time.Sleep(400 * time.Millisecond)
		}
		return nil
	}
	slowConn := dial(t, lb, "coord")
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// The straggler's late result races the shutdown hang-up; either a
		// clean return or a hang-up-induced nil is acceptable, so the
		// error is ignored.
		RunWorker(context.Background(), slowConn, nBias, nK, nE, WorkerOptions{
			ID: "slow", Pool: sched.New(1), Capacity: 1,
		}, workerFn(nK, nE, nil, slowHook))
	}()
	<-started

	fastConn := dial(t, lb, "coord")
	wg.Add(1)
	go func() {
		defer wg.Done()
		RunWorker(context.Background(), fastConn, nBias, nK, nE, WorkerOptions{
			ID: "fast", Pool: sched.New(1),
		}, workerFn(nK, nE, nil, nil))
	}()

	rep := waitServe(t, ch)
	wg.Wait()

	checkValues(t, res, nil)
	if rep.Redispatched == 0 {
		t.Fatal("straggling lease was never re-dispatched")
	}
	if journal.Len() != total {
		t.Fatalf("journal has %d records, want exactly %d (first result wins)", journal.Len(), total)
	}
}

// TestStaleQueueEntryNotRegranted drives the lease table through the
// straggler interleaving that used to corrupt it: a lease expires and its
// tasks are re-queued, then the original holder's results arrive and win
// while the re-queued indices are still in the queue. A later grant must
// skip those stale entries — before the fix it re-leased the finished
// tasks, overwrote stateDone, and accepted their results a second time
// (duplicate journal records plus a double decrement of remaining, which
// let the run report success with tasks never executed).
func TestStaleQueueEntryNotRegranted(t *testing.T) {
	const total = 3
	journal := &cluster.MemJournal{}
	c := newCoordinator(1, 1, total, Options{Journal: journal}.withDefaults(), make([]bool, total))
	tb := c.table
	straggler, fresh := tb.join("straggler"), tb.join("fresh")
	now := time.Unix(0, 0)

	tasks, over, _ := tb.grant(straggler, 2, now)
	if over {
		t.Fatal("grant dismissed the straggler with tasks still pending")
	}
	if len(tasks) != 2 {
		t.Fatalf("granted %v, want 2 tasks", tasks)
	}
	// The lease expires: tasks 0 and 1 go back to the queue behind task 2.
	tb.expire(now.Add(2 * c.opts.LeaseTimeout))
	// The straggler reports task 0 anyway, and its result wins.
	if err := commitOne(c, straggler.id, resultMsg{Task: 0, Payload: encodeVal(valFor(0))}); err != nil {
		t.Fatalf("straggler result: %v", err)
	}
	// A fresh worker asks for everything: it must get tasks 2 and 1, never
	// the finished task 0 whose queue entry is now stale.
	tasks, over, _ = tb.grant(fresh, total, now)
	if over {
		t.Fatal("grant dismissed the fresh worker with tasks still pending")
	}
	for _, idx := range tasks {
		if idx == 0 {
			t.Fatalf("grant re-leased finished task 0 (lease %v)", tasks)
		}
	}
	if len(tasks) != 2 {
		t.Fatalf("granted %v, want the 2 unfinished tasks", tasks)
	}
	if tb.st[0].phase != stateDone {
		t.Fatalf("task 0 phase = %d, want stateDone", tb.st[0].phase)
	}
	if tb.remaining != total-1 {
		t.Fatalf("remaining = %d, want %d", tb.remaining, total-1)
	}
	// A late duplicate for task 0 (say the re-dispatch raced after all)
	// must be a no-op: no extra journal record, no remaining decrement.
	if err := commitOne(c, fresh.id, resultMsg{Task: 0, Payload: encodeVal(valFor(0))}); err != nil {
		t.Fatalf("duplicate result: %v", err)
	}
	if journal.Len() != 1 {
		t.Fatalf("journal has %d records for task 0, want exactly 1", journal.Len())
	}
	if tb.remaining != total-1 || tb.completed != 1 {
		t.Fatalf("remaining = %d, completed = %d after duplicate, want %d and 1",
			tb.remaining, tb.completed, total-1)
	}
}

// TestQuarantineDistributed routes a permanently failing task through the
// worker → coordinator failure report and into the quarantined set.
func TestQuarantineDistributed(t *testing.T) {
	const nBias, nK, nE = 1, 2, 5
	lb := comms.NewLoopback()
	lis, err := lb.Listen("coord")
	if err != nil {
		t.Fatal(err)
	}
	res := newResults(nBias, nK, nE)
	ch := serveAsync(context.Background(), lis, nBias, nK, nE, Options{
		Restore:    res.restore,
		Quarantine: true,
	})
	badHook := func(idx int) error {
		if idx == 3 {
			return resilience.MarkPermanent(errors.New("non-finite observable"))
		}
		return nil
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		conn := dial(t, lb, "coord")
		wg.Add(1)
		go func(conn net.Conn) {
			defer wg.Done()
			err := RunWorker(context.Background(), conn, nBias, nK, nE, WorkerOptions{
				Pool: sched.New(1),
				Retry: resilience.Policy{
					MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond,
				},
			}, workerFn(nK, nE, nil, withDelay(time.Millisecond, badHook)))
			if err != nil {
				t.Errorf("worker: %v", err)
			}
		}(conn)
	}
	rep := waitServe(t, ch)
	wg.Wait()

	if len(rep.Sweep.Quarantined) != 1 {
		t.Fatalf("quarantined %v, want exactly task 3", rep.Sweep.Quarantined)
	}
	q := rep.Sweep.Quarantined[0]
	if got := (q.Bias*nK+q.K)*nE + q.E; got != 3 {
		t.Fatalf("quarantined task %d, want 3", got)
	}
	checkValues(t, res, map[int]bool{3: true})
}

// TestFailedTaskNamesTaskAndCause: when the sweep is given up over a
// task — a failed task with quarantine off, or one failure more than the
// quarantine budget holds — Serve's error says so, names the task and
// carries the worker's cause, so the operator knows what a -resume
// meets again.
func TestFailedTaskNamesTaskAndCause(t *testing.T) {
	const nBias, nK, nE = 1, 1, 8
	cases := []struct {
		name string
		opts Options
		bad  map[int]bool
		want string // the task the error must name
	}{
		{"quarantine off", Options{}, map[int]bool{5: true}, "task 5 "},
		// A budget of two tasks (a quarter of 8) and three failures.
		{"budget exceeded", Options{Quarantine: true}, map[int]bool{2: true, 5: true, 7: true}, "task 7 "},
	}
	for _, c := range cases {
		lb := comms.NewLoopback()
		lis, err := lb.Listen("coord")
		if err != nil {
			t.Fatal(err)
		}
		ch := serveAsync(context.Background(), lis, nBias, nK, nE, c.opts)
		bad := c.bad
		done := make(chan struct{})
		conn := dial(t, lb, "coord")
		go func() {
			defer close(done)
			// The coordinator hangs up on the verdict; the worker's own
			// error is not what this test is about.
			_ = RunWorker(context.Background(), conn, nBias, nK, nE, WorkerOptions{Pool: sched.New(1)},
				workerFn(nK, nE, nil, func(idx int) error {
					if bad[idx] {
						return resilience.MarkPermanent(errors.New("non-finite observable"))
					}
					return nil
				}))
		}()
		var r serveResult
		select {
		case r = <-ch:
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: Serve did not finish", c.name)
		}
		<-done
		if r.err == nil || !strings.HasPrefix(r.err.Error(), "distrib: task failed: ") {
			t.Fatalf("%s: Serve = %v, want a \"distrib: task failed: \" error", c.name, r.err)
		}
		if !strings.Contains(r.err.Error(), c.want) || !strings.Contains(r.err.Error(), "non-finite observable") {
			t.Fatalf("%s: error %q does not name %sand its cause", c.name, r.err, c.want)
		}
	}
}

// TestResumeFromJournal seeds the coordinator's journal with a partial
// previous run; the new run must restore those tasks without re-leasing
// them and complete only the remainder.
func TestResumeFromJournal(t *testing.T) {
	const nBias, nK, nE = 1, 3, 4
	total := nBias * nK * nE
	journal := &cluster.MemJournal{}
	for idx := 0; idx < 5; idx++ {
		if err := journal.Append(cluster.TaskRecord{Index: idx, Payload: encodeVal(valFor(idx))}); err != nil {
			t.Fatal(err)
		}
	}
	lb := comms.NewLoopback()
	lis, err := lb.Listen("coord")
	if err != nil {
		t.Fatal(err)
	}
	res := newResults(nBias, nK, nE)
	ch := serveAsync(context.Background(), lis, nBias, nK, nE, Options{
		Journal: journal,
		Restore: res.restore,
	})
	var ran atomic.Int64
	countHook := func(idx int) error {
		if idx < 5 {
			t.Errorf("journaled task %d was re-executed", idx)
		}
		ran.Add(1)
		return nil
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		err := RunWorker(context.Background(), dial(t, lb, "coord"), nBias, nK, nE,
			WorkerOptions{Pool: sched.New(1)}, workerFn(nK, nE, nil, countHook))
		if err != nil {
			t.Errorf("worker: %v", err)
		}
	}()
	rep := waitServe(t, ch)
	wg.Wait()

	checkValues(t, res, nil)
	if rep.Sweep.Restored != 5 || rep.Sweep.Completed != total-5 {
		t.Fatalf("restored %d / completed %d, want 5 / %d", rep.Sweep.Restored, rep.Sweep.Completed, total-5)
	}
	if journal.Len() != total {
		t.Fatalf("journal has %d records, want %d", journal.Len(), total)
	}
	if int(ran.Load()) != total-5 {
		t.Fatalf("worker executed %d tasks, want %d", ran.Load(), total-5)
	}
}

// TestFaultInjectionDistributed runs the deterministic failure drill
// through the distributed path: injected faults are retried worker-side
// and the observables still match exactly.
func TestFaultInjectionDistributed(t *testing.T) {
	const nBias, nK, nE = 1, 2, 10
	lb := comms.NewLoopback()
	lis, err := lb.Listen("coord")
	if err != nil {
		t.Fatal(err)
	}
	res := newResults(nBias, nK, nE)
	ch := serveAsync(context.Background(), lis, nBias, nK, nE, Options{Restore: res.restore})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		conn := dial(t, lb, "coord")
		wg.Add(1)
		go func(conn net.Conn) {
			defer wg.Done()
			err := RunWorker(context.Background(), conn, nBias, nK, nE, WorkerOptions{
				Pool: sched.New(1),
				Retry: resilience.Policy{
					MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond,
				},
				Injector: &resilience.Injector{Seed: 42, Rate: 0.5},
			}, workerFn(nK, nE, nil, withDelay(time.Millisecond, nil)))
			if err != nil {
				t.Errorf("worker: %v", err)
			}
		}(conn)
	}
	rep := waitServe(t, ch)
	wg.Wait()

	checkValues(t, res, nil)
	if rep.Sweep.Retries == 0 {
		t.Fatal("a 50% fault rate produced zero retries")
	}
}

// TestRejectGridMismatch: a worker configured for a different task grid
// must be turned away with a reason, and the sweep must still complete
// with a correctly configured worker.
func TestRejectGridMismatch(t *testing.T) {
	const nBias, nK, nE = 1, 1, 3
	lb := comms.NewLoopback()
	lis, err := lb.Listen("coord")
	if err != nil {
		t.Fatal(err)
	}
	res := newResults(nBias, nK, nE)
	ch := serveAsync(context.Background(), lis, nBias, nK, nE, Options{Restore: res.restore})

	err = RunWorker(context.Background(), dial(t, lb, "coord"), nBias, nK, nE+7,
		WorkerOptions{Pool: sched.New(1)}, workerFn(nK, nE+7, nil, nil))
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("mismatch")) {
		t.Fatalf("mismatched worker error = %v, want grid-mismatch rejection", err)
	}

	goodConn := dial(t, lb, "coord")
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := RunWorker(context.Background(), goodConn, nBias, nK, nE,
			WorkerOptions{Pool: sched.New(1)}, workerFn(nK, nE, nil, nil)); err != nil {
			t.Errorf("worker: %v", err)
		}
	}()
	waitServe(t, ch)
	wg.Wait()
	checkValues(t, res, nil)
}

// TestRejectProtoMismatch speaks a wrong protocol version — one above
// and one below the coordinator's, there is no compatibility range — at
// the raw codec level and expects a typed rejection frame naming both
// versions.
func TestRejectProtoMismatch(t *testing.T) {
	const nBias, nK, nE = 1, 1, 2
	lb := comms.NewLoopback()
	lis, err := lb.Listen("coord")
	if err != nil {
		t.Fatal(err)
	}
	res := newResults(nBias, nK, nE)
	ch := serveAsync(context.Background(), lis, nBias, nK, nE, Options{Restore: res.restore})

	for _, proto := range []int{ProtoVersion + 1, ProtoVersion - 1} {
		cd := comms.NewCodec(dial(t, lb, "coord"))
		if err := cd.Send(msgHello, helloMsg{ID: "other", Proto: proto, NBias: nBias, NK: nK, NE: nE}); err != nil {
			t.Fatal(err)
		}
		mt, payload, err := cd.Recv()
		if err != nil {
			t.Fatalf("proto %d: Recv: %v", proto, err)
		}
		if mt != msgError {
			t.Fatalf("proto %d: reply type = %d, want msgError", proto, mt)
		}
		var e errorMsg
		if err := decode(mt, payload, &e); err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{"version", fmt.Sprintf("worker speaks %d", proto), fmt.Sprintf("coordinator speaks %d", ProtoVersion)} {
			if !strings.Contains(e.Reason, want) {
				t.Fatalf("proto %d: rejection reason %q does not contain %q", proto, e.Reason, want)
			}
		}
		cd.Close()
	}

	goodConn := dial(t, lb, "coord")
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := RunWorker(context.Background(), goodConn, nBias, nK, nE,
			WorkerOptions{Pool: sched.New(1)}, workerFn(nK, nE, nil, nil)); err != nil {
			t.Errorf("worker: %v", err)
		}
	}()
	waitServe(t, ch)
	wg.Wait()
	checkValues(t, res, nil)
}

// TestServeHonorsContext: canceling the coordinator's context ends the
// run with the cancellation error even with no workers connected.
func TestServeHonorsContext(t *testing.T) {
	lb := comms.NewLoopback()
	lis, err := lb.Listen("coord")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ch := serveAsync(ctx, lis, 1, 1, 100, Options{})
	cancel()
	select {
	case r := <-ch:
		if !errors.Is(r.err, context.Canceled) {
			t.Fatalf("Serve error = %v, want context.Canceled", r.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve ignored cancellation")
	}
}

// TestLateWorkerGetsDone: a worker arriving after the sweep finished is
// dismissed cleanly instead of hanging.
func TestLateWorkerGetsDone(t *testing.T) {
	const nBias, nK, nE = 1, 1, 2
	lb := comms.NewLoopback()
	lis, err := lb.Listen("coord")
	if err != nil {
		t.Fatal(err)
	}
	res := newResults(nBias, nK, nE)
	ch := serveAsync(context.Background(), lis, nBias, nK, nE, Options{Restore: res.restore})
	if err := RunWorker(context.Background(), dial(t, lb, "coord"), nBias, nK, nE,
		WorkerOptions{Pool: sched.New(1)}, workerFn(nK, nE, nil, nil)); err != nil {
		t.Fatalf("worker: %v", err)
	}
	waitServe(t, ch)
	// The listener is closed now; a late worker cannot even dial, which
	// is the TCP behavior too (connection refused) — RunWorker is never
	// reached. Exercise the in-run path instead: Serve with everything
	// already journaled answers the first lease request with done.
	journal := &cluster.MemJournal{}
	for idx := 0; idx < nBias*nK*nE; idx++ {
		journal.Append(cluster.TaskRecord{Index: idx, Payload: encodeVal(valFor(idx))})
	}
	lis2, err := lb.Listen("coord2")
	if err != nil {
		t.Fatal(err)
	}
	res2 := newResults(nBias, nK, nE)
	ch2 := serveAsync(context.Background(), lis2, nBias, nK, nE, Options{Journal: journal, Restore: res2.restore})
	rep := waitServe(t, ch2)
	if rep.Sweep.Restored != nBias*nK*nE {
		t.Fatalf("restored %d, want %d", rep.Sweep.Restored, nBias*nK*nE)
	}
	checkValues(t, res2, nil)
}

// TestRejectSpecMismatch: a worker whose run-spec hash disagrees with
// the coordinator's is rejected at handshake with a reason naming the
// spec — even though its grid dimensions match exactly (the case the
// dims-only check could never catch). A matching worker then finishes
// the sweep untouched.
func TestRejectSpecMismatch(t *testing.T) {
	const nBias, nK, nE = 1, 2, 3
	lb := comms.NewLoopback()
	lis, err := lb.Listen("coord")
	if err != nil {
		t.Fatal(err)
	}
	res := newResults(nBias, nK, nE)
	ch := serveAsync(context.Background(), lis, nBias, nK, nE, Options{
		Restore:  res.restore,
		SpecHash: "coordinator-spec-hash",
	})

	badConn := dial(t, lb, "coord")
	err = RunWorker(context.Background(), badConn, nBias, nK, nE, WorkerOptions{
		Pool:     sched.New(1),
		SpecHash: "perturbed-spec-hash",
	}, workerFn(nK, nE, nil, nil))
	if err == nil {
		t.Fatal("mismatched worker was admitted")
	}
	if !bytes.Contains([]byte(err.Error()), []byte("spec")) {
		t.Fatalf("rejection %q does not mention the spec", err)
	}

	goodConn := dial(t, lb, "coord")
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := RunWorker(context.Background(), goodConn, nBias, nK, nE, WorkerOptions{
			Pool:     sched.New(1),
			SpecHash: "coordinator-spec-hash",
		}, workerFn(nK, nE, nil, nil)); err != nil {
			t.Errorf("matching worker: %v", err)
		}
	}()
	waitServe(t, ch)
	wg.Wait()
	checkValues(t, res, nil)
}

// TestSpecHashUncheckedWhenAbsent pins backward compatibility inside
// the protocol: a coordinator without a spec hash admits any worker,
// and a worker without one accepts any welcome — callers that drive
// distrib without specs (these tests, mostly) keep working.
func TestSpecHashUncheckedWhenAbsent(t *testing.T) {
	const nBias, nK, nE = 1, 1, 4
	lb := comms.NewLoopback()
	lis, err := lb.Listen("coord")
	if err != nil {
		t.Fatal(err)
	}
	res := newResults(nBias, nK, nE)
	ch := serveAsync(context.Background(), lis, nBias, nK, nE, Options{Restore: res.restore})

	conn := dial(t, lb, "coord")
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// The worker declares a hash; the spec-less coordinator must not
		// reject it (it has nothing to compare against), and the worker
		// must tolerate the hashless welcome.
		if err := RunWorker(context.Background(), conn, nBias, nK, nE, WorkerOptions{
			Pool:     sched.New(1),
			SpecHash: "only-side-with-a-spec",
		}, workerFn(nK, nE, nil, nil)); err != nil {
			t.Errorf("worker: %v", err)
		}
	}()
	waitServe(t, ch)
	wg.Wait()
	checkValues(t, res, nil)
}

// TestWorkerRunsLaneGroups: a worker cuts each lease into lane groups
// (cluster.Groups) and hands every task function its group through ctx;
// no group straddles a (bias, k) row or skips a task, every task is
// uploaded and journaled exactly once, and the merged flops are the
// serial total.
func TestWorkerRunsLaneGroups(t *testing.T) {
	const nBias, nK, nE = 2, 2, 9
	total := nBias * nK * nE
	lb := comms.NewLoopback()
	lis, err := lb.Listen("coord")
	if err != nil {
		t.Fatal(err)
	}
	res := newResults(nBias, nK, nE)
	journal := &cluster.MemJournal{}
	ch := serveAsync(context.Background(), lis, nBias, nK, nE, Options{Journal: journal, Restore: res.restore})
	meter := &flopMeter{}
	inner := workerFn(nK, nE, meter, nil)
	var mu sync.Mutex
	bad := ""
	fn := func(ctx context.Context, task cluster.Task) ([]byte, error) {
		g := cluster.GroupFrom(ctx)
		mu.Lock()
		switch {
		case g.Lane(task) < 0:
			bad = fmt.Sprintf("task %+v ran outside a group holding it", task)
		case len(g.Index) > linalg.Lanes || g.Index[len(g.Index)-1]-g.Index[0] != len(g.Index)-1 ||
			g.Index[0]/nE != g.Index[len(g.Index)-1]/nE:
			bad = fmt.Sprintf("group %v skips a task or straddles a row", g.Index)
		}
		mu.Unlock()
		return inner(ctx, task)
	}
	conn := dial(t, lb, "coord")
	if err := RunWorker(context.Background(), conn, nBias, nK, nE, WorkerOptions{
		ID: "w0", Pool: sched.New(2), PerfNow: meter.now,
	}, fn); err != nil {
		t.Fatal(err)
	}
	rep := waitServe(t, ch)
	if bad != "" {
		t.Fatal(bad)
	}
	checkValues(t, res, nil)
	if journal.Len() != total || rep.Sweep.Completed != total {
		t.Fatalf("journal has %d records, %d completed, want %d", journal.Len(), rep.Sweep.Completed, total)
	}
	if want := serialFlops(total, nil); rep.Perf.Flops != want {
		t.Fatalf("merged flops = %d, serial total = %d", rep.Perf.Flops, want)
	}
}
