package distrib

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/comms"
	"repro/internal/perf"
	"repro/internal/sched"
)

// rawWorker is a hand-driven protocol peer. The commit pipeline's tests
// must put result frames at exact points — behind a group that is still
// syncing, ahead of a hang-up — which a real RunWorker cannot be told to
// do. The loopback is a synchronous pipe, so a send that returned has been
// read by the connection's handler, and a reply that arrived proves every
// frame sent before its request has been queued.
type rawWorker struct {
	t  *testing.T
	cd *comms.Codec
}

// dialRaw connects and completes the handshake on the JSON wire.
func dialRaw(t *testing.T, lb *comms.Loopback, addr, id string, nBias, nK, nE int) *rawWorker {
	t.Helper()
	r := &rawWorker{t: t, cd: comms.NewCodec(dial(t, lb, addr))}
	if err := r.cd.Send(msgHello, helloMsg{ID: id, Proto: ProtoVersion, NBias: nBias, NK: nK, NE: nE}); err != nil {
		t.Fatalf("%s: hello: %v", id, err)
	}
	if mt, _, err := r.cd.Recv(); err != nil || mt != msgWelcome {
		t.Fatalf("%s: handshake reply type %d, err %v, want a welcome", id, mt, err)
	}
	return r
}

// request sends a lease request; reply reads its answer (done=true for a
// dismissal). lease is the two in one.
func (r *rawWorker) request(capacity int) {
	r.t.Helper()
	if err := r.cd.Send(msgLeaseRequest, leaseRequestMsg{Capacity: capacity}); err != nil {
		r.t.Fatalf("lease request: %v", err)
	}
}

func (r *rawWorker) reply() (lease leaseMsg, done bool) {
	r.t.Helper()
	mt, payload, err := r.cd.Recv()
	if err != nil {
		r.t.Fatalf("awaiting lease: %v", err)
	}
	if mt == msgDone {
		return leaseMsg{}, true
	}
	if mt != msgLease {
		r.t.Fatalf("lease reply type %d, want msgLease or msgDone", mt)
	}
	if err := decode(mt, payload, &lease); err != nil {
		r.t.Fatal(err)
	}
	return lease, false
}

func (r *rawWorker) lease(capacity int) (leaseMsg, bool) {
	r.t.Helper()
	r.request(capacity)
	return r.reply()
}

// upload reports the tasks, each with valFor's payload and costFor's
// flops, in one result frame.
func (r *rawWorker) upload(tasks ...int) {
	r.t.Helper()
	var batch resultBatchMsg
	for _, idx := range tasks {
		batch.Results = append(batch.Results, resultMsg{
			Task: idx, Payload: encodeVal(valFor(idx)), Perf: perf.Snapshot{Flops: costFor(idx)},
		})
	}
	if err := r.cd.Send(msgResultBatch, batch); err != nil {
		r.t.Fatalf("upload %v: %v", tasks, err)
	}
}

// finish works the sweep off, one frame per lease, until dismissed.
func (r *rawWorker) finish(capacity int) {
	r.t.Helper()
	for {
		lease, done := r.lease(capacity)
		if done {
			r.cd.Send(msgBye, byeMsg{})
			r.cd.Close()
			return
		}
		if len(lease.Tasks) > 0 {
			r.upload(lease.Tasks...)
		}
	}
}

// gatedJournal is a MemJournal whose AppendBatch announces the batch it
// was handed and then waits for the test's go-ahead: a stand-in for an
// fsync that takes as long as the test needs it to.
type gatedJournal struct {
	cluster.MemJournal
	// entered receives each batch's task indices. Buffered for a whole
	// sweep's worth of one-record batches, so the committer never blocks
	// on a test that has stopped listening.
	entered chan []int
	release chan struct{} // one receive per batch; close to open for good
}

func newGatedJournal() *gatedJournal {
	return &gatedJournal{entered: make(chan []int, 1024), release: make(chan struct{})}
}

func (g *gatedJournal) AppendBatch(recs []cluster.TaskRecord) error {
	var idx []int
	for _, rec := range recs {
		idx = append(idx, rec.Index)
	}
	g.entered <- idx
	<-g.release
	return g.MemJournal.AppendBatch(recs)
}

// journaledOnce fails the test unless the journal holds exactly one record
// for each of the given tasks and no others.
func journaledOnce(t *testing.T, j *cluster.MemJournal, total int, tasks ...int) {
	t.Helper()
	recs, _ := j.Load()
	counts := make([]int, total)
	for _, rec := range recs {
		counts[rec.Index]++
	}
	want := make([]int, total)
	for _, idx := range tasks {
		want[idx] = 1
	}
	if !reflect.DeepEqual(counts, want) {
		t.Fatalf("journal records per task %v, want %v", counts, want)
	}
}

func upTo(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// TestCommitHangupWithFramesQueued: a worker hangs up while result frames
// it sent still wait behind a group that is syncing. The committer takes
// everything queued as one group; the connection's teardown waits for it,
// so the tasks those frames reported are committed exactly once and only
// the leases the worker never reported are re-dispatched.
func TestCommitHangupWithFramesQueued(t *testing.T) {
	const nBias, nK, nE = 1, 1, 12
	total := nBias * nK * nE
	lb := comms.NewLoopback()
	lis, err := lb.Listen("coord")
	if err != nil {
		t.Fatal(err)
	}
	res := newResults(nBias, nK, nE)
	journal := newGatedJournal()
	ch := serveAsync(context.Background(), lis, nBias, nK, nE, Options{Journal: journal, Restore: res.restore})

	victim := dialRaw(t, lb, "coord", "victim", nBias, nK, nE)
	if lease, _ := victim.lease(8); !reflect.DeepEqual(lease.Tasks, upTo(8)) {
		t.Fatalf("victim leased %v, want tasks 0..7", lease.Tasks)
	}
	victim.upload(0, 1)
	if got := <-journal.entered; !reflect.DeepEqual(got, []int{0, 1}) {
		t.Fatalf("first group journals %v, want [0 1]", got)
	}
	// The committer is inside the first group's "fsync". Two more frames
	// queue behind it; the lease that follows them is granted meanwhile
	// (its reply is also the proof that both frames are queued).
	victim.upload(2, 3)
	victim.upload(4, 5)
	if lease, _ := victim.lease(1); !reflect.DeepEqual(lease.Tasks, []int{8}) {
		t.Fatalf("lease behind queued frames granted %v, want task 8 — a grant must not wait for a commit", lease.Tasks)
	}
	victim.cd.Close() // tasks 6, 7, 8 die with it; 2..5 are reported but not applied
	// Nothing may happen now until the gate opens. The pause is what lets a
	// teardown that does not wait for the queue run — and return the
	// leases of tasks 2..5 — before the committer gets to them.
	time.Sleep(20 * time.Millisecond)

	journal.release <- struct{}{}
	if got := <-journal.entered; !reflect.DeepEqual(got, []int{2, 3, 4, 5}) {
		t.Fatalf("second group journals %v, want both queued frames, [2 3 4 5], in one batch", got)
	}
	close(journal.release)

	survivorMeter := &flopMeter{}
	workerErr := make(chan error, 1)
	go func() {
		workerErr <- RunWorker(context.Background(), dial(t, lb, "coord"), nBias, nK, nE,
			WorkerOptions{ID: "survivor", Pool: sched.New(1), PerfNow: survivorMeter.now},
			workerFn(nK, nE, survivorMeter, nil))
	}()
	rep := waitServe(t, ch)
	if err := <-workerErr; err != nil {
		t.Fatalf("survivor: %v", err)
	}

	checkValues(t, res, nil)
	journaledOnce(t, &journal.MemJournal, total, upTo(total)...)
	if rep.Redispatched != 3 {
		t.Fatalf("redispatched %d leases, want 3 (tasks 6, 7, 8: the ones the victim never reported)", rep.Redispatched)
	}
	if want := serialFlops(total, nil); rep.Perf.Flops != want {
		t.Fatalf("merged flops = %d, serial total = %d", rep.Perf.Flops, want)
	}
}

// TestDrainWaitsForQueuedFrames fires a drain while one frame is syncing
// and another is queued behind it, and the worker hangs up. Serve must not
// return until both are durable, must count them completed, and must not
// re-dispatch what they reported.
func TestDrainWaitsForQueuedFrames(t *testing.T) {
	const nBias, nK, nE = 1, 1, 10
	total := nBias * nK * nE
	lb := comms.NewLoopback()
	lis, err := lb.Listen("coord")
	if err != nil {
		t.Fatal(err)
	}
	res := newResults(nBias, nK, nE)
	journal := newGatedJournal()
	drain := make(chan struct{})
	ch := serveAsync(context.Background(), lis, nBias, nK, nE, Options{
		Journal: journal, Restore: res.restore, Drain: drain, DrainTimeout: 20 * time.Second,
	})

	w := dialRaw(t, lb, "coord", "drained", nBias, nK, nE)
	if lease, _ := w.lease(4); !reflect.DeepEqual(lease.Tasks, upTo(4)) {
		t.Fatalf("leased %v, want tasks 0..3", lease.Tasks)
	}
	w.upload(0, 1)
	<-journal.entered
	w.upload(2, 3)
	close(drain)
	w.cd.Close()
	time.Sleep(20 * time.Millisecond) // as above: room for a teardown or a drain that does not wait
	select {
	case r := <-ch:
		t.Fatalf("Serve returned (%v) with a group syncing and a frame queued", r.err)
	default:
	}
	close(journal.release)

	r := <-ch
	if !errors.Is(r.err, ErrDrained) {
		t.Fatalf("Serve = %v, want ErrDrained", r.err)
	}
	journaledOnce(t, &journal.MemJournal, total, 0, 1, 2, 3)
	if r.rep.Sweep.Completed != 4 || r.rep.Redispatched != 0 {
		t.Fatalf("drain reported %d completed, %d redispatched; want 4 and 0 — every lease was reported before the hang-up",
			r.rep.Sweep.Completed, r.rep.Redispatched)
	}
	for idx, n := range res.counts {
		if (idx < 4 && n != 1) || (idx >= 4 && n != 0) {
			t.Fatalf("task %d restored %d times; want tasks 0..3 once, the rest never", idx, n)
		}
	}
}

// failingJournal refuses every batch.
type failingJournal struct {
	cluster.MemJournal
	err error
}

func (f *failingJournal) AppendBatch([]cluster.TaskRecord) error { return f.err }

// TestCommitJournalErrorFailsRun: a journal that cannot take a group fails
// the run with that error, and nothing of the group becomes visible — not
// done, not restored, not announced.
func TestCommitJournalErrorFailsRun(t *testing.T) {
	const nBias, nK, nE = 1, 1, 8
	lb := comms.NewLoopback()
	lis, err := lb.Listen("coord")
	if err != nil {
		t.Fatal(err)
	}
	res := newResults(nBias, nK, nE)
	journal := &failingJournal{err: errors.New("disk full")}
	var announced atomic.Int64
	ch := serveAsync(context.Background(), lis, nBias, nK, nE, Options{
		Journal: journal, Restore: res.restore,
		OnResult: func(cluster.Task, []byte) { announced.Add(1) },
	})
	workerErr := make(chan error, 1)
	go func() {
		workerErr <- RunWorker(context.Background(), dial(t, lb, "coord"), nBias, nK, nE,
			WorkerOptions{Pool: sched.New(1), Logf: func(string, ...any) {}}, workerFn(nK, nE, nil, nil))
	}()
	r := <-ch
	if !errors.Is(r.err, journal.err) {
		t.Fatalf("Serve = %v, want the journal's error", r.err)
	}
	<-workerErr // the coordinator hung up on it; either verdict is fine
	if r.rep.Sweep.Completed != 0 || announced.Load() != 0 || journal.Len() != 0 {
		t.Fatalf("after a failed group: %d completed, %d announced, %d journaled; want none",
			r.rep.Sweep.Completed, announced.Load(), journal.Len())
	}
	for idx, n := range res.counts {
		if n != 0 {
			t.Fatalf("task %d was restored although its record never reached the journal", idx)
		}
	}
}

// TestCommitEchoInWinnersGroup: a reclaimed task's two executions report
// into the same group. The first in queue order wins; the echo behind it
// is discarded with its perf delta, exactly as if it had arrived a group
// later.
func TestCommitEchoInWinnersGroup(t *testing.T) {
	const total = 2
	journal := &cluster.MemJournal{}
	c := newCoordinator(1, 1, total, Options{Journal: journal}.withDefaults(), make([]bool, total))
	slow, fast := c.table.join("slow"), c.table.join("fast")
	now := time.Unix(0, 0)
	c.table.grant(slow, 1, now)
	c.table.expire(now.Add(2 * c.opts.LeaseTimeout))
	if tasks, _, _ := c.table.grant(fast, 1, now); !reflect.DeepEqual(tasks, []int{1}) {
		t.Fatalf("fast leased %v, want task 1 (task 0 is requeued behind it)", tasks)
	}
	c.commit([]upload{
		{worker: fast.id, results: []resultMsg{{Task: 0, Payload: encodeVal(valFor(0)), Perf: perf.Snapshot{Flops: 5}}}},
		{worker: slow.id, results: []resultMsg{{Task: 0, Payload: encodeVal(valFor(0)), Perf: perf.Snapshot{Flops: 7}}}},
	})
	rep := &Report{Sweep: &cluster.SweepReport{Total: total}}
	c.fill(rep)
	if journal.Len() != 1 || rep.Sweep.Completed != 1 || rep.Perf.Flops != 5 {
		t.Fatalf("winner and echo in one group: %d records, %d completed, %d flops; want 1, 1 and the winner's 5",
			journal.Len(), rep.Sweep.Completed, rep.Perf.Flops)
	}
	if rep.Perf.Counters["journal-records"] != 1 || rep.Perf.Counters["journal-syncs"] != 1 {
		t.Fatalf("counters %v, want one record in one sync", rep.Perf.Counters)
	}
}

// TestCommitSweepEndsWithoutSleeping: the end of a sweep is signaled, not
// polled for. One worker is still inside the last task when the other runs
// dry, so the idle one's lease request parks until the last commit
// answers it (TestLeaseTableWakesParkedGrants pins that wake without a
// clock). One result per frame makes the counters' bound exact: a group
// holds at least one frame.
func TestCommitSweepEndsWithoutSleeping(t *testing.T) {
	const nBias, nK, nE = 1, 1, 64
	total := nBias * nK * nE
	lb := comms.NewLoopback()
	lis, err := lb.Listen("coord")
	if err != nil {
		t.Fatal(err)
	}
	res := newResults(nBias, nK, nE)
	journal := &cluster.MemJournal{}
	ch := serveAsync(context.Background(), lis, nBias, nK, nE, Options{Journal: journal, Restore: res.restore})
	lastTask := func(idx int) error {
		if idx == total-1 {
			time.Sleep(50 * time.Millisecond)
		}
		return nil
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := RunWorker(context.Background(), dial(t, lb, "coord"), nBias, nK, nE,
				WorkerOptions{Pool: sched.New(1), Capacity: 4, UploadBatch: 1}, workerFn(nK, nE, nil, lastTask)); err != nil {
				t.Errorf("worker: %v", err)
			}
		}()
	}
	rep := waitServe(t, ch)
	wg.Wait()
	checkValues(t, res, nil)
	records, syncs := rep.Perf.Counters["journal-records"], rep.Perf.Counters["journal-syncs"]
	if records != int64(total) || records != int64(rep.Sweep.Completed) {
		t.Fatalf("journal-records = %d, completed = %d, want both %d", records, rep.Sweep.Completed, total)
	}
	if syncs < 1 || syncs > int64(total) {
		t.Fatalf("journal-syncs = %d, want between 1 and the %d result frames received", syncs, total)
	}
}

// TestCommitParkedLeaseWokenByRequeue: a lease request that finds every
// task leased elsewhere parks on the coordinator, and the holder's death
// requeues its tasks to it. The parked request may time out into an empty
// lease first, which the peer answers by asking again at once, as
// RunWorker does; that the wake itself is immediate is
// TestLeaseTableWakesParkedGrants' to pin.
func TestCommitParkedLeaseWokenByRequeue(t *testing.T) {
	const nBias, nK, nE = 1, 1, 4
	total := nBias * nK * nE
	lb := comms.NewLoopback()
	lis, err := lb.Listen("coord")
	if err != nil {
		t.Fatal(err)
	}
	res := newResults(nBias, nK, nE)
	ch := serveAsync(context.Background(), lis, nBias, nK, nE, Options{Restore: res.restore})
	holder := dialRaw(t, lb, "coord", "holder", nBias, nK, nE)
	if lease, _ := holder.lease(total); len(lease.Tasks) != total {
		t.Fatalf("holder leased %v, want all %d tasks", lease.Tasks, total)
	}
	parked := dialRaw(t, lb, "coord", "parked", nBias, nK, nE)
	parked.request(total)
	holder.cd.Close()
	lease, done := parked.reply()
	for !done && len(lease.Tasks) == 0 {
		lease, done = parked.lease(total)
	}
	if done || len(lease.Tasks) != total {
		t.Fatalf("parked request answered with %v (done=%v), want the %d requeued tasks", lease.Tasks, done, total)
	}
	parked.upload(lease.Tasks...)
	parked.finish(total)
	rep := waitServe(t, ch)
	checkValues(t, res, nil)
	if rep.Redispatched != total {
		t.Fatalf("redispatched %d, want the holder's %d leases", rep.Redispatched, total)
	}
}
