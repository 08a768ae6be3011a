package distrib

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/perf"
)

// task lease states.
const (
	statePending uint8 = iota
	stateLeased
	stateCommitting // result accepted; journal append + restore in flight outside the mutex
	stateDone
	stateQuarantined
)

// taskState is one cell of the lease table.
type taskState struct {
	phase    uint8
	worker   string
	deadline time.Time
}

// lessee is the table's view of one registered worker: its scheduling
// shard and the tasks it holds. leased holds exactly the tasks in
// stateLeased under its id.
type lessee struct {
	id     string
	home   int
	leased map[int]bool
}

// leaseTable makes every scheduling decision of one sweep (DESIGN.md §10):
// task phases, shard queues and steals, lease sets, grants, claims,
// expiry, drain and the report counters. It does no I/O, starts no
// goroutine, reads no clock and holds no lock: the coordinator's mutex
// guards it, and time arrives as the now of grant and expire, which is
// what lets TestLeaseTableSchedules replay a schedule from a seed.
type leaseTable struct {
	nK, nE        int
	epoch         uint64 // results tagged with another nonzero epoch are stale
	quarantine    bool
	maxQuarantine int
	ttl           time.Duration

	st []taskState
	// shards holds the per-shard pending FIFOs: contiguous blocks of the
	// flat grid, so shard 0 owns the lowest (bias,k,E) indices. Queues
	// may hold stale entries (see popPending). With one shard this is the
	// classic single queue.
	shards   [][]int
	workers  map[string]*lessee
	nextHome int // round-robin cursor for homing new workers
	// wake is closed by whatever can change a parked grant's answer: a
	// requeue, a drain, the end of the run. nil while nothing is parked.
	wake chan struct{}
	done chan struct{} // closed when the run ends: finished, failed or drained

	remaining    int // tasks not yet done or quarantined
	quarantined  []int
	restored     int
	completed    int
	retries      int
	redispatched int
	grants       int // non-empty lease grants
	batchedGrant int // grants carrying more than one task
	steals       int // grants served from another shard's queue
	journalRecs  int // records the committer journaled
	journalSyncs int // AppendBatch calls (one fsync each) that carried them
	workersSeen  int
	staleEpoch   int
	perf         perf.Snapshot
	failure      error
	finished     bool
	draining     bool // drain requested: grant nothing, dismiss on request
	drained      bool // a drain ended the run before the sweep finished
}

// newLeaseTable queues every task done does not mark, each on its shard.
// opts must have its defaults applied.
func newLeaseTable(nK, nE int, opts Options, done []bool) *leaseTable {
	total := len(done)
	t := &leaseTable{
		nK: nK, nE: nE,
		epoch:         opts.Epoch,
		quarantine:    opts.Quarantine,
		maxQuarantine: cluster.QuarantineBudget(opts.Quarantine, total),
		ttl:           opts.LeaseTimeout,
		st:            make([]taskState, total),
		shards:        make([][]int, min(opts.Shards, total)), // never more shards than tasks
		workers:       make(map[string]*lessee),
		done:          make(chan struct{}),
	}
	for i, d := range done {
		if d {
			t.st[i].phase = stateDone
			continue
		}
		sh := t.shardOf(i)
		t.shards[sh] = append(t.shards[sh], i)
		t.remaining++
	}
	return t
}

// shardOf maps a task index to the shard owning it: contiguous balanced
// blocks, deterministic for the life of the run (journal shard tags stay
// meaningful across restarts with the same -shards).
func (t *leaseTable) shardOf(idx int) int {
	if len(t.shards) <= 1 {
		return 0
	}
	return idx * len(t.shards) / len(t.st)
}

// join registers a worker under a unique id, homing it on the next shard
// round-robin, or returns nil when the run is over or draining.
func (t *leaseTable) join(id string) *lessee {
	if t.finished || t.draining {
		return nil
	}
	t.workersSeen++
	if id == "" {
		id = fmt.Sprintf("worker-%d", t.workersSeen)
	}
	if _, dup := t.workers[id]; dup {
		id = fmt.Sprintf("%s#%d", id, t.workersSeen)
	}
	l := &lessee{id: id, home: t.nextHome, leased: make(map[int]bool)}
	t.nextHome = (t.nextHome + 1) % len(t.shards)
	t.workers[id] = l
	return l
}

// leave unregisters a worker and returns the tasks it still holds to
// their queues: the immediate re-dispatch path for a hangup.
func (t *leaseTable) leave(l *lessee) {
	for idx := range l.leased {
		t.requeue(idx)
	}
	delete(t.workers, l.id)
	t.maybeFinishDrain()
}

// grant leases up to capacity tasks to l until now+TTL: from its home
// shard when that has pending work, stolen from the most loaded shard
// otherwise. over means dismiss the worker with done: the run ended or
// is draining. With nothing to hand out, wake is the channel the next
// change that could answer the request closes.
func (t *leaseTable) grant(l *lessee, capacity int, now time.Time) (tasks []int, over bool, wake <-chan struct{}) {
	if t.finished || t.draining {
		return nil, true, nil
	}
	tasks, stolen := t.popSharded(l.home, max(capacity, 1))
	if len(tasks) == 0 {
		if t.wake == nil {
			t.wake = make(chan struct{})
		}
		return nil, false, t.wake
	}
	if stolen {
		t.steals++
	}
	t.grants++
	if len(tasks) > 1 {
		t.batchedGrant++
	}
	deadline := now.Add(t.ttl)
	for _, idx := range tasks {
		t.st[idx] = taskState{phase: stateLeased, worker: l.id, deadline: deadline}
		l.leased[idx] = true
	}
	return tasks, false, nil
}

// popSharded pops up to n tasks for a worker homed on shard home: from
// its own queue if possible, else a steal from the most loaded shard.
// stolen reports the steal (at most one victim per grant — a steal is a
// whole lease batch).
func (t *leaseTable) popSharded(home, n int) (tasks []int, stolen bool) {
	if tasks = t.popPending(home, n); len(tasks) > 0 {
		return tasks, false
	}
	for {
		victim, most := -1, 0
		for sh := range t.shards {
			if sh != home && len(t.shards[sh]) > most {
				victim, most = sh, len(t.shards[sh])
			}
		}
		if victim < 0 {
			return nil, false
		}
		if tasks = t.popPending(victim, n); len(tasks) > 0 {
			return tasks, true
		}
		// The victim's queue was all stale entries and is now drained;
		// look for the next-most-loaded shard.
	}
}

// popPending removes up to n indices from the head of one shard's queue,
// returning only those still pending. A queue entry can go stale: when a
// reclaimed task's original holder reports before the re-dispatched copy
// is granted, its result is accepted directly from statePending and the
// requeued index now names a finished task. Handing such an index out
// again would overwrite stateDone with stateLeased and let a second
// result be accepted — a duplicate journal record and a double decrement
// of remaining — so stale entries are dropped here.
func (t *leaseTable) popPending(sh, n int) []int {
	var tasks []int
	q := t.shards[sh]
	for len(tasks) < n && len(q) > 0 {
		idx := q[0]
		q = q[1:]
		if t.st[idx].phase != statePending {
			continue
		}
		tasks = append(tasks, idx)
	}
	t.shards[sh] = q
	return tasks
}

// requeue takes a leased task from its holder, returns it to its shard's
// queue and wakes the parked grants.
func (t *leaseTable) requeue(idx int) {
	s := &t.st[idx]
	if l := t.workers[s.worker]; l != nil {
		delete(l.leased, idx)
	}
	*s = taskState{phase: statePending}
	sh := t.shardOf(idx)
	t.shards[sh] = append(t.shards[sh], idx)
	t.redispatched++
	t.wakeParked()
}

// expire reclaims every lease whose deadline has passed at now. The
// holder may still be running the task — that is the straggler case, and
// whichever execution reports first wins. During a drain an expired lease
// resolves it: the task is pending again, re-dispatched on resume.
func (t *leaseTable) expire(now time.Time) {
	if t.finished {
		return
	}
	for idx := range t.st {
		if s := &t.st[idx]; s.phase == stateLeased && !now.Before(s.deadline) {
			t.requeue(idx)
		}
	}
	t.maybeFinishDrain()
}

// drain stops granting: parked grants wake to a dismissal, and the run
// ends as soon as no lease is outstanding.
func (t *leaseTable) drain() {
	t.draining = true
	t.wakeParked()
	t.maybeFinishDrain()
}

// maybeFinishDrain ends a drain once no task is leased or committing:
// every unfinished task is pending (safely re-dispatchable from the
// journal on resume), committing results have landed, and nothing more
// will arrive.
func (t *leaseTable) maybeFinishDrain() {
	if !t.draining || t.finished {
		return
	}
	for i := range t.st {
		if p := t.st[i].phase; p == stateLeased || p == stateCommitting {
			return
		}
	}
	t.end(true)
}

// claim decides one uploaded result: true means it won its task, now
// stateCommitting. Duplicates (a task the first responder finished or is
// committing, in this group or another) are discarded with their perf
// delta, so re-dispatched stragglers never double-count a task — see
// cluster.Meter. A reported failure is quarantined within the budget, and
// fails the run beyond it. Once the run has failed nothing wins.
func (t *leaseTable) claim(worker string, res resultMsg) bool {
	if t.failure != nil {
		return false
	}
	if res.Task < 0 || res.Task >= len(t.st) {
		t.fail(fmt.Errorf("distrib: worker %s reported task %d outside the %d-task grid", worker, res.Task, len(t.st)))
		return false
	}
	if res.Epoch != 0 && t.epoch != 0 && res.Epoch != t.epoch {
		// Epoch fence: the worker computed this under a previous
		// coordinator incarnation. The restarted coordinator re-seeded its
		// lease table from the journal, so the task is either already done
		// or owned by a fresh lease — either way this result is stale.
		t.staleEpoch++
		return false
	}
	s := &t.st[res.Task]
	if s.phase != statePending && s.phase != stateLeased {
		return false // first result won; this one is a re-dispatch echo
	}
	t.retries += res.Retries
	phase := stateCommitting
	if res.Failed {
		if !t.quarantine {
			task := cluster.TaskAt(res.Task, t.nK, t.nE)
			t.fail(fmt.Errorf("distrib: task failed: task %d (bias %d, k %d, E %d) on worker %s: %s",
				res.Task, task.Bias, task.K, task.E, worker, res.Error))
			return false
		}
		if len(t.quarantined) >= t.maxQuarantine {
			t.fail(fmt.Errorf("distrib: task failed: quarantine budget (%d tasks) exceeded by task %d on worker %s: %s",
				t.maxQuarantine, res.Task, worker, res.Error))
			return false
		}
		phase = stateQuarantined
	}
	if l := t.workers[s.worker]; l != nil {
		delete(l.leased, res.Task) // its holder, whoever reported it
	}
	*s = taskState{phase: phase, worker: worker}
	if !res.Failed {
		return true
	}
	t.quarantined = append(t.quarantined, res.Task)
	t.perf.Add(res.Perf)
	t.retire()
	t.maybeFinishDrain()
	return false
}

// committed marks a group's winners done once they are durable and
// restored, and counts the journal records and the sync that carried
// them.
func (t *leaseTable) committed(won []resultMsg, records int) {
	for _, res := range won {
		t.st[res.Task].phase = stateDone
		t.completed++
		t.perf.Add(res.Perf)
		t.retire()
	}
	t.journalRecs += records
	if records > 0 {
		t.journalSyncs++
	}
	t.maybeFinishDrain()
}

// retire counts one task done or quarantined and ends the run after the
// last.
func (t *leaseTable) retire() {
	t.remaining--
	if t.remaining == 0 {
		t.end(false)
	}
}

// fail records the first fatal error and ends the run.
func (t *leaseTable) fail(err error) {
	if t.failure == nil {
		t.failure = err
	}
	t.end(false)
}

// end finishes the run once; drained marks a drain that cut it short.
func (t *leaseTable) end(drained bool) {
	if t.finished {
		return
	}
	t.finished, t.drained = true, drained
	close(t.done)
	t.wakeParked()
}

// wakeParked answers every parked grant with a fresh attempt.
func (t *leaseTable) wakeParked() {
	if t.wake != nil {
		close(t.wake)
		t.wake = nil
	}
}

// fill writes the table's accounting into rep, folding the scheduling
// counters and the caller's extra ones (the coordinator's wire side; the
// workers' sides arrived inside their per-task deltas) into the merged
// perf snapshot. The counters are copied before the fold: rep.Perf shares
// t.perf's maps, which must stay a pure sum of deltas for a later fill.
func (t *leaseTable) fill(rep *Report, extra map[string]int64) {
	rep.Sweep.Restored = t.restored
	rep.Sweep.Completed = t.completed
	rep.Sweep.Retries = t.retries
	sort.Ints(t.quarantined)
	rep.Sweep.Quarantined = nil
	for _, idx := range t.quarantined {
		rep.Sweep.Quarantined = append(rep.Sweep.Quarantined, cluster.TaskAt(idx, t.nK, t.nE))
	}
	rep.Workers = t.workersSeen
	rep.Redispatched = t.redispatched
	rep.Perf = t.perf
	rep.StaleEpoch = t.staleEpoch
	rep.Shards = len(t.shards)
	rep.Steals = t.steals

	extra["shard-steals"] = int64(t.steals)
	extra["batched-grants"] = int64(t.batchedGrant)
	extra["lease-grants"] = int64(t.grants)
	extra["journal-records"] = int64(t.journalRecs)
	extra["journal-syncs"] = int64(t.journalSyncs)
	merged := make(map[string]int64, len(t.perf.Counters)+len(extra))
	for k, v := range t.perf.Counters {
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
