package distrib

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
)

// schedule drives one lease table through a seeded interleaving of the
// events the coordinator feeds it, the way the coordinator feeds them:
// claims go into the one open commit group, which is then committed or
// lost to a commit error, and time moves only when the schedule says so.
type schedule struct {
	rng       *rand.Rand
	tb        *leaseTable
	now       time.Time
	faultFree bool // no failed task, no commit error, no drain
	failEvery int  // otherwise, one result in failEvery reports a failure

	initial []bool           // tasks the run started with done
	live    []*lessee        // registered workers, in join order
	history map[string][]int // per worker: every task it was granted, stragglers' included
	joins   int
	group   []resultMsg     // claimed winners of the open commit group
	commits []int           // per task
	wake    <-chan struct{} // the last parked grant's
}

// tableEpoch is the incarnation the schedules run at; results tagged
// tableEpoch-1 are stale.
const tableEpoch = 2

func newSchedule(seed int64) *schedule {
	rng := rand.New(rand.NewSource(seed))
	total := 1 + rng.Intn(40)
	done := make([]bool, total)
	for i := 1; i < total; i++ { // task 0 stays open: a run with nothing left never schedules
		done[i] = rng.Intn(10) == 0
	}
	s := &schedule{
		rng:       rng,
		now:       time.Unix(1, 0),
		faultFree: seed%2 == 0,
		failEvery: 1 + rng.Intn(4),
		initial:   done,
		history:   map[string][]int{},
		commits:   make([]int, total),
	}
	opts := Options{Epoch: tableEpoch, Shards: 1 + rng.Intn(3), Quarantine: rng.Intn(2) == 0}.withDefaults()
	s.tb = newLeaseTable(1, total, opts, done)
	for n := 1 + rng.Intn(5); n > 0; n-- {
		s.join()
	}
	return s
}

func (s *schedule) join() {
	s.joins++
	if l := s.tb.join(fmt.Sprintf("w%d", s.joins)); l != nil {
		s.live = append(s.live, l)
	}
}

// worker picks a live worker, joining one when none is left.
func (s *schedule) worker() *lessee {
	if len(s.live) == 0 {
		s.join()
		if len(s.live) == 0 {
			return nil // the run is over or draining
		}
	}
	return s.live[s.rng.Intn(len(s.live))]
}

// claim reports one result and files a winner into the open group.
func (s *schedule) claim(worker string, res resultMsg) bool {
	won := s.tb.claim(worker, res)
	if won {
		s.group = append(s.group, res)
	}
	return won
}

// step applies one random event and returns what it did, for the failure
// message.
func (s *schedule) step() string {
	tb, total := s.tb, len(s.tb.st)
	switch ev := s.rng.Intn(12); ev {
	case 0, 1: // grant
		w := s.worker()
		if w == nil {
			return "grant to nobody"
		}
		capacity := 1 + s.rng.Intn(8)
		tasks, over, wake := tb.grant(w, capacity, s.now)
		if wake != nil {
			s.wake = wake
		}
		s.history[w.id] = append(s.history[w.id], tasks...)
		return fmt.Sprintf("grant %s cap %d -> %v over=%v parked=%v", w.id, capacity, tasks, over, wake != nil)
	case 2, 3, 4: // a result for a task the worker holds or once held: success, or failure
		w := s.worker()
		if w == nil || len(s.history[w.id]) == 0 {
			return "result from a worker that was never granted a task"
		}
		idx := s.history[w.id][s.rng.Intn(len(s.history[w.id]))]
		failed := !s.faultFree && s.rng.Intn(s.failEvery) == 0
		won := s.claim(w.id, resultMsg{Task: idx, Failed: failed, Error: "injected", Epoch: tableEpoch})
		return fmt.Sprintf("result %s task %d failed=%v won=%v", w.id, idx, failed, won)
	case 5: // duplicate: any task, any worker
		w := s.worker()
		if w == nil {
			return "duplicate from nobody"
		}
		idx := s.rng.Intn(total)
		won := s.claim(w.id, resultMsg{Task: idx, Epoch: tableEpoch})
		return fmt.Sprintf("duplicate %s task %d won=%v", w.id, idx, won)
	case 6: // stale epoch: must change nothing but the counter
		w := s.worker()
		if w == nil {
			return "stale result from nobody"
		}
		idx := s.rng.Intn(total)
		before, stale := tb.st[idx], tb.staleEpoch
		if s.claim(w.id, resultMsg{Task: idx, Epoch: tableEpoch - 1}) || tb.st[idx] != before ||
			(tb.failure == nil && tb.staleEpoch != stale+1) {
			return fmt.Sprintf("FAIL: stale-epoch result for task %d was not fenced off", idx)
		}
		return fmt.Sprintf("stale %s task %d", w.id, idx)
	case 7: // the open group becomes durable
		n := len(s.group)
		s.commitGroup()
		return fmt.Sprintf("commit %d", n)
	case 8: // hangup, or a commit error in a faulty schedule
		if !s.faultFree && s.rng.Intn(4) == 0 {
			tb.fail(errors.New("disk full"))
			s.group = nil // stays committing: never re-leased
			return "commit error"
		}
		if len(s.live) == 0 {
			return "hangup of nobody"
		}
		i := s.rng.Intn(len(s.live))
		w := s.live[i]
		s.live = slices.Delete(s.live, i, i+1)
		tb.leave(w)
		return "hangup " + w.id
	case 9: // rejoin under a new id
		s.join()
		return "join"
	case 10: // the clock moves and leases expire
		s.now = s.now.Add(time.Duration(s.rng.Int63n(int64(2 * tb.ttl))))
		tb.expire(s.now)
		return "expire"
	default: // drain, in a faulty schedule
		if s.faultFree || s.rng.Intn(3) != 0 {
			s.join()
			return "join"
		}
		tb.drain()
		if s.wake != nil {
			select {
			case <-s.wake:
			default:
				return "FAIL: a drain left a parked grant asleep"
			}
		}
		for _, w := range s.live {
			if _, over, _ := tb.grant(w, 1, s.now); !over {
				return "FAIL: a draining table granted " + w.id
			}
		}
		return "drain"
	}
}

// check asserts the table's invariants.
func (s *schedule) check(wasDrained bool) string {
	tb := s.tb
	open := 0
	held := map[int]int{}
	for id, l := range tb.workers {
		for idx := range l.leased {
			held[idx]++
			if st := tb.st[idx]; st.phase != stateLeased || st.worker != id {
				return fmt.Sprintf("task %d is in %s's lease set but phase %d, holder %q", idx, id, st.phase, st.worker)
			}
		}
	}
	queued := map[int]bool{}
	for _, q := range tb.shards {
		for _, idx := range q {
			queued[idx] = true
		}
	}
	outstanding := false
	for idx, st := range tb.st {
		if s.commits[idx] > 1 {
			return fmt.Sprintf("task %d committed %d times", idx, s.commits[idx])
		}
		switch st.phase {
		case statePending:
			if !queued[idx] {
				return fmt.Sprintf("pending task %d is in no queue", idx)
			}
		case stateLeased:
			outstanding = true
			if held[idx] != 1 || tb.workers[st.worker] == nil || !tb.workers[st.worker].leased[idx] {
				return fmt.Sprintf("leased task %d (holder %q) is in %d lease sets", idx, st.worker, held[idx])
			}
		case stateCommitting:
			outstanding = true
		}
		if st.phase != stateDone && st.phase != stateQuarantined {
			open++
		}
	}
	if tb.remaining != open {
		return fmt.Sprintf("remaining = %d, %d tasks are neither done nor quarantined", tb.remaining, open)
	}
	if budget := cluster.QuarantineBudget(tb.quarantine, len(tb.st)); len(tb.quarantined) > budget {
		return fmt.Sprintf("%d tasks quarantined, budget %d", len(tb.quarantined), budget)
	}
	if tb.drained && !wasDrained && outstanding {
		return "a drain finished with a task leased or committing"
	}
	return ""
}

// commitGroup makes the open group durable.
func (s *schedule) commitGroup() {
	for _, res := range s.group {
		s.commits[res.Task]++
	}
	s.tb.committed(s.group, len(s.group))
	s.group = nil
}

// settle runs a fault-free schedule to the end: the open group commits,
// every lease expires, and one worker takes and commits whatever is left.
func (s *schedule) settle() string {
	tb := s.tb
	for round := 0; ; round++ {
		s.commitGroup()
		if tb.remaining == 0 {
			break
		}
		if round > len(tb.st) {
			return fmt.Sprintf("no progress: %d tasks remain", tb.remaining)
		}
		s.now = s.now.Add(2 * tb.ttl)
		tb.expire(s.now)
		w := s.worker()
		if w == nil {
			return fmt.Sprintf("no worker can join with %d tasks left", tb.remaining)
		}
		tasks, over, wake := tb.grant(w, len(tb.st), s.now)
		if over || wake != nil {
			return fmt.Sprintf("settling worker %s was dismissed (%v) or parked (%v) with %d tasks left", w.id, over, wake != nil, tb.remaining)
		}
		for _, idx := range tasks {
			s.claim(w.id, resultMsg{Task: idx, Epoch: tableEpoch})
		}
		if msg := s.check(false); msg != "" {
			return msg
		}
	}
	if !tb.finished || tb.failure != nil {
		return fmt.Sprintf("a fault-free run ended finished=%v failure=%v", tb.finished, tb.failure)
	}
	for idx, n := range s.commits {
		want := 1
		if s.initial[idx] {
			want = 0 // restored from the journal, never run
		}
		if n != want {
			return fmt.Sprintf("task %d committed %d times in a fault-free run, want %d", idx, n, want)
		}
	}
	return ""
}

// TestLeaseTableSchedules replays 1,000 seeded interleavings of grants,
// results (successes, failures, duplicates, stale epochs), commits,
// commit errors, hangups, rejoins, expiries and drains against the lease
// table, asserting its invariants after every event, and runs every
// fault-free seed to a sweep that commits each task exactly once.
func TestLeaseTableSchedules(t *testing.T) {
	for seed := int64(0); seed < 1000; seed++ {
		s := newSchedule(seed)
		var trace []string
		fail := func(msg string) {
			t.Fatalf("seed %d: %s\nlast events:\n  %s", seed, msg, strings.Join(trace[max(len(trace)-40, 0):], "\n  "))
		}
		if msg := s.check(false); msg != "" {
			fail(msg)
		}
		for n := 20 + s.rng.Intn(6*len(s.tb.st)); n > 0; n-- {
			wasDrained := s.tb.drained
			ev := s.step()
			trace = append(trace, ev)
			if strings.HasPrefix(ev, "FAIL:") {
				fail(ev)
			}
			if msg := s.check(wasDrained); msg != "" {
				fail(msg)
			}
		}
		if s.faultFree {
			if msg := s.settle(); msg != "" {
				fail(msg)
			}
		}
	}
}

// TestLeaseTableWakesParkedGrants: a grant that finds every task leased
// elsewhere parks on a wake channel, and each change that can answer it
// closes that channel at once — no tick, no timeout: a requeue (hangup or
// expiry) answers it with the tasks, the last commit, a failure and a
// drain with a dismissal.
func TestLeaseTableWakesParkedGrants(t *testing.T) {
	const total = 2
	now := time.Unix(1, 0)
	cases := []struct {
		name     string
		event    func(t *testing.T, tb *leaseTable, holder *lessee)
		wantOver bool
	}{
		{"hangup", func(_ *testing.T, tb *leaseTable, holder *lessee) { tb.leave(holder) }, false},
		{"expiry", func(_ *testing.T, tb *leaseTable, _ *lessee) { tb.expire(now.Add(tb.ttl)) }, false},
		{"last commit", func(t *testing.T, tb *leaseTable, holder *lessee) {
			var won []resultMsg
			for idx := 0; idx < total; idx++ {
				res := resultMsg{Task: idx}
				if !tb.claim(holder.id, res) {
					t.Fatalf("holder's result for task %d lost", idx)
				}
				won = append(won, res)
			}
			tb.committed(won[:1], 1)
			if tb.wake == nil {
				t.Fatal("a commit that left a task open woke the parked grant")
			}
			tb.committed(won[1:], 1)
		}, true},
		{"failure", func(_ *testing.T, tb *leaseTable, _ *lessee) { tb.fail(errors.New("journal: disk full")) }, true},
		{"drain", func(_ *testing.T, tb *leaseTable, _ *lessee) { tb.drain() }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tb := newLeaseTable(1, total, Options{}.withDefaults(), make([]bool, total))
			holder, parked := tb.join("holder"), tb.join("parked")
			if tasks, _, _ := tb.grant(holder, total, now); len(tasks) != total {
				t.Fatalf("holder leased %v, want all %d tasks", tasks, total)
			}
			_, over, wake := tb.grant(parked, total, now)
			if over || wake == nil {
				t.Fatalf("grant with every task leased elsewhere: over=%v, parked=%v; want a park", over, wake != nil)
			}
			tc.event(t, tb, holder)
			select {
			case <-wake:
			default:
				t.Fatalf("%s did not wake the parked grant", tc.name)
			}
			tasks, over, wake := tb.grant(parked, total, now)
			slices.Sort(tasks)
			if wake != nil || over != tc.wantOver || !tc.wantOver && !reflect.DeepEqual(tasks, []int{0, 1}) {
				t.Fatalf("after %s the parked grant got %v, over=%v, parked again=%v; want over=%v",
					tc.name, tasks, over, wake != nil, tc.wantOver)
			}
		})
	}
}
