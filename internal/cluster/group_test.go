package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/linalg"
	"repro/internal/perf"
	"repro/internal/resilience"
	"repro/internal/sched"
)

// checkGroups holds a cut of idx to the lane-group rules: in order, it
// covers idx exactly; each group holds 1…linalg.Lanes indices that follow
// each other by one within one (bias, k) row; and its Tasks are its
// indices in sweep coordinates.
func checkGroups(t *testing.T, idx []int, groups []*Group, nK, nE int) {
	t.Helper()
	var flat []int
	for gi, g := range groups {
		if len(g.Index) == 0 || len(g.Index) > linalg.Lanes {
			t.Fatalf("group %d holds %d indices", gi, len(g.Index))
		}
		for k, x := range g.Index {
			if k > 0 && (x != g.Index[k-1]+1 || x/nE != g.Index[0]/nE) {
				t.Fatalf("group %d %v skips a task or straddles a (bias, k) row", gi, g.Index)
			}
			if l := g.Lane(TaskAt(x, nK, nE)); l != k {
				t.Fatalf("group %d: task %d at lane %d", gi, x, l)
			}
		}
		for _, x := range []int{g.Index[0] - 1, g.Index[len(g.Index)-1] + 1} {
			if x >= 0 && g.Lane(TaskAt(x, nK, nE)) != -1 {
				t.Fatalf("group %d %v claims task %d", gi, g.Index, x)
			}
		}
		flat = append(flat, g.Index...)
	}
	if fmt.Sprint(flat) != fmt.Sprint(idx) {
		t.Fatalf("groups cover %v, want %v", flat, idx)
	}
}

func pointers(gs []Group) []*Group {
	out := make([]*Group, len(gs))
	for i := range gs {
		out[i] = &gs[i]
	}
	return out
}

// TestGroupsCut: on random pending sets of random grids, Groups cuts the
// indices into lane groups that never skip a task nor straddle a row, and
// cuts an unbroken row into full groups from its start.
func TestGroupsCut(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for it := 0; it < 500; it++ {
		nBias, nK, nE := 1+r.Intn(3), 1+r.Intn(3), 1+r.Intn(11)
		var idx []int
		for x := 0; x < nBias*nK*nE; x++ {
			if r.Intn(5) != 0 {
				idx = append(idx, x)
			}
		}
		checkGroups(t, idx, pointers(Groups(idx, nK, nE)), nK, nE)
	}
	row := []int{10, 11, 12, 13, 14, 15, 16, 17, 18, 19}
	if gs := Groups(row, 1, 10); len(gs) != 3 || len(gs[0].Index) != linalg.Lanes || len(gs[2].Index) != 2 {
		t.Fatalf("an unbroken row of 10 cut into %d groups", len(gs))
	}
	if (*Group)(nil).Lane(Task{}) != -1 || GroupFrom(context.Background()) != nil {
		t.Fatal("no group: Lane must be -1 and GroupFrom nil")
	}
}

// TestRunnerRunsLaneGroups drives RunTasksResumable over a journal that
// already holds scattered tasks, on a 2-wide pool: every task function
// sees its lane group in ctx; the groups are cut from the pending tasks by
// Groups' rules, so none holds a restored task; each group runs on one
// worker in index order and fills its lanes once, on its first task; and
// the journal gains exactly one record per pending task.
func TestRunnerRunsLaneGroups(t *testing.T) {
	const nBias, nK, nE = 2, 2, 11
	total := nBias * nK * nE
	journal := &MemJournal{}
	restored := map[int]bool{}
	for _, x := range []int{0, 5, 6, 13, 30, 43} {
		restored[x] = true
		if err := journal.Append(TaskRecord{Index: x, Payload: []byte{1}}); err != nil {
			t.Fatal(err)
		}
	}
	var mu sync.Mutex
	seen := map[*Group][]int{}
	fills := map[*Group]int{}
	_, err := RunTasksResumable(context.Background(), nBias, nK, nE, SweepOptions{
		Pool: sched.New(2), Journal: journal, Restore: func(Task, []byte) error { return nil },
	}, func(ctx context.Context, task Task) ([]byte, error) {
		g := GroupFrom(ctx)
		if g.Lane(task) < 0 {
			return nil, fmt.Errorf("task %+v runs outside its group", task)
		}
		g.Lanes(func(tasks []Task) any {
			mu.Lock()
			defer mu.Unlock()
			fills[g]++
			if tasks[0] != task {
				t.Errorf("group %v filled by task %+v, not its first", g.Index, task)
			}
			return nil
		})
		mu.Lock()
		defer mu.Unlock()
		seen[g] = append(seen[g], (task.Bias*nK+task.K)*nE+task.E)
		return []byte{1}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var groups []*Group
	for g, ran := range seen {
		if fmt.Sprint(ran) != fmt.Sprint(g.Index) {
			t.Fatalf("group %v ran %v: not its tasks in index order", g.Index, ran)
		}
		if fills[g] != 1 {
			t.Fatalf("group %v filled its lanes %d times", g.Index, fills[g])
		}
		groups = append(groups, g)
	}
	// In index order, the groups are Groups' cut of the pending tasks.
	for i := range groups {
		for j := i + 1; j < len(groups); j++ {
			if groups[j].Index[0] < groups[i].Index[0] {
				groups[i], groups[j] = groups[j], groups[i]
			}
		}
	}
	var pending []int
	for x := 0; x < total; x++ {
		if !restored[x] {
			pending = append(pending, x)
		}
	}
	checkGroups(t, pending, groups, nK, nE)
	recs, err := journal.Load()
	if err != nil {
		t.Fatal(err)
	}
	count := map[int]int{}
	for _, rec := range recs {
		count[rec.Index]++
	}
	for x := 0; x < total; x++ {
		if count[x] != 1 {
			t.Fatalf("task %d has %d journal records", x, count[x])
		}
	}
}

// TestRunnerGroupDeltasArePerTask: on a 1-wide pool a task's journaled perf
// delta is its own cost, whatever its group computed for its neighbours:
// work done for the group at fill time counts nothing, and each task counts
// its own share when it takes it — as the self-energy lanes do.
func TestRunnerGroupDeltasArePerTask(t *testing.T) {
	const nBias, nK, nE = 1, 2, 9
	cost := func(x int) int64 { return int64(100*x + 7) }
	journal := &MemJournal{}
	_, err := RunTasksResumable(context.Background(), nBias, nK, nE, SweepOptions{
		Pool: sched.New(1), Journal: journal,
	}, func(ctx context.Context, task Task) ([]byte, error) {
		GroupFrom(ctx).Lanes(func([]Task) any { return nil })
		perf.AddFlops(cost((task.Bias*nK+task.K)*nE + task.E))
		return []byte{1}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := journal.Load()
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if rec.Perf == nil || rec.Perf.Flops != cost(rec.Index) {
			t.Fatalf("task %d journaled %+v, want %d flops", rec.Index, rec.Perf, cost(rec.Index))
		}
	}
}

// TestRunnerGroupErrorsNameTheTask: a task failing mid-group is named by
// its own index and coordinates, never its group's, and quarantine sets
// failures aside task by task under the unchanged budget.
func TestRunnerGroupErrorsNameTheTask(t *testing.T) {
	const nBias, nK, nE = 1, 2, 8
	failing := func(bad ...int) SweepFunc {
		return func(_ context.Context, task Task) ([]byte, error) {
			x := task.K*nE + task.E
			for _, b := range bad {
				if x == b {
					return nil, resilience.MarkPermanent(errors.New("boom"))
				}
			}
			return []byte{1}, nil
		}
	}
	_, err := RunTasksResumable(context.Background(), nBias, nK, nE, SweepOptions{Pool: sched.New(1)}, failing(10))
	if err == nil || !strings.Contains(err.Error(), "cluster: task 10 (bias 0, k 1, E 2): ") {
		t.Fatalf("error %v does not name task 10 (bias 0, k 1, E 2)", err)
	}
	rep, err := RunTasksResumable(context.Background(), nBias, nK, nE, SweepOptions{Pool: sched.New(2), Quarantine: true}, failing(5, 6))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(rep.Quarantined) != "[{0 0 5} {0 0 6}]" || rep.Completed != 14 {
		t.Fatalf("quarantined %v, completed %d", rep.Quarantined, rep.Completed)
	}
	budget := QuarantineBudget(true, nBias*nK*nE)
	_, err = RunTasksResumable(context.Background(), nBias, nK, nE, SweepOptions{Pool: sched.New(1), Quarantine: true}, failing(1, 2, 3, 5, 6))
	if want := fmt.Sprintf("cluster: task 6 (bias 0, k 0, E 6): cluster: quarantine budget (%d tasks) exceeded", budget); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("error %v, want %q", err, want)
	}
}

// TestRunnerGroupInjectorTripsPerTask: the failure drill trips each task on
// its own attempts, as without groups — the run retries exactly the
// attempts the injector fails — and a retried task still finds its lane.
func TestRunnerGroupInjectorTripsPerTask(t *testing.T) {
	const nBias, nK, nE = 1, 3, 10
	inj := &resilience.Injector{Seed: 11, Rate: 0.3, FailuresPerTask: 2}
	want := 0
	for x := 0; x < nBias*nK*nE; x++ {
		if inj.FaultFor(x) != resilience.FaultNone {
			want += inj.FailuresPerTask
		}
	}
	if want == 0 {
		t.Fatal("the injector trips nothing: the drill is vacuous")
	}
	rep, err := RunTasksResumable(context.Background(), nBias, nK, nE, SweepOptions{
		Pool: sched.New(2), Retry: fastRetry(10), Injector: inj,
	}, func(ctx context.Context, task Task) ([]byte, error) {
		if GroupFrom(ctx).Lane(task) < 0 {
			return nil, resilience.MarkPermanent(fmt.Errorf("task %+v lost its lane", task))
		}
		return []byte{1}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Retries != want {
		t.Fatalf("%d retries, the injector fails %d attempts", rep.Retries, want)
	}
}
