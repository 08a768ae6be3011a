package cluster

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sched"
)

func TestRunTasksCoversAllAndIsOrdered(t *testing.T) {
	const nb, nk, ne = 2, 3, 5
	var count atomic.Int64
	seen := make([]atomic.Bool, nb*nk*ne)
	_, err := RunTasksResumable(context.Background(), nb, nk, ne, SweepOptions{Pool: sched.New(4)}, func(_ context.Context, task Task) ([]byte, error) {
		idx := (task.Bias*nk+task.K)*ne + task.E
		if seen[idx].Swap(true) {
			t.Errorf("task %v executed twice", task)
		}
		count.Add(1)
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count.Load() != nb*nk*ne {
		t.Fatalf("executed %d tasks, want %d", count.Load(), nb*nk*ne)
	}
	for i := range seen {
		if !seen[i].Load() {
			t.Fatalf("task %d never executed", i)
		}
	}
}

func TestRunTasksPropagatesError(t *testing.T) {
	_, err := RunTasksResumable(context.Background(), 1, 1, 4, SweepOptions{Pool: sched.New(2)}, func(_ context.Context, task Task) ([]byte, error) {
		if task.E == 2 {
			return nil, errTest
		}
		return nil, nil
	})
	if err == nil {
		t.Fatal("error not propagated")
	}
}

// The runner is the one energy loop of the engine: every transmission
// sweep and every SCF pass of core.FET runs its energies as its tasks.
// The four tests below hold it to the guarantees a grid of single-energy
// solves needs from it.

// TestRunnerGoroutineCountStaysBounded: a 10k-task grid runs on the pool's
// W goroutines — the caller plus at most W−1 helpers — never one per task.
func TestRunnerGoroutineCountStaysBounded(t *testing.T) {
	const workers, nE = 8, 10000
	baseline := runtime.NumGoroutine()
	var peak atomic.Int64
	_, err := RunTasksResumable(context.Background(), 1, 1, nE, SweepOptions{Pool: sched.New(workers)}, func(_ context.Context, _ Task) ([]byte, error) {
		n := int64(runtime.NumGoroutine())
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// W−1 helpers join the caller; the slack covers goroutines of earlier
	// tests still exiting, and stays far below one goroutine per task.
	if limit := int64(baseline + 2*workers); peak.Load() > limit {
		t.Fatalf("peak goroutines %d exceeds the O(W) bound %d on a %d-task grid", peak.Load(), limit, nE)
	}
}

// TestRunnerFirstErrorByTaskOrder: when every task from E = 40 on fails,
// the run names task 40 on a wide pool, whichever failure lands first in
// wall-clock time, and keeps the cause.
func TestRunnerFirstErrorByTaskOrder(t *testing.T) {
	boom := errors.New("solver blew up")
	for trial := 0; trial < 20; trial++ {
		_, err := RunTasksResumable(context.Background(), 1, 1, 101, SweepOptions{Pool: sched.New(6)}, func(_ context.Context, task Task) ([]byte, error) {
			if task.E >= 40 {
				return nil, fmt.Errorf("E %d: %w", task.E, boom)
			}
			return nil, nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("trial %d: cause lost: %v", trial, err)
		}
		if want := "cluster: task 40 (bias 0, k 0, E 40): E 40: "; !strings.Contains(err.Error(), want) {
			t.Fatalf("trial %d: error %q does not name the first failing task %q", trial, err, want)
		}
	}
}

// TestRunnerFailureCancelsSiblings: a failure stops the run early — the
// in-flight tasks of other groups see their ctx canceled and return, and
// the undispatched tail never starts.
func TestRunnerFailureCancelsSiblings(t *testing.T) {
	const nE = 1000
	var started, sawCancel atomic.Int64
	var once sync.Once
	siblingUp := make(chan struct{})
	_, err := RunTasksResumable(context.Background(), 1, 1, nE, SweepOptions{Pool: sched.New(4)}, func(ctx context.Context, task Task) ([]byte, error) {
		started.Add(1)
		if task.E == 0 {
			// Fail only once a sibling is provably in flight, so the
			// cancellation has someone to reach.
			select {
			case <-siblingUp:
			case <-time.After(2 * time.Second):
				return nil, errors.New("no sibling ever started")
			}
			return nil, errors.New("first task fails")
		}
		once.Do(func() { close(siblingUp) })
		select {
		case <-ctx.Done():
			sawCancel.Add(1)
			return nil, ctx.Err()
		case <-time.After(2 * time.Second):
			return nil, errors.New("sibling never canceled")
		}
	})
	if err == nil || !strings.Contains(err.Error(), "cluster: task 0 (bias 0, k 0, E 0): first task fails") {
		t.Fatalf("got %v, want task 0's failure", err)
	}
	if started.Load() == nE {
		t.Fatal("the failure did not stop the dispatch of the tail")
	}
	if sawCancel.Load() == 0 {
		t.Fatal("no in-flight sibling saw its ctx canceled")
	}
}

// TestRunnerHonorsParentContext: a run under a canceled ctx starts no task
// and reports the cancellation itself.
func TestRunnerHonorsParentContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	_, err := RunTasksResumable(ctx, 1, 1, 64, SweepOptions{Pool: sched.New(4)}, func(_ context.Context, _ Task) ([]byte, error) {
		ran.Add(1)
		return nil, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if ran.Load() != 0 {
		t.Fatalf("%d tasks ran under a canceled ctx", ran.Load())
	}
}

var errTest = errDummy{}

type errDummy struct{}

func (errDummy) Error() string { return "dummy" }
