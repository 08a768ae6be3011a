package cluster

import (
	"context"
	"sync/atomic"
	"testing"

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

var errTest = errDummy{}

type errDummy struct{}

func (errDummy) Error() string { return "dummy" }
