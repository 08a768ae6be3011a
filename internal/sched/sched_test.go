package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/resilience"
)

// gauge tracks the peak number of concurrent holders.
type gauge struct {
	cur, peak atomic.Int64
}

func (g *gauge) enter() {
	c := g.cur.Add(1)
	for {
		p := g.peak.Load()
		if c <= p || g.peak.CompareAndSwap(p, c) {
			return
		}
	}
}

func (g *gauge) exit() { g.cur.Add(-1) }

func TestMapPreservesOrder(t *testing.T) {
	p := New(8)
	got, err := Map(context.Background(), p, "", 100, func(_ context.Context, i int) (int, error) {
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("got %d results, want 100", len(got))
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("result %d = %d, want %d", i, v, i*i)
		}
	}
}

func TestForEachBoundsConcurrency(t *testing.T) {
	const workers = 4
	p := New(workers)
	var g gauge
	err := p.ForEach(context.Background(), "", 200, func(_ context.Context, i int) error {
		g.enter()
		defer g.exit()
		time.Sleep(100 * time.Microsecond)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak := g.peak.Load(); peak > workers {
		t.Fatalf("peak concurrency %d exceeds worker budget %d", peak, workers)
	}
}

func TestNestedPoolsShareOneBudget(t *testing.T) {
	// An energy-level ForEach whose tasks each run a spatial-domain
	// ForEach on the same pool: the combined concurrency must stay within
	// the single worker budget (inner levels borrow, never add).
	const workers = 4
	p := New(workers)
	var g gauge
	err := p.ForEach(context.Background(), "outer", 16, func(ctx context.Context, i int) error {
		return p.ForEach(ctx, "inner", 8, func(_ context.Context, j int) error {
			g.enter()
			defer g.exit()
			time.Sleep(200 * time.Microsecond)
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak := g.peak.Load(); peak > workers {
		t.Fatalf("nested peak concurrency %d exceeds shared budget %d", peak, workers)
	}
}

func TestSerialPoolRunsInline(t *testing.T) {
	p := New(1)
	before := runtime.NumGoroutine()
	err := p.ForEach(context.Background(), "", 50, func(_ context.Context, i int) error {
		if n := runtime.NumGoroutine(); n > before+2 {
			t.Errorf("serial pool spawned helpers: %d goroutines (baseline %d)", n, before)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFirstErrorByIndex(t *testing.T) {
	p := New(8)
	boom := errors.New("boom")
	for trial := 0; trial < 20; trial++ {
		err := p.ForEach(context.Background(), "phase", 64, func(_ context.Context, i int) error {
			if i >= 5 {
				return fmt.Errorf("task %d: %w", i, boom)
			}
			return nil
		})
		te, ok := AsTaskError(err)
		if !ok {
			t.Fatalf("error %v is not a TaskError", err)
		}
		if te.Index != 5 {
			t.Fatalf("reported index %d, want lowest failing index 5", te.Index)
		}
		if te.Phase != "phase" {
			t.Fatalf("reported phase %q", te.Phase)
		}
		if !errors.Is(err, boom) {
			t.Fatalf("cause not preserved through %v", err)
		}
	}
}

func TestFailureCancelsInFlightSiblings(t *testing.T) {
	p := New(4)
	var started, sawCancel atomic.Int64
	var once sync.Once
	siblingUp := make(chan struct{})
	err := p.ForEach(context.Background(), "", 1000, func(ctx context.Context, i int) error {
		started.Add(1)
		if i == 0 {
			// Fail only once a sibling is provably in flight, so the
			// cancellation below has someone to reach.
			select {
			case <-siblingUp:
			case <-time.After(2 * time.Second):
				return errors.New("no sibling ever started")
			}
			return errors.New("fail fast")
		}
		once.Do(func() { close(siblingUp) })
		// After the index-0 failure, this sibling must observe
		// cancellation promptly instead of running to completion.
		select {
		case <-ctx.Done():
			sawCancel.Add(1)
			return ctx.Err()
		case <-time.After(2 * time.Second):
			return errors.New("sibling never canceled")
		}
	})
	te, ok := AsTaskError(err)
	if !ok || te.Index != 0 {
		t.Fatalf("got %v, want the index-0 failure", err)
	}
	if started.Load() == 1000 {
		t.Fatal("cancellation did not short-circuit dispatch")
	}
	if sawCancel.Load() == 0 {
		t.Fatal("no in-flight sibling observed cancellation")
	}
}

func TestParentCancellation(t *testing.T) {
	p := New(4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := p.ForEach(ctx, "", 100, func(_ context.Context, i int) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestNoGoroutineLeak(t *testing.T) {
	p := New(8)
	baseline := runtime.NumGoroutine()
	for trial := 0; trial < 10; trial++ {
		_ = p.ForEach(context.Background(), "", 500, func(_ context.Context, i int) error {
			if i == 250 {
				return errors.New("mid-sweep failure")
			}
			return nil
		})
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d live, baseline %d", runtime.NumGoroutine(), baseline)
}

func TestHookSeesEveryTask(t *testing.T) {
	p := New(4)
	var mu sync.Mutex
	seen := make(map[int]int)
	p.Hook = func(ev TaskEvent) {
		mu.Lock()
		defer mu.Unlock()
		if ev.Phase != "hooked" {
			t.Errorf("event phase %q", ev.Phase)
		}
		seen[ev.Index]++
	}
	if err := p.ForEach(context.Background(), "hooked", 40, func(_ context.Context, i int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 40 {
		t.Fatalf("hook saw %d distinct tasks, want 40", len(seen))
	}
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("task %d hooked %d times", i, n)
		}
	}
}

func TestWorkersDefault(t *testing.T) {
	if w := New(0).Workers(); w != runtime.GOMAXPROCS(0) {
		t.Fatalf("New(0).Workers() = %d, want GOMAXPROCS = %d", w, runtime.GOMAXPROCS(0))
	}
	if w := New(-3).Workers(); w != runtime.GOMAXPROCS(0) {
		t.Fatalf("New(-3).Workers() = %d, want GOMAXPROCS", w)
	}
	if w := New(5).Workers(); w != 5 {
		t.Fatalf("New(5).Workers() = %d", w)
	}
}

func TestMapEmptyAndSingle(t *testing.T) {
	p := New(4)
	got, err := Map(context.Background(), p, "", 0, func(_ context.Context, i int) (string, error) {
		return "x", nil
	})
	if err != nil || len(got) != 0 {
		t.Fatalf("empty map: %v, %v", got, err)
	}
	one, err := Map(context.Background(), p, "", 1, func(_ context.Context, i int) (string, error) {
		return "only", nil
	})
	if err != nil || len(one) != 1 || one[0] != "only" {
		t.Fatalf("single map: %v, %v", one, err)
	}
}

func TestPanicBecomesTaskError(t *testing.T) {
	p := New(4)
	var sawCancel atomic.Int64
	err := p.ForEach(context.Background(), "sweep", 64, func(ctx context.Context, i int) error {
		if i == 3 {
			panic(fmt.Sprintf("bad energy point %d", i))
		}
		select {
		case <-ctx.Done():
			sawCancel.Add(1)
			return ctx.Err()
		case <-time.After(50 * time.Millisecond):
			return nil
		}
	})
	te, ok := AsTaskError(err)
	if !ok {
		t.Fatalf("panic surfaced as %v, not a *TaskError", err)
	}
	if te.Index != 3 || te.Phase != "sweep" {
		t.Fatalf("panic attributed to (%q, %d), want (sweep, 3)", te.Phase, te.Index)
	}
	var pe *resilience.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("no *resilience.PanicError carries the recovered panic in %v", err)
	}
	if pe.Value != "bad energy point 3" || len(pe.Stack) == 0 {
		t.Fatalf("panic value/stack lost: %+v", pe)
	}
	if sawCancel.Load() == 0 {
		t.Fatal("panic did not cancel in-flight siblings")
	}
}

func TestPanicInNestedLevelContained(t *testing.T) {
	p := New(4)
	err := p.ForEach(context.Background(), "outer", 4, func(ctx context.Context, i int) error {
		return p.ForEach(ctx, "inner", 4, func(_ context.Context, j int) error {
			if i == 1 && j == 2 {
				panic("domain blow-up")
			}
			return nil
		})
	})
	var pe *resilience.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("nested panic not recovered: %v", err)
	}
	te, ok := AsTaskError(err)
	if !ok || te.Phase != "outer" || te.Index != 1 {
		t.Fatalf("outer attribution wrong: %v", err)
	}
}
