package transport

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/linalg"
	"repro/internal/negf"
	"repro/internal/sched"
)

// stubSolver is a pointSolver with scriptable behavior, for exercising the
// engine's scheduling without paying for real quantum solves.
type stubSolver struct {
	calls atomic.Int64
	// fail returns a non-nil error for energies it wants to fail.
	fail func(e float64) error
	// block, when set, delays each solve until ctx is canceled or the
	// duration elapses.
	block time.Duration
}

func (s *stubSolver) SolveCtx(ctx context.Context, e float64, density bool) (*negf.Result, error) {
	s.calls.Add(1)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s.block > 0 {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(s.block):
		}
	}
	if s.fail != nil {
		if err := s.fail(e); err != nil {
			return nil, err
		}
	}
	return &negf.Result{E: e, T: 2 * e}, nil
}

func (s *stubSolver) SolveWithSigma(ctx context.Context, e float64, _, _ *linalg.Matrix, density bool) (*negf.Result, error) {
	return s.SolveCtx(ctx, e, density)
}

func stubEngine(workers int, s *stubSolver) *Engine {
	return &Engine{solver: s, pool: sched.New(workers)}
}

func TestSpectrumGoroutineCountStaysBounded(t *testing.T) {
	// Regression test for the unbounded-spawn bug: the seed implementation
	// launched one goroutine per grid point (10k here) and only gated their
	// execution; the pool must instead keep live goroutines O(Workers).
	const workers = 8
	grid := UniformGrid(-1, 1, 10000)
	baseline := runtime.NumGoroutine()
	var peak atomic.Int64
	stub := &stubSolver{}
	stub.fail = func(e float64) error { // sampling hook, never fails
		n := int64(runtime.NumGoroutine())
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				return nil
			}
		}
	}
	eng := stubEngine(workers, stub)
	res, err := eng.Spectrum(context.Background(), grid, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(grid) {
		t.Fatalf("got %d results for %d energies", len(res), len(grid))
	}
	// Allow slack for test-runner goroutines, but stay far below the 10k a
	// goroutine-per-point implementation would show.
	if limit := int64(baseline + 2*workers + 8); peak.Load() > limit {
		t.Fatalf("peak goroutines %d exceeds O(Workers) bound %d for a 10k grid", peak.Load(), limit)
	}
}

func TestSpectrumDeterministicOrder(t *testing.T) {
	grid := UniformGrid(-2, 2, 503)
	eng := stubEngine(7, &stubSolver{})
	res, err := eng.Spectrum(context.Background(), grid, false)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.E != grid[i] || r.T != 2*grid[i] {
			t.Fatalf("slot %d holds E=%g, want %g: results not in grid order", i, r.E, grid[i])
		}
	}
}

func TestSpectrumReturnsFirstErrorByGridOrder(t *testing.T) {
	grid := UniformGrid(0, 10, 101) // grid[40] = 4.0
	boom := errors.New("solver blew up")
	stub := &stubSolver{fail: func(e float64) error {
		if e >= 4.0 {
			return fmt.Errorf("E=%g: %w", e, boom)
		}
		return nil
	}}
	eng := stubEngine(6, stub)
	for trial := 0; trial < 10; trial++ {
		_, err := eng.Spectrum(context.Background(), grid, false)
		if err == nil {
			t.Fatal("expected error")
		}
		if !errors.Is(err, boom) {
			t.Fatalf("cause lost: %v", err)
		}
		// Lowest failing grid index is 40 (E = 4.0), regardless of which
		// sibling failed first in wall-clock time.
		if want := fmt.Sprintf("transport: E=%g:", grid[40]); !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not report the first failing grid point %q", err, want)
		}
	}
}

func TestSpectrumFailureCancelsSiblings(t *testing.T) {
	// A failure at the first grid point must stop the sweep early: the
	// blocked in-flight siblings unblock via ctx and the undispatched tail
	// is skipped entirely.
	grid := UniformGrid(0, 1, 5000)
	stub := &stubSolver{
		block: 50 * time.Millisecond,
		fail: func(e float64) error {
			if e == 0 {
				return errors.New("first point fails")
			}
			return nil
		},
	}
	eng := stubEngine(4, stub)
	start := time.Now()
	_, err := eng.Spectrum(context.Background(), grid, false)
	if err == nil {
		t.Fatal("expected error")
	}
	if calls := stub.calls.Load(); calls == int64(len(grid)) {
		t.Fatal("failure did not short-circuit the sweep")
	}
	// 5000 points × 50ms at 4 workers would be over a minute; cancellation
	// must finish the call in a small multiple of one block interval.
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("sweep took %v after early failure", el)
	}
}

func TestSpectrumHonorsParentContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng := stubEngine(4, &stubSolver{})
	_, err := eng.Spectrum(ctx, UniformGrid(0, 1, 64), false)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestUniformGridDegenerate(t *testing.T) {
	if g := UniformGrid(-1, 1, 0); len(g) != 0 {
		t.Fatalf("UniformGrid(n=0) = %v, want empty", g)
	}
	if g := UniformGrid(-1, 1, -7); len(g) != 0 {
		t.Fatalf("UniformGrid(n=-7) = %v, want empty", g)
	}
	if g := UniformGrid(-1, 1, 1); len(g) != 1 || g[0] != -1 {
		t.Fatalf("UniformGrid(n=1) = %v, want [-1]", g)
	}
}
