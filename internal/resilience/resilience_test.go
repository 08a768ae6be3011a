package resilience

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

func fastPolicy(attempts int) Policy {
	return Policy{MaxAttempts: attempts, BaseDelay: time.Microsecond, MaxDelay: 10 * time.Microsecond}
}

func TestClassifyDefaults(t *testing.T) {
	if c := Classify(errors.New("disk hiccup")); c != Transient {
		t.Fatalf("plain error classified %v, want transient", c)
	}
	if c := Classify(context.Canceled); c != Permanent {
		t.Fatalf("context.Canceled classified %v, want permanent", c)
	}
	if c := Classify(context.DeadlineExceeded); c != Permanent {
		t.Fatalf("DeadlineExceeded classified %v, want permanent", c)
	}
	if c := Classify(MarkPermanent(errors.New("bad input"))); c != Permanent {
		t.Fatalf("MarkPermanent classified %v, want permanent", c)
	}
	if c := Classify(MarkTransient(context.Canceled)); c != Transient {
		t.Fatalf("MarkTransient classified %v, want transient", c)
	}
	// Wrapping preserves classification through the chain.
	wrapped := fmt.Errorf("layer: %w", MarkPermanent(errors.New("x")))
	if c := Classify(wrapped); c != Permanent {
		t.Fatalf("wrapped permanent classified %v", c)
	}
}

func TestDoRetriesTransientUntilSuccess(t *testing.T) {
	inj := &Injector{Seed: 7, Rate: 1, Modes: []Fault{FaultError}, FailuresPerTask: 2}
	calls := 0
	err := fastPolicy(4).Do(context.Background(), func(ctx context.Context) error {
		a := calls
		calls++
		return inj.Trip(0, a)
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if calls != 3 {
		t.Fatalf("expected 2 failures + 1 success = 3 calls, got %d", calls)
	}
}

func TestDoPermanentShortCircuits(t *testing.T) {
	boom := MarkPermanent(errors.New("NaN at E=0.3"))
	calls := 0
	err := fastPolicy(5).Do(context.Background(), func(context.Context) error {
		calls++
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("expected the permanent error back, got %v", err)
	}
	if calls != 1 {
		t.Fatalf("permanent error retried: %d calls", calls)
	}
}

func TestDoExhaustsBudget(t *testing.T) {
	calls := 0
	err := fastPolicy(3).Do(context.Background(), func(context.Context) error {
		calls++
		return errors.New("still down")
	})
	var ex *ExhaustedError
	if !errors.As(err, &ex) {
		t.Fatalf("expected *ExhaustedError, got %v", err)
	}
	if ex.Attempts != 3 || calls != 3 {
		t.Fatalf("attempts=%d calls=%d, want 3/3", ex.Attempts, calls)
	}
	if Classify(err) != Permanent {
		t.Fatalf("exhausted error must classify permanent")
	}
}

func TestDoRecoversPanics(t *testing.T) {
	calls := 0
	err := fastPolicy(2).Do(context.Background(), func(context.Context) error {
		calls++
		if calls == 1 {
			panic("injected")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("panic not retried to success: %v", err)
	}
	// A policy whose budget runs out on panics surfaces the PanicError.
	err = fastPolicy(1).Do(context.Background(), func(context.Context) error {
		panic("hard")
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("expected PanicError, got %v", err)
	}
	if pe.Value != "hard" || len(pe.Stack) == 0 {
		t.Fatalf("panic value/stack not captured: %+v", pe)
	}
	if !strings.Contains(string(pe.Stack), "resilience") {
		t.Fatalf("stack does not mention recovery site:\n%s", pe.Stack)
	}
}

func TestDoAttemptTimeoutIsTransient(t *testing.T) {
	p := fastPolicy(2)
	p.AttemptTimeout = 5 * time.Millisecond
	calls := 0
	err := p.Do(context.Background(), func(ctx context.Context) error {
		calls++
		if calls == 1 {
			<-ctx.Done() // overrun the attempt deadline
			return ctx.Err()
		}
		return nil
	})
	if err != nil {
		t.Fatalf("attempt timeout not retried: %v", err)
	}
	if calls != 2 {
		t.Fatalf("calls = %d, want 2", calls)
	}
}

func TestDoParentCancellationWins(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := fastPolicy(5).Do(ctx, func(context.Context) error { return errors.New("x") })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want ctx.Err(), got %v", err)
	}
	// Cancellation mid-attempt reports the cancellation, not the task error.
	ctx2, cancel2 := context.WithCancel(context.Background())
	err = fastPolicy(5).Do(ctx2, func(c context.Context) error {
		cancel2()
		return errors.New("collateral")
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-attempt cancel: got %v", err)
	}
}

// TestDoSingleAttemptIsAPlainCall: a single-attempt policy runs its one
// attempt and returns the attempt's own error, even when ctx is canceled
// before or during it — the sweep runner's first error by task order
// rests on it — and still contains a panic.
func TestDoSingleAttemptIsAPlainCall(t *testing.T) {
	own := errors.New("own failure")
	ctx, cancel := context.WithCancel(context.Background())
	err := Policy{}.Do(ctx, func(context.Context) error {
		cancel()
		return own
	})
	if err != own {
		t.Fatalf("mid-attempt cancel: got %v, want the attempt's own error", err)
	}
	calls := 0
	err = Policy{}.Do(ctx, func(context.Context) error { calls++; return own })
	if err != own || calls != 1 {
		t.Fatalf("canceled before the attempt: got %v after %d calls, want the attempt's own error after 1", err, calls)
	}
	var pe *PanicError
	if err := (Policy{}).Do(context.Background(), func(context.Context) error { panic("boom") }); !errors.As(err, &pe) {
		t.Fatalf("panic: got %v, want a *PanicError", err)
	}
}

// TestDoRetriedOwnPermanentErrorWins: under a retried policy a task's own
// Permanent error is its verdict even when ctx is canceled before or during
// the attempt — the first attempt runs either way — while a transient one
// under cancellation still reports ctx.Err() (TestDoParentCancellationWins).
func TestDoRetriedOwnPermanentErrorWins(t *testing.T) {
	own := MarkPermanent(errors.New("own failure"))
	ctx, cancel := context.WithCancel(context.Background())
	err := fastPolicy(3).Do(ctx, func(context.Context) error {
		cancel()
		return own
	})
	if err != own {
		t.Fatalf("mid-attempt cancel: got %v, want the attempt's own error", err)
	}
	calls := 0
	err = fastPolicy(3).Do(ctx, func(context.Context) error { calls++; return own })
	if err != own || calls != 1 {
		t.Fatalf("canceled before the attempt: got %v after %d calls, want the attempt's own error after 1", err, calls)
	}
	// An attempt that returns its ctx's own error reports the cancellation.
	err = fastPolicy(3).Do(ctx, func(c context.Context) error { return MarkPermanent(c.Err()) })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("context error: got %v, want context.Canceled", err)
	}
}

func TestBackoffDeterministicAndBounded(t *testing.T) {
	p := Policy{MaxAttempts: 8, BaseDelay: time.Millisecond, MaxDelay: 20 * time.Millisecond,
		Multiplier: 2, JitterFrac: 0.5, Seed: 42}
	for a := 0; a < 8; a++ {
		d1, d2 := p.Backoff(a), p.Backoff(a)
		if d1 != d2 {
			t.Fatalf("attempt %d: backoff not deterministic (%v vs %v)", a, d1, d2)
		}
		if d1 <= 0 || d1 > p.MaxDelay {
			t.Fatalf("attempt %d: backoff %v outside (0, %v]", a, d1, p.MaxDelay)
		}
	}
	// Different seeds decorrelate the jitter.
	q := p
	q.Seed = 43
	same := 0
	for a := 0; a < 8; a++ {
		if p.Backoff(a) == q.Backoff(a) {
			same++
		}
	}
	if same == 8 {
		t.Fatalf("jitter ignored the seed")
	}
	// No-jitter policies grow geometrically until the cap.
	g := Policy{BaseDelay: time.Millisecond, MaxDelay: 8 * time.Millisecond, Multiplier: 2}
	want := []time.Duration{1, 2, 4, 8, 8}
	for a, w := range want {
		if got := g.Backoff(a); got != w*time.Millisecond {
			t.Fatalf("Backoff(%d) = %v, want %v", a, got, w*time.Millisecond)
		}
	}
}

func TestInjectorDeterministicAssignment(t *testing.T) {
	inj := &Injector{Seed: 1234, Rate: 0.1}
	const n = 10000
	faulty := 0
	for i := 0; i < n; i++ {
		f := inj.FaultFor(i)
		if f != inj.FaultFor(i) {
			t.Fatalf("task %d: fault assignment not deterministic", i)
		}
		if f != FaultNone {
			faulty++
			if f != FaultError && f != FaultPanic {
				t.Fatalf("task %d: unexpected default-mix fault %v", i, f)
			}
		}
	}
	if faulty < n/20 || faulty > n/5 {
		t.Fatalf("10%% rate produced %d/%d faulty tasks", faulty, n)
	}
	// A different seed reshuffles which tasks are faulty.
	other := &Injector{Seed: 99, Rate: 0.1}
	diff := 0
	for i := 0; i < n; i++ {
		if (inj.FaultFor(i) == FaultNone) != (other.FaultFor(i) == FaultNone) {
			diff++
		}
	}
	if diff == 0 {
		t.Fatalf("seed change did not move any faults")
	}
}

func TestInjectorTripModes(t *testing.T) {
	errInj := &Injector{Seed: 5, Rate: 1, Modes: []Fault{FaultError}}
	if err := errInj.Trip(3, 0); !errors.Is(err, ErrInjected) {
		t.Fatalf("error mode: %v", err)
	}
	if err := errInj.Trip(3, 1); err != nil {
		t.Fatalf("attempt past FailuresPerTask must pass: %v", err)
	}
	panicked := func() (p bool) {
		defer func() { p = recover() != nil }()
		pi := &Injector{Seed: 5, Rate: 1, Modes: []Fault{FaultPanic}}
		_ = pi.Trip(0, 0)
		return false
	}()
	if !panicked {
		t.Fatalf("panic mode did not panic")
	}
	var nilInj *Injector
	if err := nilInj.Trip(0, 0); err != nil {
		t.Fatalf("nil injector tripped: %v", err)
	}
}
