// Package resilience is the fault-tolerance layer of the simulator: retry
// policies with exponential backoff and deterministic jitter, transient vs
// permanent error classification, per-attempt panic containment, and a
// seeded fault injector for reproducible failure drills.
//
// The package exists because the regime the paper operates in — hours of
// sustained execution over hundreds of thousands of cores — makes task
// failure the norm, not the exception: a sweep of millions of (bias, k, E)
// points must survive numerical blow-ups at isolated energies, transient
// allocation or timeout failures, and outright panics in worker code
// without restarting from zero. resilience is a leaf package (stdlib only)
// so every layer of the stack — sched workers, the cluster sweep runner,
// transport observables — can share one error vocabulary without import
// cycles.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// Class partitions errors by whether retrying can help.
type Class int

const (
	// Transient errors may succeed on retry (timeouts, injected faults,
	// resource pressure). This is the default class.
	Transient Class = iota
	// Permanent errors are deterministic — retrying reproduces them
	// (numerical blow-up at an energy point, invalid input, cancellation).
	Permanent
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case Transient:
		return "transient"
	case Permanent:
		return "permanent"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// classifier is the duck-typed self-classification interface: any error in
// a chain may declare its own class by implementing TransientError. Typed
// errors in other packages (e.g. transport's non-finite observable error)
// implement it without importing this package.
type classifier interface{ TransientError() bool }

// Classify returns the retry class of err. Errors self-classify through a
// `TransientError() bool` method anywhere in their Unwrap chain; context
// cancellation and deadline expiry are permanent (the caller's intent to
// stop is not retryable); everything else defaults to Transient, which is
// the safe default for long sweeps — a deterministic failure exhausts its
// retry budget quickly and is then quarantined or surfaced.
func Classify(err error) Class {
	if err == nil {
		return Transient
	}
	var c classifier
	if errors.As(err, &c) {
		if c.TransientError() {
			return Transient
		}
		return Permanent
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return Permanent
	}
	return Transient
}

// permanentError marks an error Permanent without changing its message.
type permanentError struct{ err error }

func (e *permanentError) Error() string        { return e.err.Error() }
func (e *permanentError) Unwrap() error        { return e.err }
func (e *permanentError) TransientError() bool { return false }

// MarkPermanent wraps err so Classify reports it Permanent. A nil err
// returns nil.
func MarkPermanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// transientError marks an error Transient without changing its message.
type transientError struct{ err error }

func (e *transientError) Error() string        { return e.err.Error() }
func (e *transientError) Unwrap() error        { return e.err }
func (e *transientError) TransientError() bool { return true }

// MarkTransient wraps err so Classify reports it Transient — used to
// override the permanent default of context errors when a deadline is
// attempt-local rather than caller-imposed. A nil err returns nil.
func MarkTransient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

// PanicError is a panic recovered at a task boundary, converted into an
// ordinary error carrying the panic value and the goroutine stack at the
// point of recovery. It classifies as Transient: in long parallel sweeps
// panics are most often environmental (corrupted transient state, races
// with cancellation), and a deterministic panic simply exhausts its retry
// budget and is then quarantined or surfaced like any other failure.
type PanicError struct {
	// Value is the value passed to panic().
	Value any
	// Stack is the formatted goroutine stack captured by the recovery site.
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// TransientError implements the self-classification interface.
func (e *PanicError) TransientError() bool { return true }

// ExhaustedError reports that a retry policy ran out of attempts. It
// unwraps to the last attempt's error and classifies as Permanent — the
// policy has already spent its transient budget.
type ExhaustedError struct {
	// Attempts is the number of attempts made.
	Attempts int
	// Err is the error of the final attempt.
	Err error
}

// Error implements error.
func (e *ExhaustedError) Error() string {
	return fmt.Sprintf("resilience: %d attempts exhausted: %v", e.Attempts, e.Err)
}

// Unwrap exposes the final attempt's error.
func (e *ExhaustedError) Unwrap() error { return e.Err }

// TransientError implements the self-classification interface.
func (e *ExhaustedError) TransientError() bool { return false }

// Policy describes how one task is retried. The zero value runs a single
// attempt with no timeout — a no-op policy safe to embed anywhere.
type Policy struct {
	// MaxAttempts is the total attempt budget (first try included).
	// Values < 1 mean one attempt.
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt (default 10ms
	// when MaxAttempts > 1).
	BaseDelay time.Duration
	// MaxDelay caps the grown backoff (default 2s).
	MaxDelay time.Duration
	// Multiplier grows the delay per attempt (default 2).
	Multiplier float64
	// JitterFrac spreads each delay by ±JitterFrac deterministically from
	// Seed and the attempt number, decorrelating retry storms without
	// sacrificing reproducibility (default 0: no jitter).
	JitterFrac float64
	// Seed feeds the deterministic jitter hash.
	Seed uint64
	// AttemptTimeout bounds each attempt's wall time (0: none). An attempt
	// that exceeds it fails with a Transient error and is retried; the
	// caller's own context deadline remains Permanent.
	AttemptTimeout time.Duration
}

func (p Policy) attempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// Backoff returns the deterministic delay inserted after failed attempt a
// (0-based). The sequence is pure in (Policy, a): exponential growth from
// BaseDelay capped at MaxDelay, spread by ±JitterFrac via a hash of Seed
// and a — so a rerun of the same drill sleeps the same schedule.
func (p Policy) Backoff(a int) time.Duration {
	base := p.BaseDelay
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	mult := p.Multiplier
	if mult <= 0 {
		mult = 2
	}
	max := p.MaxDelay
	if max <= 0 {
		max = 2 * time.Second
	}
	d := float64(base)
	for i := 0; i < a; i++ {
		d *= mult
		if d >= float64(max) {
			d = float64(max)
			break
		}
	}
	if p.JitterFrac > 0 {
		u := unit(hash2(p.Seed, uint64(a)^0xa5a5a5a5a5a5a5a5)) // in [0,1)
		d *= 1 + p.JitterFrac*(2*u-1)
	}
	if d > float64(max) {
		d = float64(max)
	}
	return time.Duration(d)
}

// Do runs fn under the policy: up to MaxAttempts attempts, each bounded by
// AttemptTimeout, with Backoff sleeps between attempts. Panics inside fn
// are recovered into *PanicError and treated like any other attempt error.
// The first attempt runs even under a canceled ctx. A Permanent error of
// the attempt's own (see Classify; not a context error) comes back as is at
// once, whatever ctx did meanwhile; any other failure under a canceled ctx
// reports ctx.Err(), and cancellation aborts the backoff between attempts.
// So a runner ranks every claimed task by its own verdict and never by a
// sibling's cancellation, as sched.Pool.ForEach does. When the attempt
// budget is exhausted the last error is wrapped in *ExhaustedError. A
// single-attempt policy is a plain guarded call: its error comes back as
// is.
func (p Policy) Do(ctx context.Context, fn func(context.Context) error) error {
	n := p.attempts()
	if n == 1 {
		return p.attempt(ctx, fn)
	}
	var last error
	for a := 0; a < n; a++ {
		if a > 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		err := p.attempt(ctx, fn)
		if err == nil {
			return nil
		}
		// An attempt's own Permanent verdict stands whatever ctx did; a
		// context error is the attempt's own only while ctx is live.
		if Classify(err) == Permanent && (ctx.Err() == nil || !isContextError(err)) {
			return err
		}
		if ctx.Err() != nil {
			// The caller canceled mid-attempt: report the cancellation, not
			// whatever retryable failure it induced.
			return ctx.Err()
		}
		last = err
		if a < n-1 {
			t := time.NewTimer(p.Backoff(a))
			select {
			case <-ctx.Done():
				t.Stop()
				return ctx.Err()
			case <-t.C:
			}
		}
	}
	return &ExhaustedError{Attempts: n, Err: last}
}

// isContextError reports whether err is, or wraps, a context's own error.
func isContextError(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// attempt runs one bounded, panic-contained invocation of fn.
func (p Policy) attempt(ctx context.Context, fn func(context.Context) error) (err error) {
	actx := ctx
	cancel := func() {}
	if p.AttemptTimeout > 0 {
		actx, cancel = context.WithTimeout(ctx, p.AttemptTimeout)
	}
	defer cancel()
	err = Call(actx, fn)
	if err != nil && ctx.Err() == nil && errors.Is(err, context.DeadlineExceeded) {
		// The deadline that fired was the attempt-local one; it is
		// retryable even though context errors default to Permanent.
		err = MarkTransient(fmt.Errorf("resilience: attempt timed out after %v: %w", p.AttemptTimeout, err))
	}
	return err
}

// Call invokes fn(ctx), converting a panic into a *PanicError instead of
// unwinding the caller. It is the shared panic boundary used by Policy.Do
// and by sched workers.
func Call(ctx context.Context, fn func(context.Context) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: captureStack()}
		}
	}()
	return fn(ctx)
}
