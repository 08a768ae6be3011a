package resilience

import (
	"errors"
	"fmt"
	"runtime"
)

// ErrInjected is the sentinel wrapped by every error the Injector
// produces, so drills can assert that a failure was synthetic.
var ErrInjected = errors.New("resilience: injected fault")

// Fault is the kind of perturbation the Injector applies to a task.
type Fault int

const (
	// FaultNone leaves the task alone.
	FaultNone Fault = iota
	// FaultError makes the task return a transient error.
	FaultError
	// FaultPanic makes the task panic.
	FaultPanic
)

// String implements fmt.Stringer.
func (f Fault) String() string {
	switch f {
	case FaultNone:
		return "none"
	case FaultError:
		return "error"
	case FaultPanic:
		return "panic"
	default:
		return fmt.Sprintf("Fault(%d)", int(f))
	}
}

// Injector deterministically perturbs a configurable fraction of tasks in
// a sweep: whether task i is faulty, which fault it suffers, and for how
// many attempts, are all pure functions of (Seed, i) — so a failure drill
// is exactly reproducible run over run, and a resumed run injects the same
// faults into the same task indices as the run it resumes.
//
// The zero value injects nothing. Injector is stateless after
// construction and safe for concurrent use from many workers.
type Injector struct {
	// Seed drives the per-task hash.
	Seed uint64
	// Rate is the fraction of task indices perturbed, in [0, 1].
	Rate float64
	// Modes is the fault mix to draw from per faulty task (hash-selected).
	// Empty means {FaultError, FaultPanic} — the mixed drill of the
	// acceptance criteria.
	Modes []Fault
	// FailuresPerTask is how many leading attempts of a faulty task fail
	// before it succeeds (default 1: fail the first attempt, succeed on
	// retry). Set it at or above the retry budget to model a hard fault
	// that must be quarantined.
	FailuresPerTask int
}

func (inj *Injector) modes() []Fault {
	if len(inj.Modes) == 0 {
		return []Fault{FaultError, FaultPanic}
	}
	return inj.Modes
}

// FaultFor returns the fault assigned to task index i (FaultNone for the
// unperturbed majority). Deterministic in (Seed, i).
func (inj *Injector) FaultFor(i int) Fault {
	if inj == nil || inj.Rate <= 0 {
		return FaultNone
	}
	h := hash2(inj.Seed, uint64(i))
	if unit(h) >= inj.Rate {
		return FaultNone
	}
	m := inj.modes()
	return m[hash2(h, 0x9e3779b97f4a7c15)%uint64(len(m))]
}

// Trip applies task i's fault to the given attempt (0-based): it returns a
// transient error or panics, according to FaultFor. Attempts past
// FailuresPerTask pass clean, which is what lets a retry policy drive a
// faulty sweep to completion. A nil Injector never trips.
func (inj *Injector) Trip(i, attempt int) error {
	if inj == nil {
		return nil
	}
	f := inj.FaultFor(i)
	if f == FaultNone {
		return nil
	}
	failures := inj.FailuresPerTask
	if failures < 1 {
		failures = 1
	}
	if attempt >= failures {
		return nil
	}
	switch f {
	case FaultError:
		return fmt.Errorf("%w: task %d attempt %d", ErrInjected, i, attempt)
	case FaultPanic:
		panic(fmt.Sprintf("injected fault: task %d attempt %d", i, attempt))
	}
	return nil
}

// hash2 mixes two words with the splitmix64 finalizer — the deterministic
// core behind fault assignment and backoff jitter.
func hash2(a, b uint64) uint64 {
	x := a ^ (b+0x9e3779b97f4a7c15)*0xbf58476d1ce4e5b9
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// unit maps a hash to [0, 1).
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// captureStack formats the current goroutine's stack for PanicError.
func captureStack() []byte {
	buf := make([]byte, 16<<10)
	return buf[:runtime.Stack(buf, false)]
}
