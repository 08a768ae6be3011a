package perf

import (
	"sync"
	"sync/atomic"
	"time"
)

// PhaseStats aggregates the instrumentation of one named simulation phase
// (self-energy, rgf, wf-solve, splitsolve, poisson, and the sched pool
// levels bias/momentum/energy).
type PhaseStats struct {
	// Calls is the number of recorded executions.
	Calls int64
	// Wall is the summed execution wall time. Concurrent executions all
	// contribute their full duration, so Wall over a parallel region can
	// exceed elapsed time — it is CPU-occupancy-weighted, which is what
	// the per-level efficiency accounting needs.
	Wall time.Duration
}

// phaseCell is the lock-free accumulator behind one phase name.
type phaseCell struct {
	calls atomic.Int64
	nanos atomic.Int64
}

// phases maps phase name → *phaseCell.
var phases sync.Map

func phase(name string) *phaseCell {
	if c, ok := phases.Load(name); ok {
		return c.(*phaseCell)
	}
	c, _ := phases.LoadOrStore(name, &phaseCell{})
	return c.(*phaseCell)
}

// RecordPhase adds one execution of the named phase and its wall time.
func RecordPhase(name string, wall time.Duration) {
	c := phase(name)
	c.calls.Add(1)
	c.nanos.Add(int64(wall))
}

// StartPhase starts timing one execution of the named phase and returns
// the function that stops the timer and records it:
//
//	defer perf.StartPhase("rgf")()
func StartPhase(name string) func() {
	start := time.Now()
	return func() { RecordPhase(name, time.Since(start)) }
}

// PhaseSnapshot returns a copy of every phase's accumulated statistics.
func PhaseSnapshot() map[string]PhaseStats {
	out := make(map[string]PhaseStats)
	phases.Range(func(k, v any) bool {
		c := v.(*phaseCell)
		out[k.(string)] = PhaseStats{
			Calls: c.calls.Load(),
			Wall:  time.Duration(c.nanos.Load()),
		}
		return true
	})
	return out
}
