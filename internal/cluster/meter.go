package cluster

import (
	"sync"

	"repro/internal/perf"
)

// Meter cuts a stream of performance counters into per-task deltas, the
// perf half of a TaskRecord. Each Delta returns what accrued since the
// previous one (or since NewMeter or Reset), so successive deltas
// partition the counters with no overlap and no gap, and the deltas a
// run journals sum to its total, whichever engine wrote them.
//
// A delta holds exactly its own task only on a 1-wide pool. A wider pool
// smears concurrent tasks into each other's deltas: the sum stays exact
// while every delta is kept, but a dropped one — a re-dispatched
// duplicate the coordinator discards — takes a neighbour's flops with
// it, and a kill leaves an in-flight task's partial flops in a committed
// neighbour's delta. Use width 1 (the CLIs' self-spawn default) where
// the merged flop total must equal the serial run's.
type Meter struct {
	now  func() perf.Snapshot
	mu   sync.Mutex
	last perf.Snapshot
}

// NewMeter starts a meter over now (nil: perf.TakeSnapshot, the process
// globals — right when the metered run has the process to itself).
func NewMeter(now func() perf.Snapshot) *Meter {
	if now == nil {
		now = perf.TakeSnapshot
	}
	return &Meter{now: now, last: now()}
}

// Delta returns the counters accrued since the previous Delta.
func (m *Meter) Delta() perf.Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.now()
	d := now.Diff(m.last)
	m.last = now
	return d
}

// Reset drops what accrued since the previous Delta.
func (m *Meter) Reset() { m.Delta() }
