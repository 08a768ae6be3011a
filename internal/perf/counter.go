package perf

import (
	"sync"
	"sync/atomic"
)

// Counter is a named monotonically-increasing event counter (cache hits,
// decimations, wire frames, …). Unlike the flop counter it is not
// sharded: counter increments sit on slow paths (a decimation is a
// Sancho-Rubio run, a frame a write), so a single atomic is plenty. Counters travel with Snapshot the same way phases do, which
// is what lets distributed runs merge them exactly.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// counters maps counter name → *Counter.
var counters sync.Map

// GetCounter returns the process-global counter registered under name,
// creating it on first use. The pointer is stable for the life of the
// process, so hot call sites should resolve it once and keep it.
func GetCounter(name string) *Counter {
	if c, ok := counters.Load(name); ok {
		return c.(*Counter)
	}
	c, _ := counters.LoadOrStore(name, &Counter{})
	return c.(*Counter)
}

// CounterSnapshot returns a copy of every counter's current value,
// omitting counters still at zero (a registered-but-unused counter is
// indistinguishable from an unregistered one, and the omission keeps
// wire deltas small).
func CounterSnapshot() map[string]int64 {
	out := make(map[string]int64)
	counters.Range(func(k, v any) bool {
		if n := v.(*Counter).Value(); n != 0 {
			out[k.(string)] = n
		}
		return true
	})
	return out
}
