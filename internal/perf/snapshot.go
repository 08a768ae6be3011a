package perf

// Snapshot is a mergeable copy of the performance counters: the global
// flop total plus every phase's accumulated statistics. Snapshots are what
// the distributed sweep engine ships over the wire — each worker reports
// per-task deltas (TakeSnapshot + Diff) and the coordinator folds them
// into one cluster-wide view (Add, or Merge back into the process-global
// counters). The type is JSON-serializable: Wall durations travel as
// integer nanoseconds.
type Snapshot struct {
	// Flops is the global flop counter value (or, for a Diff result, the
	// flops accumulated between the two snapshots).
	Flops int64 `json:"flops"`
	// Phases maps phase name to its accumulated (or delta) statistics.
	// Nil when no phase has been recorded.
	Phases map[string]PhaseStats `json:"phases,omitempty"`
	// Counters maps named event counters (cache hits, decimations, …) to
	// their accumulated (or delta) values. Nil when every counter is zero.
	Counters map[string]int64 `json:"counters,omitempty"`
}

// TakeSnapshot captures the current global counters. The capture is not a
// single atomic cut across all counters: flops and phases recorded
// concurrently with the call land on either side, exactly as with the
// individual Flops/PhaseSnapshot reads; no count is ever lost between two
// successive snapshots of the same process.
func TakeSnapshot() Snapshot {
	s := Snapshot{Flops: Flops(), Phases: PhaseSnapshot()}
	if c := CounterSnapshot(); len(c) > 0 {
		s.Counters = c
	}
	return s
}

// Diff returns the counters accumulated between prev and s (s − prev).
// Phases whose statistics did not change are omitted, so a per-task delta
// stays small on the wire. Successive deltas of one process partition its
// counters exactly: summing every delta reproduces the final snapshot.
func (s Snapshot) Diff(prev Snapshot) Snapshot {
	d := Snapshot{Flops: s.Flops - prev.Flops}
	for name, st := range s.Phases {
		p := prev.Phases[name]
		st.Calls -= p.Calls
		st.Wall -= p.Wall
		if st == (PhaseStats{}) {
			continue
		}
		if d.Phases == nil {
			d.Phases = make(map[string]PhaseStats)
		}
		d.Phases[name] = st
	}
	for name, v := range s.Counters {
		dv := v - prev.Counters[name]
		if dv == 0 {
			continue
		}
		if d.Counters == nil {
			d.Counters = make(map[string]int64)
		}
		d.Counters[name] = dv
	}
	return d
}

// Add folds o into s: flop totals add, and per-phase statistics add
// field-wise. It is the pure (off-counter) merge the coordinator uses to
// accumulate worker deltas into one cluster-wide snapshot.
func (s *Snapshot) Add(o Snapshot) {
	s.Flops += o.Flops
	if len(o.Phases) > 0 {
		if s.Phases == nil {
			s.Phases = make(map[string]PhaseStats, len(o.Phases))
		}
		for name, st := range o.Phases {
			cur := s.Phases[name]
			cur.Calls += st.Calls
			cur.Wall += st.Wall
			s.Phases[name] = cur
		}
	}
	if len(o.Counters) > 0 {
		if s.Counters == nil {
			s.Counters = make(map[string]int64, len(o.Counters))
		}
		for name, v := range o.Counters {
			s.Counters[name] += v
		}
	}
}
