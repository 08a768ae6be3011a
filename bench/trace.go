//go:build layertrace

package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Spans. The traced run wraps each layer boundary it can reach from
// outside the product with a span; spans stay in memory and are written
// as Chrome trace-event JSON when the run ends. Nothing here is used by
// the end-to-end run.

// Span kinds, the coarse classes the wall-share accounting sums over.
const (
	kindTask    = "task"    // inside the workload's single-energy task function
	kindJournal = "journal" // inside Checkpointer.Append
	kindWire    = "wire"    // inside net.Conn.Write
	kindWait    = "wait"    // blocked in net.Conn.Read: waiting for the peer
	kindOther   = ""        // everything else: set-up, planning, assembly, ...
)

type span struct {
	ID     int
	Parent int // -1: a root
	Name   string
	Layer  string // the package the boundary belongs to
	Kind   string
	Unit   int // the unit of work the span belongs to; shared by all its spans
	Lane   int // display lane: 0 the driving goroutine, 1.. workers
	Start  time.Time
	End    time.Time
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer collects spans. A nil *tracer is the tracing-off state: every
// method is a no-op, so pipelines are written once and run both ways.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// begin opens a span and returns its id (-1 when tracing is off).
func (t *tracer) begin(name, layer, kind string, unit, parent, lane int) int {
	if t == nil {
		return -1
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Layer: layer, Kind: kind,
		Unit: unit, Lane: lane, Start: now})
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span whose interval was measured elsewhere (a hook that
// reports a duration at completion).
func (t *tracer) add(name, layer, kind string, unit, parent, lane int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Layer: layer, Kind: kind,
		Unit: unit, Lane: lane, Start: start, End: end})
	return id
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per span, its duration minus the part of its own
// interval that its children cover. Children are clipped to the parent
// and overlapping children are counted once (their union), so a parent
// with concurrent children never goes negative.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.dur()
		kids := children[s.ID]
		if len(kids) == 0 {
			continue
		}
		type iv struct{ a, b time.Time }
		ivs := make([]iv, 0, len(kids))
		for _, k := range kids {
			a, b := spans[k].Start, spans[k].End
			if a.Before(s.Start) {
				a = s.Start
			}
			if b.After(s.End) {
				b = s.End
			}
			if b.After(a) {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a.Before(ivs[y].a) })
		var covered time.Duration
		var curA, curB time.Time
		for j, v := range ivs {
			if j == 0 || v.a.After(curB) {
				covered += curB.Sub(curA)
				curA, curB = v.a, v.b
			} else if v.b.After(curB) {
				curB = v.b
			}
		}
		covered += curB.Sub(curA)
		self[i] -= covered
	}
	return self
}

// selfByKind sums self time per span kind over the spans of one unit.
func selfByKind(spans []span, unit int) map[string]time.Duration {
	self := selfTimes(spans)
	out := make(map[string]time.Duration)
	for i, s := range spans {
		if s.Unit == unit {
			out[s.Kind] += self[i]
		}
	}
	return out
}

// chromeEvent is one "complete" event of the Chrome trace-event format
// (chrome://tracing, Perfetto).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // µs since the first span
	Dur  float64        `json:"dur"` // µs
	PID  int            `json:"pid"` // the unit
	TID  int            `json:"tid"` // the lane
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes the spans as {"traceEvents": [...]}.
func writeChromeTrace(path string, spans []span) error {
	if len(spans) == 0 {
		return nil
	}
	t0 := spans[0].Start
	for _, s := range spans {
		if s.Start.Before(t0) {
			t0 = s.Start
		}
	}
	self := selfTimes(spans)
	events := make([]chromeEvent, 0, len(spans))
	for i, s := range spans {
		events = append(events, chromeEvent{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			TS:  float64(s.Start.Sub(t0)) / float64(time.Microsecond),
			Dur: float64(s.dur()) / float64(time.Microsecond),
			PID: s.Unit, TID: s.Lane,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "kind": s.Kind,
				"self_us": float64(self[i]) / float64(time.Microsecond)},
		})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
