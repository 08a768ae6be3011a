//go:build layertrace

package main

import (
	"reflect"
	"strconv"
	"testing"
	"time"
)

// Tests of the traced run's own code, which imports repro/internal:
// go test -tags layertrace ./...

func TestUnitsParseWithDistinctSpecHash(t *testing.T) {
	for _, wl := range workloadNames {
		a := unitsOf(wl, 7)
		seen := make(map[string]int)
		for i, u := range a {
			s, err := specParse(u.specJSON())
			if err != nil {
				t.Fatalf("%s unit %d: spec does not parse: %v", wl, i, err)
			}
			if err := s.ValidateFor(roleLocal); err != nil {
				t.Fatalf("%s unit %d: %v", wl, i, err)
			}
			h := s.SpecHash()
			if j, dup := seen[h]; dup {
				t.Fatalf("%s: units %d and %d share SpecHash %s", wl, j, i, h[:12])
			}
			seen[h] = i

			// The CLI form carries the same numbers as the JSON form.
			f := u.flags()
			arg := func(name string) float64 {
				for k := 0; k+1 < len(f); k++ {
					if f[k] == name {
						v, err := strconv.ParseFloat(f[k+1], 64)
						if err != nil {
							t.Fatalf("%s unit %d: flag %s: %v", wl, i, name, err)
						}
						return v
					}
				}
				t.Fatalf("%s unit %d: no flag %s in %v", wl, i, name, f)
				return 0
			}
			if u.Mode == "iv" {
				if arg("-vgmin") != s.Grid.VGMin || arg("-vgmax") != s.Grid.VGMax || int(arg("-nvg")) != s.Grid.NVG {
					t.Fatalf("%s unit %d: flags %v disagree with spec grid %+v", wl, i, f, s.Grid)
				}
				if d := s.Grid.VGMin + 0.4; d < -1e-12 || d >= deltaMax {
					t.Fatalf("%s unit %d: offset %g outside [0, %g)", wl, i, d, deltaMax)
				}
			} else if arg("-emin") != s.Grid.EMin || arg("-emax") != s.Grid.EMax || int(arg("-ne")) != s.Grid.NE {
				t.Fatalf("%s unit %d: flags %v disagree with spec grid %+v", wl, i, f, s.Grid)
			}
		}
	}
}

func TestSelfTimes(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{ID: 0, Parent: -1, Name: "unit", Unit: 1, Start: at(0), End: at(100)},
		{ID: 1, Parent: 0, Name: "sweep", Unit: 1, Start: at(10), End: at(90)},
		// Two overlapping tasks: their union [20,60] counts once.
		{ID: 2, Parent: 1, Name: "task", Kind: kindTask, Unit: 1, Start: at(20), End: at(50)},
		{ID: 3, Parent: 1, Name: "task", Kind: kindTask, Unit: 1, Start: at(40), End: at(60)},
		// A wait with a journal append inside it, and one that overruns
		// the wait (clipped to it for the wait's self time).
		{ID: 4, Parent: 1, Name: "wait", Kind: kindWait, Unit: 1, Start: at(60), End: at(80)},
		{ID: 5, Parent: 4, Name: "append", Kind: kindJournal, Unit: 1, Start: at(62), End: at(70)},
		{ID: 6, Parent: 4, Name: "append", Kind: kindJournal, Unit: 1, Start: at(75), End: at(85)},
		// Another unit's span must not leak into unit 1's totals.
		{ID: 7, Parent: -1, Name: "unit", Kind: kindTask, Unit: 2, Start: at(0), End: at(5)},
	}
	want := []time.Duration{
		20 * time.Millisecond, // unit: 100 − sweep 80
		20 * time.Millisecond, // sweep: 80 − tasks' union 40 − wait 20
		30 * time.Millisecond,
		20 * time.Millisecond,
		7 * time.Millisecond, // wait: 20 − 8 − 5 (the overrun is clipped at 80)
		8 * time.Millisecond,
		10 * time.Millisecond, // a span's own self time is never clipped
		5 * time.Millisecond,
	}
	got := selfTimes(spans)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	kinds := selfByKind(spans, 1)
	if kinds[kindTask] != 50*time.Millisecond || kinds[kindJournal] != 18*time.Millisecond ||
		kinds[kindWait] != 7*time.Millisecond || kinds[kindOther] != 40*time.Millisecond {
		t.Fatalf("selfByKind = %v", kinds)
	}
}

func TestTracerNilIsOff(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", "y", kindTask, 1, -1, 0)
	tr.end(id)
	tr.add("x", "y", kindTask, 1, -1, 0, time.Now(), time.Now())
	if id != -1 || tr.snapshot() != nil {
		t.Fatalf("a nil tracer recorded something")
	}
}

func TestPackLanes(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{Lane: -1, Start: at(0), End: at(10)},
		{Lane: -1, Start: at(5), End: at(15)},  // overlaps the first: second lane
		{Lane: -1, Start: at(10), End: at(20)}, // first lane is free again
		{Lane: 0, Start: at(0), End: at(20)},   // already placed: untouched
	}
	packLanes(spans)
	if got := []int{spans[0].Lane, spans[1].Lane, spans[2].Lane, spans[3].Lane}; !reflect.DeepEqual(got, []int{1, 2, 1, 0}) {
		t.Fatalf("lanes = %v, want [1 2 1 0]", got)
	}
}

// A traced report starts from zeroAll, so every catalogued per-layer
// name is always emitted.
func TestTracedReportStartsComplete(t *testing.T) {
	rep := newReport(wlWire, 1, 1, true)
	zeroAll(rep)
	if miss := rep.missing(); len(miss) > 0 {
		t.Errorf("a traced report lacks %v", miss)
	}
}
