package perf

import (
	"strings"
	"testing"
	"time"
)

// TestWritePrometheus pins the exposition format: one flops counter,
// per-phase series behind a phase label, engine counters behind a name
// label, everything sorted so the page is byte-deterministic.
func TestWritePrometheus(t *testing.T) {
	s := Snapshot{
		Flops: 12345,
		Phases: map[string]PhaseStats{
			"rgf":      {Calls: 2, Wall: 1500 * time.Millisecond},
			"assemble": {Calls: 1, Wall: time.Second},
		},
		Counters: map[string]int64{
			"sigma-hits":   9,
			"lease-grants": 3,
		},
	}
	var b strings.Builder
	s.WritePrometheus(&b, "omend")
	got := b.String()

	for _, want := range []string{
		"# TYPE omend_flops_total counter\n",
		"omend_flops_total 12345\n",
		`omend_phase_calls_total{phase="assemble"} 1` + "\n",
		`omend_phase_wall_seconds_total{phase="rgf"} 1.5` + "\n",
		`omend_counter_total{name="lease-grants"} 3` + "\n",
		`omend_counter_total{name="sigma-hits"} 9` + "\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("exposition missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "phase_flops") {
		t.Errorf("exposition has a per-phase flop family no call site fills:\n%s", got)
	}
	// Sorted: "assemble" before "rgf", "lease-grants" before "sigma-hits".
	if strings.Index(got, `phase="assemble"`) > strings.Index(got, `phase="rgf"`) {
		t.Error("phases not sorted — the page is not deterministic")
	}
	if strings.Index(got, "lease-grants") > strings.Index(got, "sigma-hits") {
		t.Error("counters not sorted — the page is not deterministic")
	}

	// A second render is byte-identical.
	var b2 strings.Builder
	s.WritePrometheus(&b2, "omend")
	if b2.String() != got {
		t.Error("two renders of one snapshot differ")
	}
}
