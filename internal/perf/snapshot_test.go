package perf

import (
	"encoding/json"
	"testing"
	"time"
)

func TestSnapshotDiffPartitions(t *testing.T) {
	base := TakeSnapshot()

	AddFlops(100)
	RecordPhase("snaptest-a", 5*time.Millisecond)
	s1 := TakeSnapshot()
	d1 := s1.Diff(base)

	AddFlops(50)
	RecordPhase("snaptest-a", 2*time.Millisecond)
	RecordPhase("snaptest-b", time.Millisecond)
	s2 := TakeSnapshot()
	d2 := s2.Diff(s1)

	if d1.Flops != 100 || d2.Flops != 50 {
		t.Fatalf("flop deltas = %d, %d; want 100, 50", d1.Flops, d2.Flops)
	}
	if st := d1.Phases["snaptest-a"]; st.Calls != 1 || st.Wall != 5*time.Millisecond {
		t.Fatalf("d1 snaptest-a = %+v", st)
	}
	if _, ok := d1.Phases["snaptest-b"]; ok {
		t.Fatal("d1 contains a phase recorded only later")
	}
	if st := d2.Phases["snaptest-b"]; st.Calls != 1 || st.Wall != time.Millisecond {
		t.Fatalf("d2 snaptest-b = %+v", st)
	}

	// Summing the deltas must reproduce the total accrued since base.
	var sum Snapshot
	sum.Add(d1)
	sum.Add(d2)
	total := s2.Diff(base)
	if sum.Flops != total.Flops {
		t.Fatalf("delta sum flops = %d, total = %d", sum.Flops, total.Flops)
	}
	for name, st := range total.Phases {
		if sum.Phases[name] != st {
			t.Fatalf("phase %s: delta sum %+v, total %+v", name, sum.Phases[name], st)
		}
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	in := Snapshot{
		Flops: 12,
		Phases: map[string]PhaseStats{
			"p": {Calls: 2, Wall: 3 * time.Second},
		},
	}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var out Snapshot
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if out.Flops != in.Flops || out.Phases["p"] != in.Phases["p"] {
		t.Fatalf("round trip: got %+v, want %+v", out, in)
	}
	// Journals written while phases carried a flop field still load.
	var old Snapshot
	if err := json.Unmarshal([]byte(`{"flops":12,"phases":{"p":{"Calls":2,"Wall":3000000000,"Flops":0}}}`), &old); err != nil {
		t.Fatalf("unmarshal a record with a phase flop field: %v", err)
	}
	if old.Flops != in.Flops || old.Phases["p"] != in.Phases["p"] {
		t.Fatalf("record with a phase flop field: got %+v, want %+v", old, in)
	}
}

func TestCounterSnapshotDiffMerge(t *testing.T) {
	base := TakeSnapshot()

	GetCounter("ctrtest-a").Add(5)
	s1 := TakeSnapshot()
	d1 := s1.Diff(base)
	if d1.Counters["ctrtest-a"] != 5 {
		t.Fatalf("d1 counter = %v, want 5", d1.Counters)
	}

	GetCounter("ctrtest-a").Add(2)
	GetCounter("ctrtest-b").Add(1)
	s2 := TakeSnapshot()
	d2 := s2.Diff(s1)
	if d2.Counters["ctrtest-a"] != 2 || d2.Counters["ctrtest-b"] != 1 {
		t.Fatalf("d2 counters = %v", d2.Counters)
	}
	if _, ok := d1.Counters["ctrtest-b"]; ok {
		t.Fatal("d1 contains a counter incremented only later")
	}

	// Unchanged counters must be omitted from deltas so wire payloads
	// stay small.
	d3 := TakeSnapshot().Diff(s2)
	if _, ok := d3.Counters["ctrtest-a"]; ok {
		t.Fatalf("unchanged counter present in delta: %v", d3.Counters)
	}

	// Delta sum reproduces the total — the distributed merge invariant.
	var sum Snapshot
	sum.Add(d1)
	sum.Add(d2)
	total := s2.Diff(base)
	for name, v := range total.Counters {
		if sum.Counters[name] != v {
			t.Fatalf("counter %s: delta sum %d, total %d", name, sum.Counters[name], v)
		}
	}
}

func TestCounterJSONRoundTrip(t *testing.T) {
	in := Snapshot{Flops: 1, Counters: map[string]int64{"c": 4}}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var out Snapshot
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if out.Counters["c"] != 4 {
		t.Fatalf("round trip: got %+v, want %+v", out, in)
	}
}
