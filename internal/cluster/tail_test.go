package cluster

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/perf"
)

// TestTailIncremental: Poll returns exactly the records appended since
// the previous Poll, skipping the header and epoch metadata, and an
// absent file reads as "nothing yet".
func TestTailIncremental(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tail.journal")
	tail := NewTail(path)

	recs, err := tail.Poll()
	if err != nil || len(recs) != 0 {
		t.Fatalf("Poll on missing file = %v, %v; want empty, nil", recs, err)
	}

	j, err := OpenFileJournal(path)
	if err != nil {
		t.Fatalf("open journal: %v", err)
	}
	defer j.Close()
	if err := j.WriteHeader(Header{SpecHash: "abc", RunID: "abc-1"}); err != nil {
		t.Fatalf("header: %v", err)
	}
	if _, err := j.BumpEpoch(); err != nil {
		t.Fatalf("epoch: %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := j.Append(TaskRecord{Index: i, Payload: []byte{byte(i)}, Perf: &perf.Snapshot{Flops: int64(i)}}); err != nil {
			t.Fatalf("append: %v", err)
		}
	}

	recs, err = tail.Poll()
	if err != nil {
		t.Fatalf("Poll: %v", err)
	}
	if len(recs) != 3 {
		t.Fatalf("first Poll returned %d records, want 3 (header/epoch must be skipped)", len(recs))
	}
	for i, r := range recs {
		if r.Index != i {
			t.Errorf("record %d has index %d; want file order", i, r.Index)
		}
	}

	// Nothing new: an idle Poll is empty, not a replay.
	if recs, err = tail.Poll(); err != nil || len(recs) != 0 {
		t.Fatalf("idle Poll = %v, %v; want empty, nil", recs, err)
	}

	if err := j.Append(TaskRecord{Index: 7, Payload: []byte("x")}); err != nil {
		t.Fatalf("append: %v", err)
	}
	if recs, err = tail.Poll(); err != nil || len(recs) != 1 || recs[0].Index != 7 {
		t.Fatalf("incremental Poll = %v, %v; want just record 7", recs, err)
	}
}

// TestTailTornLine: a partial trailing line (a writer killed mid-append)
// is not consumed; once the line is completed the record is delivered
// whole. Garbage that never becomes a record is skipped.
func TestTailTornLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.journal")
	tail := NewTail(path)

	full, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer full.Close()

	rec := TaskRecord{Index: 0, Payload: []byte("p")}
	rec.Digest = digestOf(rec.Payload)
	line := `{"idx":0,"payload":"cA==","sha":"` + rec.Digest + `"}`

	// Write only half the line: Poll must not advance past it.
	if _, err := full.WriteString(line[:10]); err != nil {
		t.Fatalf("write: %v", err)
	}
	if recs, err := tail.Poll(); err != nil || len(recs) != 0 {
		t.Fatalf("Poll on torn line = %v, %v; want empty", recs, err)
	}

	// Complete the line: the whole record arrives, so the torn Poll did
	// not advance past its start.
	if _, err := full.WriteString(line[10:] + "\n"); err != nil {
		t.Fatalf("write: %v", err)
	}
	recs, err := tail.Poll()
	if err != nil || len(recs) != 1 || recs[0].Index != 0 || string(recs[0].Payload) != "p" {
		t.Fatalf("Poll after completion = %+v, %v; want the one record", recs, err)
	}

	// A garbage line followed by a good record: garbage is skipped, the
	// record still arrives (the Load contract, incrementally).
	if _, err := full.WriteString("not json\n"); err != nil {
		t.Fatalf("write: %v", err)
	}
	rec2 := TaskRecord{Index: 1, Payload: []byte("q")}
	rec2.Digest = digestOf(rec2.Payload)
	if _, err := full.WriteString(`{"idx":1,"payload":"cQ==","sha":"` + rec2.Digest + `"}` + "\n"); err != nil {
		t.Fatalf("write: %v", err)
	}
	recs, err = tail.Poll()
	if err != nil || len(recs) != 1 || recs[0].Index != 1 {
		t.Fatalf("Poll past garbage = %+v, %v; want just record 1", recs, err)
	}
}

// TestTailIdlePollAllocs pins the scratch-buffer reuse: an idle Poll (no
// new records — the steady state of a long-lived SSE stream) must not
// re-allocate its 64 KiB read buffer every time. The budget of 4 covers
// the open/stat path; the buffer alone would blow it.
func TestTailIdlePollAllocs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "allocs.journal")
	j, err := OpenFileJournal(path)
	if err != nil {
		t.Fatalf("open journal: %v", err)
	}
	defer j.Close()
	if err := j.Append(TaskRecord{Index: 0, Payload: []byte("p")}); err != nil {
		t.Fatalf("append: %v", err)
	}
	tail := NewTail(path)
	if _, err := tail.Poll(); err != nil {
		t.Fatalf("warm-up Poll: %v", err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := tail.Poll(); err != nil {
			t.Fatalf("Poll: %v", err)
		}
	})
	if allocs > 4 {
		t.Fatalf("idle Poll costs %.0f allocs/op, want <= 4 (is the read buffer being re-created per poll?)", allocs)
	}
}
