package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/perf"
)

// appendRecords writes n records with recognizable payloads through a
// fresh journal handle and closes it.
func appendRecords(t *testing.T, path string, lo, hi int, opts ...JournalOption) {
	t.Helper()
	j, err := OpenFileJournal(path, opts...)
	if err != nil {
		t.Fatalf("OpenFileJournal: %v", err)
	}
	for i := lo; i < hi; i++ {
		if err := j.Append(TaskRecord{Index: i, Payload: []byte(fmt.Sprintf("payload-%d", i))}); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func loadIndices(t *testing.T, path string) []int {
	t.Helper()
	j, err := OpenFileJournal(path)
	if err != nil {
		t.Fatalf("OpenFileJournal: %v", err)
	}
	defer j.Close()
	recs, err := j.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	var idx []int
	for _, r := range recs {
		idx = append(idx, r.Index)
	}
	return idx
}

// TestJournalTornTailRecovery kills a journal mid-record (by truncating
// the file inside the last line, as a crashed writer would leave it) and
// verifies the full recovery contract: the torn record is dropped, the
// intact prefix survives, and — critically — a record appended by the
// next process does not merge into the torn line and get destroyed too.
func TestJournalTornTailRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	appendRecords(t, path, 0, 5)

	// Truncate mid-record: cut the file 7 bytes into the final line.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	trimmed := bytes.TrimSuffix(data, []byte("\n"))
	lastLine := trimmed[bytes.LastIndexByte(trimmed, '\n')+1:]
	cut := len(data) - len(lastLine) - 1 + 7
	if err := os.Truncate(path, int64(cut)); err != nil {
		t.Fatalf("Truncate: %v", err)
	}

	// Reopen (which must repair the unterminated tail) and append one more.
	appendRecords(t, path, 5, 6)

	// Record 4 was torn and must stay lost; 0–3 and the new record 5 must
	// all survive intact.
	got := loadIndices(t, path)
	want := []int{0, 1, 2, 3, 5}
	if len(got) != len(want) {
		t.Fatalf("recovered %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("recovered %v, want %v", got, want)
		}
	}
}

// TestJournalTornTailEveryCut truncates at every byte offset inside the
// last record and asserts the invariant that matters for resume: recovery
// never loses an intact record and never resurrects the torn one, no
// matter where the crash landed.
func TestJournalTornTailEveryCut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	appendRecords(t, path, 0, 3)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	trimmed := bytes.TrimSuffix(data, []byte("\n"))
	lastStart := bytes.LastIndexByte(trimmed, '\n') + 1

	for cut := lastStart; cut < len(data); cut++ {
		cutPath := filepath.Join(t.TempDir(), "cut.journal")
		if err := os.WriteFile(cutPath, data[:cut], 0o644); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
		appendRecords(t, cutPath, 3, 4)
		got := loadIndices(t, cutPath)
		// Records 0 and 1 are intact; record 2 survives only at the final
		// offset (cut == len-1 strips just the newline but Load still
		// parses the complete JSON line after tail repair); record 3 must
		// always survive.
		want := []int{0, 1, 3}
		if cut == len(data)-1 {
			want = []int{0, 1, 2, 3}
		}
		if len(got) != len(want) {
			t.Fatalf("cut %d: recovered %v, want %v", cut, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("cut %d: recovered %v, want %v", cut, got, want)
			}
		}
	}
}

// batchRecords builds records lo..hi-1 as a coordinator's committer would:
// recognizable payloads, a perf delta each.
func batchRecords(lo, hi int) []TaskRecord {
	var recs []TaskRecord
	for i := lo; i < hi; i++ {
		recs = append(recs, TaskRecord{
			Index: i, Payload: []byte(fmt.Sprintf("payload-%d", i)), Perf: &perf.Snapshot{Flops: int64(100 + i)},
		})
	}
	return recs
}

// batchJournal writes a header and one AppendBatch of records 0..n-1 and
// returns the file's bytes, the offset the batch starts at and, per
// record, the offset just past its newline.
func batchJournal(t *testing.T, n int) (data []byte, start int, ends []int) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "batch.journal")
	j, err := OpenFileJournal(path, WithFsync())
	if err != nil {
		t.Fatalf("OpenFileJournal: %v", err)
	}
	if err := j.WriteHeader(Header{SpecHash: "cafe", RunID: "cafe-1"}); err != nil {
		t.Fatalf("WriteHeader: %v", err)
	}
	if err := j.AppendBatch(batchRecords(0, n)); err != nil {
		t.Fatalf("AppendBatch: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if data, err = os.ReadFile(path); err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	start = bytes.IndexByte(data, '\n') + 1
	for off := start; off < len(data); off++ {
		if data[off] == '\n' {
			ends = append(ends, off+1)
		}
	}
	if len(ends) != n {
		t.Fatalf("batch of %d records wrote %d lines after the header", n, len(ends))
	}
	return data, start, ends
}

// TestJournalTornBatchEveryCut is the group commit's crash contract: a
// batch is one write, so a crash can cut the file at any byte of it. For
// every cut, a reader sees exactly the records that end before it (a
// record missing only its newline still verifies), reopening repairs the
// tail, and the batch a resumed run appends next never merges into the
// torn line.
func TestJournalTornBatchEveryCut(t *testing.T) {
	const n = 5
	data, start, ends := batchJournal(t, n)
	dir := t.TempDir()
	for cut := start; cut <= len(data); cut++ {
		var want []int
		for i, end := range ends {
			if end-1 <= cut {
				want = append(want, i)
			}
		}
		path := filepath.Join(dir, fmt.Sprintf("cut-%d.journal", cut))
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
		c, err := ReadJournal(path)
		if err != nil {
			t.Fatalf("cut %d: ReadJournal: %v", cut, err)
		}
		if got := indices(c.Records); !reflect.DeepEqual(got, want) {
			t.Fatalf("cut %d: read %v, want %v", cut, got, want)
		}
		if c.Header == nil || c.Header.RunID != "cafe-1" {
			t.Fatalf("cut %d: header lost: %+v", cut, c.Header)
		}

		j, err := OpenFileJournal(path, WithFsync())
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		if repaired, _ := os.ReadFile(path); repaired[len(repaired)-1] != '\n' {
			t.Fatalf("cut %d: reopening left an unterminated tail", cut)
		}
		if err := j.AppendBatch(batchRecords(n, n+2)); err != nil {
			t.Fatalf("cut %d: resumed AppendBatch: %v", cut, err)
		}
		recs, err := j.Load()
		j.Close()
		if err != nil {
			t.Fatalf("cut %d: Load: %v", cut, err)
		}
		if got := indices(recs); !reflect.DeepEqual(got, append(want, n, n+1)) {
			t.Fatalf("cut %d: after the resumed batch loaded %v, want %v", cut, got, append(want, n, n+1))
		}
	}
}

// TestJournalCommitKilledBeforeSync kills the writer in the window a group
// commit opens: the batch is written, the fsync has not returned, nobody
// has been told the tasks are done. A process kill leaves the whole batch
// with the OS; a power cut leaves any prefix of it. Either way the synced
// batch before it survives whole, and reopening and resuming the sweep
// ends with exactly one verified record per task — what journalcheck
// audits.
func TestJournalCommitKilledBeforeSync(t *testing.T) {
	const total, synced, unsynced = 12, 4, 5
	for _, tc := range []struct {
		name string
		// keep says how much of the file survives, given its size before
		// and after the unsynced batch's write.
		keep                     func(before, after int) int
		minRestored, maxRestored int
	}{
		{"process kill", func(_, after int) int { return after }, synced + unsynced, synced + unsynced},
		{"power cut mid-batch", func(before, after int) int { return (before + after) / 2 }, synced, synced + unsynced - 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path, crashed := filepath.Join(dir, "live.journal"), filepath.Join(dir, "crashed.journal")
			j, err := OpenFileJournal(path, WithFsync())
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			if err := j.WriteHeader(Header{SpecHash: "cafe"}); err != nil {
				t.Fatal(err)
			}
			if err := j.AppendBatch(batchRecords(0, synced)); err != nil {
				t.Fatal(err)
			}
			before, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			// The kill: what the next incarnation finds is the file as it
			// stood between the write and the fsync, cut where the crash
			// model says. Nothing this handle does after the hook counts.
			j.afterWrite = func() {
				after, err := os.ReadFile(path)
				if err != nil {
					t.Errorf("snapshot: %v", err)
					return
				}
				if err := os.WriteFile(crashed, after[:tc.keep(len(before), len(after))], 0o644); err != nil {
					t.Errorf("snapshot: %v", err)
				}
			}
			if err := j.AppendBatch(batchRecords(synced, synced+unsynced)); err != nil {
				t.Fatal(err)
			}

			next, err := OpenFileJournal(crashed, WithFsync())
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer next.Close()
			rep, err := RunTasksResumable(context.Background(), 1, 1, total, SweepOptions{
				Journal: next,
				Restore: func(Task, []byte) error { return nil },
			}, func(_ context.Context, task Task) ([]byte, error) {
				return []byte(fmt.Sprintf("payload-%d", task.E)), nil
			})
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			if rep.Restored < tc.minRestored || rep.Restored > tc.maxRestored || rep.Restored+rep.Completed != total {
				t.Fatalf("resume restored %d and completed %d of %d, want %d..%d restored",
					rep.Restored, rep.Completed, total, tc.minRestored, tc.maxRestored)
			}
			c, err := ReadJournal(crashed)
			if err != nil {
				t.Fatal(err)
			}
			counts := make([]int, total)
			for _, rec := range c.Records {
				counts[rec.Index]++
			}
			for idx, n := range counts {
				if n != 1 {
					t.Fatalf("task %d has %d verified records after the resume, want exactly 1 (%v)", idx, n, indices(c.Records))
				}
			}
		})
	}
}

// TestJournalWithFsync exercises the fsync path end to end; correctness
// beyond "records survive and load" can't be asserted without crashing
// the kernel, but the option must at least not disturb the format.
func TestJournalWithFsync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	appendRecords(t, path, 0, 4, WithFsync())
	got := loadIndices(t, path)
	if len(got) != 4 {
		t.Fatalf("loaded %d records, want 4", len(got))
	}
	for i := 0; i < 4; i++ {
		if got[i] != i {
			t.Fatalf("loaded indices %v, want [0 1 2 3]", got)
		}
	}
}

// TestJournalHeaderRoundTrip: a fresh journal's header survives append
// traffic, Load skips it, and CheckHeader accepts the matching hash.
func TestJournalHeaderRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	j, err := OpenFileJournal(path)
	if err != nil {
		t.Fatalf("OpenFileJournal: %v", err)
	}
	const hash = "deadbeefcafe0123deadbeefcafe0123deadbeefcafe0123deadbeefcafe0123"
	if err := j.WriteHeader(Header{SpecHash: hash, Spec: []byte(`{"mode":"transmission"}`)}); err != nil {
		t.Fatalf("WriteHeader: %v", err)
	}
	for i := 0; i < 4; i++ {
		if err := j.Append(TaskRecord{Index: i, Payload: []byte(fmt.Sprintf("p%d", i))}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	j.Close()

	j2, err := OpenFileJournal(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j2.Close()
	h, err := j2.ReadHeader()
	if err != nil {
		t.Fatalf("ReadHeader: %v", err)
	}
	if h == nil || h.SpecHash != hash {
		t.Fatalf("ReadHeader = %+v, want SpecHash %s", h, hash)
	}
	if string(h.Spec) != `{"mode":"transmission"}` {
		t.Fatalf("embedded spec = %s", h.Spec)
	}
	recs, err := j2.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(recs) != 4 {
		t.Fatalf("Load returned %d records (header must not count), want 4", len(recs))
	}
	warned := false
	if err := j2.CheckHeader(hash, func(string, ...any) { warned = true }); err != nil {
		t.Fatalf("CheckHeader(matching): %v", err)
	}
	if warned {
		t.Fatal("CheckHeader warned on a matching header")
	}
}

// TestJournalHeaderMismatchRejected: resuming a journal written by a
// different spec must fail loudly.
func TestJournalHeaderMismatchRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	j, err := OpenFileJournal(path)
	if err != nil {
		t.Fatalf("OpenFileJournal: %v", err)
	}
	defer j.Close()
	if err := j.WriteHeader(Header{SpecHash: "aaaa"}); err != nil {
		t.Fatalf("WriteHeader: %v", err)
	}
	err = j.CheckHeader("bbbb", nil)
	if err == nil {
		t.Fatal("CheckHeader accepted a foreign-spec journal")
	}
	if !bytes.Contains([]byte(err.Error()), []byte("different run spec")) {
		t.Fatalf("mismatch error %q does not name the cause", err)
	}
}

// TestJournalWithoutHeaderStillResumes is the backward-compat shim: a
// journal written before headers existed (PR ≤ 5 format, task records
// only) must still load and resume, with a warning rather than a
// failure — and old-format readers of the same bytes are unaffected.
func TestJournalWithoutHeaderStillResumes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.journal")
	appendRecords(t, path, 0, 6) // PR≤5 journals: records from line one
	j, err := OpenFileJournal(path)
	if err != nil {
		t.Fatalf("OpenFileJournal: %v", err)
	}
	defer j.Close()
	h, err := j.ReadHeader()
	if err != nil {
		t.Fatalf("ReadHeader: %v", err)
	}
	if h != nil {
		t.Fatalf("ReadHeader invented a header: %+v", h)
	}
	var warning string
	if err := j.CheckHeader("whatever", func(f string, a ...any) { warning = fmt.Sprintf(f, a...) }); err != nil {
		t.Fatalf("CheckHeader on headerless journal: %v", err)
	}
	if !bytes.Contains([]byte(warning), []byte("no spec header")) {
		t.Fatalf("warning %q does not explain the missing header", warning)
	}
	recs, err := j.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(recs) != 6 {
		t.Fatalf("Load returned %d records, want 6", len(recs))
	}
}

// TestJournalHeaderInvisibleToOldReader pins the forward-compat claim:
// a header line decoded as a TaskRecord has no digest, so a pre-header
// Load implementation (digest check only) would skip it — the explicit
// discriminator is an optimization, not load-bearing for correctness.
func TestJournalHeaderInvisibleToOldReader(t *testing.T) {
	line := []byte(`{"header":1,"specHash":"abc"}`)
	var rec TaskRecord
	if err := json.Unmarshal(line, &rec); err != nil {
		t.Fatalf("unmarshal header as TaskRecord: %v", err)
	}
	if rec.Verify() {
		t.Fatal("header line passes TaskRecord.Verify — old readers would mistake it for a task")
	}
}

// TestJournalEpochLifecycle: a fresh journal is implicitly at epoch 1;
// each BumpEpoch persists and returns the next incarnation number, which
// survives reopen; epoch records are invisible to Load and to readers
// from before epochs existed.
func TestJournalEpochLifecycle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	j, err := OpenFileJournal(path)
	if err != nil {
		t.Fatalf("OpenFileJournal: %v", err)
	}
	if e, err := j.LatestEpoch(); err != nil || e != 1 {
		t.Fatalf("fresh LatestEpoch = %d, %v; want 1", e, err)
	}
	if e, err := j.BumpEpoch(); err != nil || e != 2 {
		t.Fatalf("first BumpEpoch = %d, %v; want 2", e, err)
	}
	if err := j.Append(TaskRecord{Index: 0, Payload: []byte("p0")}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if e, err := j.BumpEpoch(); err != nil || e != 3 {
		t.Fatalf("second BumpEpoch = %d, %v; want 3", e, err)
	}
	j.Close()

	j2, err := OpenFileJournal(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j2.Close()
	if e, err := j2.LatestEpoch(); err != nil || e != 3 {
		t.Fatalf("reopened LatestEpoch = %d, %v; want 3", e, err)
	}
	recs, err := j2.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(recs) != 1 || recs[0].Index != 0 {
		t.Fatalf("Load sees %d records (want 1 task, epochs invisible)", len(recs))
	}
	// Old readers: an epoch line parsed as a TaskRecord must fail Verify.
	var rec TaskRecord
	if err := json.Unmarshal([]byte(`{"epoch":3}`), &rec); err != nil {
		t.Fatalf("unmarshal epoch as TaskRecord: %v", err)
	}
	if rec.Verify() {
		t.Fatal("epoch line passes TaskRecord.Verify — old readers would mistake it for a task")
	}
}

// TestBumpEpochDoesNotRescan: after a Read the handle knows the latest
// epoch, so BumpEpoch appends without another pass over the file — a
// resumed coordinated run walks its journal twice, harness and engine.
// The file is moved aside between the two (the handle keeps appending to
// it); a BumpEpoch that scanned the path again would find no journal and
// start over at 2.
func TestBumpEpochDoesNotRescan(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	j, err := OpenFileJournal(path)
	if err != nil {
		t.Fatalf("OpenFileJournal: %v", err)
	}
	for want := uint64(2); want <= 3; want++ {
		if e, err := j.BumpEpoch(); err != nil || e != want {
			t.Fatalf("BumpEpoch = %d, %v; want %d", e, err, want)
		}
	}
	j.Close()

	j, err = OpenFileJournal(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j.Close()
	if c, err := j.Read(); err != nil || c.Epoch != 3 {
		t.Fatalf("Read epoch = %d, %v; want 3", c.Epoch, err)
	}
	moved := path + ".moved"
	if err := os.Rename(path, moved); err != nil {
		t.Fatal(err)
	}
	for want := uint64(4); want <= 5; want++ {
		if e, err := j.BumpEpoch(); err != nil || e != want {
			t.Fatalf("BumpEpoch after Read = %d, %v; want %d without a rescan", e, err, want)
		}
	}
	if c, err := ReadJournal(moved); err != nil || c.Epoch != 5 {
		t.Fatalf("journal epoch = %d, %v; want 5", c.Epoch, err)
	}
}

// TestJournalRunIDRoundTrip: the header's run ID survives reopen and is
// absent (not invented) on journals written without one.
func TestJournalRunIDRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	j, err := OpenFileJournal(path)
	if err != nil {
		t.Fatalf("OpenFileJournal: %v", err)
	}
	if err := j.WriteHeader(Header{SpecHash: "abc", RunID: "abc-0011"}); err != nil {
		t.Fatalf("WriteHeader: %v", err)
	}
	j.Close()
	j2, err := OpenFileJournal(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j2.Close()
	h, err := j2.ReadHeader()
	if err != nil || h == nil {
		t.Fatalf("ReadHeader: %+v, %v", h, err)
	}
	if h.RunID != "abc-0011" {
		t.Fatalf("RunID = %q, want abc-0011", h.RunID)
	}
}

// TestJournalTaskPerfRoundTrip: a record's perf delta survives the disk
// round trip and its absence leaves old-style records untouched.
func TestJournalTaskPerfRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	j, err := OpenFileJournal(path)
	if err != nil {
		t.Fatalf("OpenFileJournal: %v", err)
	}
	if err := j.Append(TaskRecord{Index: 4, Payload: []byte("p4"), Perf: &perf.Snapshot{Flops: 12345}}); err != nil {
		t.Fatalf("Append with perf: %v", err)
	}
	if err := j.Append(TaskRecord{Index: 5, Payload: []byte("p5")}); err != nil {
		t.Fatalf("Append without perf: %v", err)
	}
	j.Close()
	j2, err := OpenFileJournal(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j2.Close()
	recs, err := j2.Load()
	if err != nil || len(recs) != 2 {
		t.Fatalf("Load: %d recs, %v", len(recs), err)
	}
	if recs[0].Perf == nil || recs[0].Perf.Flops != 12345 {
		t.Fatalf("record 0 perf = %+v, want Flops 12345", recs[0].Perf)
	}
	if recs[1].Perf != nil {
		t.Fatalf("record 1 perf = %+v, want nil", recs[1].Perf)
	}
}
