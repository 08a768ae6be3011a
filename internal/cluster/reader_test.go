package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/perf"
)

// recLine renders one task record as the writer would, without newline.
func recLine(idx int, payload string) string {
	b, err := json.Marshal(TaskRecord{Index: idx, Payload: []byte(payload), Digest: digestOf([]byte(payload))})
	if err != nil {
		panic(err)
	}
	return string(b)
}

// journalCase is one journal file and what each kind of reader must make
// of it: a reader of the file at rest (whole) and a follower of it.
type journalCase struct {
	name   string
	data   string
	header *Header
	epoch  uint64
	whole  []int // record indices, file order
	follow []int
	// torn is the whole line the file's unterminated last line is a
	// prefix of, or "" when the file ends at a line boundary.
	torn string
}

func journalCases() []journalCase {
	flipped := strings.Replace(recLine(2, "payload-2"), `"payload":"c`, `"payload":"d`, 1)
	mixed := strings.Join([]string{
		`{"header":1,"specHash":"aaaa","runID":"aaaa-1"}`,
		recLine(0, "payload-0"),
		`{"header":1,"specHash":"bbbb","runID":"bbbb-2"}`, // a second header is ignored
		`{"epoch":2}`,
		recLine(1, "payload-1"),
		flipped, // digest no longer matches the payload
		`not json at all`,
		``,
		``,
		recLine(1, "payload-1"), // duplicate index: an echo, still a record
		`{"epoch":3}`,
		recLine(99, "payload-99"), // out of range for a 4-task sweep: still a record
		recLine(3, "payload-3"),
	}, "\n") + "\n"
	hdr := &Header{SpecHash: "aaaa", RunID: "aaaa-1"}
	return []journalCase{
		{name: "empty", epoch: 1},
		{name: "mixed", data: mixed, header: hdr, epoch: 3,
			whole: []int{0, 1, 1, 99, 3}, follow: []int{0, 1, 1, 99, 3}},
		{name: "torn tail", data: mixed + recLine(2, "payload-2")[:20], header: hdr, epoch: 3,
			whole: []int{0, 1, 1, 99, 3}, follow: []int{0, 1, 1, 99, 3}, torn: recLine(2, "payload-2")},
		// The writer died between a record and its newline. The record
		// verifies, so a reader of the file at rest takes it (tail repair
		// will terminate it); a follower leaves it for the writer.
		{name: "unterminated record", data: mixed + recLine(2, "payload-2"), header: hdr, epoch: 3,
			whole: []int{0, 1, 1, 99, 3, 2}, follow: []int{0, 1, 1, 99, 3}, torn: recLine(2, "payload-2")},
		// A group commit is one write of several lines, so a crash can cut
		// it between two records or inside one.
		{name: "batch cut at a record boundary", data: mixed + recLine(2, "payload-2") + "\n" + recLine(4, "payload-4") + "\n", header: hdr, epoch: 3,
			whole: []int{0, 1, 1, 99, 3, 2, 4}, follow: []int{0, 1, 1, 99, 3, 2, 4}},
		{name: "batch cut mid-record", data: mixed + recLine(2, "payload-2") + "\n" + recLine(4, "payload-4") + "\n" + recLine(5, "payload-5")[:31], header: hdr, epoch: 3,
			whole: []int{0, 1, 1, 99, 3, 2, 4}, follow: []int{0, 1, 1, 99, 3, 2, 4}, torn: recLine(5, "payload-5")},
		{name: "headerless", data: recLine(0, "p") + "\n" + recLine(1, "q") + "\n", epoch: 1,
			whole: []int{0, 1}, follow: []int{0, 1}},
	}
}

func indices(recs []TaskRecord) []int {
	var out []int
	for _, r := range recs {
		out = append(out, r.Index)
	}
	return out
}

// TestJournalReadersAgree: every way of reading a journal — the
// path-level read, the handle's Read, Load, ReadHeader and LatestEpoch,
// and a Tail polled across every byte split of the file — goes through
// one scan and must report the same header, epoch and records. The tail
// differs only by the documented rule for an unterminated final line.
func TestJournalReadersAgree(t *testing.T) {
	for _, tc := range journalCases() {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "j.journal")
			if err := os.WriteFile(path, []byte(tc.data), 0o644); err != nil {
				t.Fatal(err)
			}

			c, err := ReadJournal(path)
			if err != nil {
				t.Fatalf("ReadJournal: %v", err)
			}
			if !reflect.DeepEqual(c.Header, tc.header) || c.Epoch != tc.epoch || !reflect.DeepEqual(indices(c.Records), tc.whole) {
				t.Fatalf("ReadJournal = header %+v epoch %d records %v; want %+v, %d, %v",
					c.Header, c.Epoch, indices(c.Records), tc.header, tc.epoch, tc.whole)
			}
			for _, r := range c.Records {
				if !r.Verify() {
					t.Errorf("record %d does not verify", r.Index)
				}
			}
			if after, _ := os.ReadFile(path); string(after) != tc.data {
				t.Fatalf("ReadJournal changed the file: %d bytes, was %d", len(after), len(tc.data))
			}

			// A follower, with the file cut in two at every byte.
			tpath := filepath.Join(t.TempDir(), "t.journal")
			for cut := 0; cut <= len(tc.data); cut++ {
				tail := NewTail(tpath)
				var got []TaskRecord
				for _, upTo := range []int{cut, len(tc.data)} {
					if err := os.WriteFile(tpath, []byte(tc.data[:upTo]), 0o644); err != nil {
						t.Fatal(err)
					}
					recs, err := tail.Poll()
					if err != nil {
						t.Fatalf("cut %d: Poll: %v", cut, err)
					}
					got = append(got, recs...)
				}
				if !reflect.DeepEqual(indices(got), tc.follow) {
					t.Fatalf("cut %d: tail saw %v, want %v", cut, indices(got), tc.follow)
				}
				// Complete the torn last line (or append a whole one): the
				// next Poll must return exactly that record, so the tail
				// stopped at the end of the last complete line.
				line := tc.torn
				if line == "" {
					line = recLine(7, "payload-7")
				}
				var next TaskRecord
				if err := json.Unmarshal([]byte(line), &next); err != nil {
					t.Fatal(err)
				}
				frag := tc.data[strings.LastIndexByte(tc.data, '\n')+1:]
				if err := os.WriteFile(tpath, []byte(tc.data+line[len(frag):]+"\n"), 0o644); err != nil {
					t.Fatal(err)
				}
				recs, err := tail.Poll()
				if err != nil || !reflect.DeepEqual(indices(recs), []int{next.Index}) {
					t.Fatalf("cut %d: Poll after completing the last line = %v, %v; want [%d]", cut, indices(recs), err, next.Index)
				}
			}

			// The handle's readers, after OpenFileJournal's tail repair:
			// the repair must not change what the journal holds.
			j, err := OpenFileJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			hc, err := j.Read()
			if err != nil || !reflect.DeepEqual(hc, c) {
				t.Fatalf("Read after tail repair = %+v, %v; want what ReadJournal saw before it", hc, err)
			}
			recs, lerr := j.Load()
			hdr, herr := j.ReadHeader()
			epoch, eerr := j.LatestEpoch()
			if lerr != nil || herr != nil || eerr != nil {
				t.Fatalf("Load/ReadHeader/LatestEpoch errors: %v, %v, %v", lerr, herr, eerr)
			}
			if !reflect.DeepEqual(recs, c.Records) || !reflect.DeepEqual(hdr, c.Header) || epoch != c.Epoch {
				t.Fatalf("Load/ReadHeader/LatestEpoch = %v, %+v, %d; disagree with Read", indices(recs), hdr, epoch)
			}
		})
	}
}

// TestSeed pins the one definition of what a journal covers, and of
// what it cost: the perf sum counts the first record of an index, never
// its echo, and a record without a delta adds nothing.
func TestSeed(t *testing.T) {
	rec := func(idx int, p string, flops int64) TaskRecord {
		r := TaskRecord{Index: idx, Payload: []byte(p)}
		if flops != 0 {
			r.Perf = &perf.Snapshot{Flops: flops, Counters: map[string]int64{"solves": 1}}
		}
		return r
	}
	recs := []TaskRecord{rec(2, "first", 100), rec(-1, "below", 1000), rec(0, "zero", 0), rec(2, "echo", 7), rec(4, "beyond", 1000), rec(3, "three", 20)}

	var visited []string
	done, n, sum, err := Seed(recs, 1, 2, 2, func(t Task, payload []byte) error {
		visited = append(visited, fmt.Sprintf("%d:%s", t.K*2+t.E, payload))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"2:first", "0:zero", "3:three"}; !reflect.DeepEqual(visited, want) {
		t.Errorf("restored %v, want %v (first record per index, in file order, in range only)", visited, want)
	}
	if want := []bool{true, false, true, true}; !reflect.DeepEqual(done, want) || n != 3 {
		t.Errorf("done %v n %d, want %v and 3", done, n, want)
	}
	if sum.Flops != 120 || sum.Counters["solves"] != 2 {
		t.Errorf("perf sum %+v, want 120 flops over 2 solves (first record wins; the echo's 7 and the out-of-range 1000s are not added)", sum)
	}

	if _, n, sum, err := Seed(recs, 1, 2, 2, nil); err != nil || n != 3 || sum.Flops != 120 {
		t.Errorf("nil restore: n %d flops %d err %v, want 3, 120, nil", n, sum.Flops, err)
	}

	boom := errors.New("boom")
	done, n, _, err = Seed(recs, 1, 2, 2, func(t Task, _ []byte) error {
		if t == (Task{}) {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "task 0") {
		t.Errorf("restore error = %v, want boom naming task 0", err)
	}
	if want := []bool{false, false, true, false}; !reflect.DeepEqual(done, want) || n != 1 {
		t.Errorf("after a restore error done %v n %d, want %v and 1 (the failed task is not done)", done, n, want)
	}
}

// FuzzJournalScan: whatever bytes a journal file holds, the scan does
// not panic, returns only records that verify, and its three modes stay
// consistent with each other.
func FuzzJournalScan(f *testing.F) {
	for _, tc := range journalCases() {
		f.Add([]byte(tc.data))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		run := func(mode scanMode) (Contents, int64) {
			c := Contents{Epoch: 1}
			n, err := scan(bufio.NewReader(bytes.NewReader(data)), &c, mode)
			if err != nil {
				t.Fatalf("scan of an in-memory file failed: %v", err)
			}
			return c, n
		}
		whole, n := run(scanWhole)
		if n != int64(len(data)) {
			t.Fatalf("whole-file scan consumed %d of %d bytes", n, len(data))
		}
		for _, r := range whole.Records {
			if !r.Verify() {
				t.Fatalf("scan returned a record that does not verify: %+v", r)
			}
		}
		head, _ := run(scanHeader)
		if !reflect.DeepEqual(head.Header, whole.Header) {
			t.Fatalf("header scan found %+v, whole-file scan %+v", head.Header, whole.Header)
		}
		follow, n := run(scanFollow)
		if want := int64(bytes.LastIndexByte(data, '\n') + 1); n != want {
			t.Fatalf("follower consumed %d bytes, want %d (through the last newline)", n, want)
		}
		if k := len(follow.Records); k > len(whole.Records) || (k > 0 && !reflect.DeepEqual(follow.Records, whole.Records[:k])) {
			t.Fatalf("follower records %v are not a prefix of the whole-file records %v", indices(follow.Records), indices(whole.Records))
		}
	})
}
