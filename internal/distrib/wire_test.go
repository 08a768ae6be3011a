package distrib

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/comms"
	"repro/internal/perf"
	"repro/internal/sched"
)

// TestWireRoundTrips pins the binary encodings: every hot message must
// decode back to exactly what was encoded, perf deltas included.
func TestWireRoundTrips(t *testing.T) {
	t.Run("lease", func(t *testing.T) {
		cases := []leaseMsg{
			{},
			{Tasks: []int{7}, TTL: 30 * time.Second},
			{Tasks: []int{100, 101, 102, 103, 104, 105, 106, 107}, TTL: 30 * time.Second},
			{Tasks: []int{9, 3, 250, 0}, TTL: time.Minute}, // non-monotonic: zigzag deltas go negative
		}
		var w comms.BinWriter
		for _, want := range cases {
			w.Reset()
			appendLeaseBin(&w, want)
			got, err := decodeLeaseBin(w.Bytes())
			if err != nil {
				t.Fatalf("decode %+v: %v", want, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round trip: got %+v, want %+v", got, want)
			}
		}
	})
	t.Run("resultBatch", func(t *testing.T) {
		want := []resultMsg{
			{Task: 3, Payload: []byte{1, 2, 3, 4}, Epoch: 2, Perf: perf.Snapshot{Flops: 42}},
			{Task: 4, Failed: true, Error: "singular matrix", Retries: 2, Epoch: 2},
			{Task: 5, Payload: []byte("p"), Perf: perf.Snapshot{
				Flops:    7,
				Phases:   map[string]perf.PhaseStats{"rgf": {Calls: 3, Wall: time.Millisecond}},
				Counters: map[string]int64{"sigma-cache-miss": 1},
			}},
			{Task: 6}, // empty payload, empty snapshot
		}
		var w comms.BinWriter
		appendResultBatchBin(&w, want)
		got, err := decodeResultBatchBin(w.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
		}
	})
}

// TestWireDecodeRejectsHostileCounts pins the allocation bound: a count
// prefix claiming far more elements than the payload can hold must be
// rejected before sizing any slice.
func TestWireDecodeRejectsHostileCounts(t *testing.T) {
	var w comms.BinWriter
	w.Byte(binFormat)
	w.Uvarint(0)       // TTL
	w.Uvarint(1 << 40) // task count with no tasks behind it
	if _, err := decodeLeaseBin(w.Bytes()); err == nil {
		t.Fatal("lease with hostile count decoded")
	}
	w.Reset()
	w.Byte(binFormat)
	w.Uvarint(1 << 40) // result count
	if _, err := decodeResultBatchBin(w.Bytes()); err == nil {
		t.Fatal("result batch with hostile count decoded")
	}
	// Wrong payload-format version: must fail, not misparse.
	if _, err := decodeLeaseBin([]byte{binFormat + 1, 0, 0, 0}); err == nil {
		t.Fatal("lease with unknown format byte decoded")
	}
}

// FuzzDecodeLeaseBin pins the never-panic contract of the lease decoder
// on hostile payloads.
func FuzzDecodeLeaseBin(f *testing.F) {
	var w comms.BinWriter
	appendLeaseBin(&w, leaseMsg{Tasks: []int{10, 11, 12}, TTL: 30 * time.Second})
	f.Add(append([]byte(nil), w.Bytes()...))
	f.Add([]byte{binFormat})
	f.Add([]byte{binFormat, 0, 0xff, 0xff, 0xff, 0xff, 0x7f}) // hostile task count
	f.Fuzz(func(t *testing.T, p []byte) {
		l, err := decodeLeaseBin(p)
		if err == nil {
			for _, task := range l.Tasks {
				if task < 0 {
					t.Fatalf("accepted negative task %d", task)
				}
			}
		} else if !errors.Is(err, comms.ErrBadPayload) && l.Tasks != nil {
			t.Fatal("error with non-nil tasks")
		}
	})
}

// FuzzDecodeResultBatchBin pins the never-panic contract of the result
// decoder, the layer that receives attacker-controllable bytes first.
func FuzzDecodeResultBatchBin(f *testing.F) {
	var w comms.BinWriter
	appendResultBatchBin(&w, []resultMsg{
		{Task: 1, Payload: []byte("ok"), Epoch: 3, Perf: perf.Snapshot{Flops: 9}},
		{Task: 2, Failed: true, Error: "x"},
	})
	f.Add(append([]byte(nil), w.Bytes()...))
	f.Add([]byte{binFormat, 1})
	f.Add([]byte{binFormat, 0xff, 0xff, 0x7f})
	f.Fuzz(func(t *testing.T, p []byte) {
		// Must never panic; the only contract on hostile bytes is an error
		// or a well-formed batch.
		decodeResultBatchBin(p)
	})
}

// runSweep drives a full loopback sweep with nWorkers and returns the
// coordinator's report. Options and worker options are shaped by the
// callbacks so one harness serves the format/shard matrix below.
func runSweep(t *testing.T, nBias, nK, nE, nWorkers int, opts Options, wopts func(i int) WorkerOptions) (*Report, *results, *cluster.MemJournal) {
	t.Helper()
	lb := comms.NewLoopback()
	lis, err := lb.Listen("coord")
	if err != nil {
		t.Fatal(err)
	}
	res := newResults(nBias, nK, nE)
	journal := &cluster.MemJournal{}
	opts.Journal = journal
	opts.Restore = res.restore
	ch := serveAsync(context.Background(), lis, nBias, nK, nE, opts)

	var wg sync.WaitGroup
	for i := 0; i < nWorkers; i++ {
		conn := dial(t, lb, "coord")
		wg.Add(1)
		go func(i int, conn net.Conn) {
			defer wg.Done()
			meter := &flopMeter{}
			wo := wopts(i)
			wo.ID = fmt.Sprintf("w%d", i)
			wo.Pool = sched.New(1)
			wo.PerfNow = meter.now
			err := RunWorker(context.Background(), conn, nBias, nK, nE, wo,
				workerFn(nK, nE, meter, withDelay(time.Millisecond, nil)))
			if err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
		}(i, conn)
	}
	rep := waitServe(t, ch)
	wg.Wait()
	return rep, res, journal
}

// TestBinaryWireSweepExact is the baseline: a binary-wire batched
// sweep must reproduce the serial observables bitwise, append exactly
// one record per task, and merge deltas to the exact serial flop total —
// the wire format must be invisible to every number that matters.
func TestBinaryWireSweepExact(t *testing.T) {
	const nBias, nK, nE = 2, 3, 8
	total := nBias * nK * nE
	rep, res, journal := runSweep(t, nBias, nK, nE, 3, Options{}, func(i int) WorkerOptions {
		return WorkerOptions{Capacity: 4}
	})
	checkValues(t, res, nil)
	if journal.Len() != total {
		t.Fatalf("journal has %d records, want %d", journal.Len(), total)
	}
	if got, want := rep.Perf.Flops, serialFlops(total, nil); got != want {
		t.Fatalf("merged flops %d, want exact serial total %d", got, want)
	}
	// Batched grants and the wire counters must be visible in the merged
	// counters (coordinator side of the accounting).
	if rep.Perf.Counters["batched-grants"] == 0 {
		t.Fatal("no batched grants recorded despite capacity 4")
	}
	if rep.Perf.Counters["wire-frames-sent"] == 0 || rep.Perf.Counters["wire-bytes-recv"] == 0 {
		t.Fatalf("wire counters missing from merged perf: %v", rep.Perf.Counters)
	}
}

// TestJSONWorkerSingleUploads pins per-session negotiation and the
// batch of one: a fleet mixing a JSON-wire worker that uploads one
// result per frame with a binary-wire worker, against a default
// (binary-offering) coordinator, must complete the sweep with
// bitwise-identical observables, exactly one record per task, and the
// exact flop total.
func TestJSONWorkerSingleUploads(t *testing.T) {
	const nBias, nK, nE = 2, 3, 8
	total := nBias * nK * nE
	rep, res, journal := runSweep(t, nBias, nK, nE, 2, Options{}, func(i int) WorkerOptions {
		if i == 0 {
			return WorkerOptions{WireFormat: "json", UploadBatch: 1, Capacity: 2}
		}
		return WorkerOptions{Capacity: 2}
	})
	checkValues(t, res, nil)
	if journal.Len() != total {
		t.Fatalf("journal has %d records, want %d", journal.Len(), total)
	}
	if got, want := rep.Perf.Flops, serialFlops(total, nil); got != want {
		t.Fatalf("merged flops %d, want exact serial total %d", got, want)
	}
	if rep.Workers != 2 {
		t.Fatalf("workers = %d, want 2", rep.Workers)
	}
}

// TestForcedJSONWire pins the coordinator-side override: with WireFormat
// "json" even a binary-advertising worker gets the JSON wire, and the
// sweep stays exact.
func TestForcedJSONWire(t *testing.T) {
	const nBias, nK, nE = 1, 2, 6
	total := nBias * nK * nE
	rep, res, journal := runSweep(t, nBias, nK, nE, 2, Options{WireFormat: "json"}, func(i int) WorkerOptions {
		return WorkerOptions{Capacity: 3}
	})
	checkValues(t, res, nil)
	if journal.Len() != total {
		t.Fatalf("journal has %d records, want %d", journal.Len(), total)
	}
	if got, want := rep.Perf.Flops, serialFlops(total, nil); got != want {
		t.Fatalf("merged flops %d, want %d", got, want)
	}
}

// TestShardedStealCompletes drives the sharded scheduler through its
// steal path with no knob: two shards and one worker, which is homed on
// shard 0, drains it, and must then steal all of shard 1. The sweep must
// stay bitwise exact, every journal record must carry its shard tag, and
// at least one steal must be observed.
func TestShardedStealCompletes(t *testing.T) {
	const nBias, nK, nE = 2, 3, 8
	total := nBias * nK * nE
	rep, res, journal := runSweep(t, nBias, nK, nE, 1, Options{Shards: 2}, func(i int) WorkerOptions {
		return WorkerOptions{Capacity: 4}
	})
	checkValues(t, res, nil)
	if got, want := rep.Perf.Flops, serialFlops(total, nil); got != want {
		t.Fatalf("merged flops %d, want exact serial total %d", got, want)
	}
	if rep.Shards != 2 {
		t.Fatalf("report shards = %d, want 2", rep.Shards)
	}
	if rep.Steals == 0 {
		t.Fatal("no steals observed though the only worker is homed on shard 0")
	}
	if rep.Perf.Counters["shard-steals"] != int64(rep.Steals) {
		t.Fatalf("shard-steals counter %d != report steals %d", rep.Perf.Counters["shard-steals"], rep.Steals)
	}
	// Journal shard tags: contiguous-block partition, recomputed here.
	recs, _ := journal.Load()
	if len(recs) != total {
		t.Fatalf("journal has %d records, want %d", len(recs), total)
	}
	sawShard1 := false
	for _, rec := range recs {
		want := rec.Index * 2 / total
		if rec.Shard != want {
			t.Fatalf("record %d tagged shard %d, want %d", rec.Index, rec.Shard, want)
		}
		if rec.Shard == 1 {
			sawShard1 = true
		}
	}
	if !sawShard1 {
		t.Fatal("no record tagged shard 1")
	}
}

// TestShardOfPartition pins the partition arithmetic: contiguous
// balanced blocks covering the grid exactly, deterministic for the life
// of a run.
func TestShardOfPartition(t *testing.T) {
	c := newLeaseTable(1, 10, Options{Shards: 3}, make([]bool, 10))
	counts := make([]int, 3)
	prev := 0
	for i := range c.st {
		sh := c.shardOf(i)
		if sh < prev || sh >= 3 {
			t.Fatalf("shardOf(%d) = %d (prev %d)", i, sh, prev)
		}
		prev = sh
		counts[sh]++
	}
	for sh, n := range counts {
		if n < 3 || n > 4 {
			t.Fatalf("shard %d owns %d tasks of 10 over 3 shards", sh, n)
		}
	}
}

// wireBytes sums both directions of the coordinator-side wire counters.
func wireBytes(rep *Report) int64 {
	return rep.Perf.Counters["wire-bytes-sent"] + rep.Perf.Counters["wire-bytes-recv"]
}

// TestWireBytesPerTaskRatio is the headline economy claim: the lean
// fabric (binary wire, capacity-8 lease batches, coalesced uploads) must
// move at least 4× fewer bytes per task than the per-frame shape (JSON
// wire, one task per lease, one result per frame). A minute's lease puts
// the heartbeats (every 5 s) out of the window, so the comparison is pure
// protocol.
func TestWireBytesPerTaskRatio(t *testing.T) {
	const nBias, nK, nE = 1, 4, 16
	total := nBias * nK * nE
	quiet := Options{LeaseTimeout: time.Minute}

	legacy := quiet
	legacy.WireFormat = "json"
	repJSON, _, _ := runSweep(t, nBias, nK, nE, 1, legacy, func(i int) WorkerOptions {
		return WorkerOptions{WireFormat: "json", Capacity: 1, UploadBatch: 1}
	})
	repBin, _, _ := runSweep(t, nBias, nK, nE, 1, quiet, func(i int) WorkerOptions {
		return WorkerOptions{Capacity: DefaultLeaseBatch}
	})

	jsonPer := float64(wireBytes(repJSON)) / float64(total)
	binPer := float64(wireBytes(repBin)) / float64(total)
	if jsonPer == 0 || binPer == 0 {
		t.Fatalf("wire counters missing: json %v bin %v", repJSON.Perf.Counters, repBin.Perf.Counters)
	}
	t.Logf("bytes/task: json one-per-frame %.1f, lean %.1f (%.1fx)", jsonPer, binPer, jsonPer/binPer)
	if jsonPer < 4*binPer {
		t.Fatalf("lean wire moves %.1f bytes/task vs %.1f JSON — less than the 4x economy this PR claims", binPer, jsonPer)
	}
}
