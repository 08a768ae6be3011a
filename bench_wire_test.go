package repro

// W1: distributed-wire economy. Two loopback sweeps over the same task
// grid measure the bytes the coordinator/worker protocol moves per task:
// the per-frame shape (JSON payloads, one task per lease, one result per
// frame)
// against the lean fabric (binary payloads, capacity-8 lease batches,
// coalesced result uploads). The "bytes/task" metric is deterministic —
// same grid, same protocol, same bytes — so benchguard gates it as an
// upper bound: the wire may not quietly bloat.

import (
	"context"
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/comms"
	"repro/internal/distrib"
	"repro/internal/perf"
	"repro/internal/sched"
)

// The wire benchmarks' sweep grid: 1 bias × 4 k × 16 E — small enough
// to run in milliseconds, large enough that the handshake amortizes.
const wireBenchNK, wireBenchNE = 4, 16

// runWireSweep runs one loopback sweep with a single width-1 worker and
// returns the total wire bytes moved (both directions, measured at the
// coordinator, handshake included).
func runWireSweep(b *testing.B, coord distrib.Options, work distrib.WorkerOptions) int64 {
	b.Helper()
	lb := comms.NewLoopback()
	lis, err := lb.Listen("bench")
	if err != nil {
		b.Fatal(err)
	}
	// A minute's lease puts the heartbeats (every 5 s) out of the
	// measurement window: the comparison is pure lease/result protocol.
	coord.LeaseTimeout = time.Minute
	type serveRes struct {
		rep *distrib.Report
		err error
	}
	ch := make(chan serveRes, 1)
	go func() {
		rep, serr := distrib.Serve(context.Background(), lis, 1, wireBenchNK, wireBenchNE, coord)
		ch <- serveRes{rep, serr}
	}()
	conn, err := lb.Dial(context.Background(), "bench")
	if err != nil {
		b.Fatal(err)
	}
	var flops atomic.Int64
	work.Pool = sched.New(1)
	work.PerfNow = func() perf.Snapshot { return perf.Snapshot{Flops: flops.Load()} }
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		werr := distrib.RunWorker(context.Background(), conn, 1, wireBenchNK, wireBenchNE, work,
			func(ctx context.Context, t cluster.Task) ([]byte, error) {
				flops.Add(1)
				var p [8]byte
				binary.LittleEndian.PutUint64(p[:], uint64(t.K*wireBenchNE+t.E))
				return p[:], nil
			})
		if werr != nil {
			b.Error(werr)
		}
	}()
	r := <-ch
	wg.Wait()
	if r.err != nil {
		b.Fatal(r.err)
	}
	return r.rep.Perf.Counters["wire-bytes-sent"] + r.rep.Perf.Counters["wire-bytes-recv"]
}

// BenchmarkW1_WireJSONPerFrame is the baseline shape: JSON wire, one
// task per lease, one result (a batch of one) per frame.
func BenchmarkW1_WireJSONPerFrame(b *testing.B) {
	total := float64(wireBenchNK * wireBenchNE)
	var bytes int64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bytes = runWireSweep(b,
			distrib.Options{WireFormat: "json"},
			distrib.WorkerOptions{WireFormat: "json", Capacity: 1, UploadBatch: 1})
	}
	b.ReportMetric(float64(bytes)/total, "bytes/task")
}

// BenchmarkW1_WireLeanBatched is the lean fabric: binary payloads,
// capacity-8 lease batches, coalesced result uploads.
func BenchmarkW1_WireLeanBatched(b *testing.B) {
	total := float64(wireBenchNK * wireBenchNE)
	var bytes int64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bytes = runWireSweep(b,
			distrib.Options{},
			distrib.WorkerOptions{Capacity: distrib.DefaultLeaseBatch})
	}
	b.ReportMetric(float64(bytes)/total, "bytes/task")
}
