package perf

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The phase registry is process-global and has no reset: each test records
// under phase names of its own and reads what it added since it began.

func TestPhaseRecording(t *testing.T) {
	before := TakeSnapshot()
	RecordPhase("phasetest-rgf", 3*time.Millisecond)
	RecordPhase("phasetest-rgf", 2*time.Millisecond)
	RecordPhase("phasetest-poisson", time.Millisecond)
	snap := TakeSnapshot().Diff(before).Phases
	rgf, ok := snap["phasetest-rgf"]
	if !ok {
		t.Fatal("rgf phase missing from snapshot")
	}
	if rgf.Calls != 2 || rgf.Wall != 5*time.Millisecond {
		t.Fatalf("rgf stats = %+v", rgf)
	}
	if p := snap["phasetest-poisson"]; p.Calls != 1 || p.Wall != time.Millisecond {
		t.Fatalf("poisson stats = %+v", p)
	}
}

func TestStartPhaseMeasuresWall(t *testing.T) {
	before := TakeSnapshot()
	func() {
		defer StartPhase("phasetest-timed")()
		time.Sleep(5 * time.Millisecond)
	}()
	p := TakeSnapshot().Diff(before).Phases["phasetest-timed"]
	if p.Calls != 1 {
		t.Fatalf("calls = %d", p.Calls)
	}
	if p.Wall < 4*time.Millisecond {
		t.Fatalf("wall %v shorter than the timed region", p.Wall)
	}
}

func TestPhaseConcurrent(t *testing.T) {
	before := TakeSnapshot()
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				RecordPhase("phasetest-concurrent", time.Microsecond)
			}
		}()
	}
	wg.Wait()
	p := TakeSnapshot().Diff(before).Phases["phasetest-concurrent"]
	if p.Calls != workers*per || p.Wall != workers*per*time.Microsecond {
		t.Fatalf("concurrent phase stats = %+v", p)
	}
}

// singleAtomic is the pre-sharding implementation, kept here as the
// benchmark baseline the sharded counter is measured against. On a
// multi-core machine the single cell becomes one bouncing cache line under
// 8+ goroutines while the sharded counter's per-P stickiness keeps writes
// core-local; on a single-CPU runner (GOMAXPROCS=1) there is no contention
// to remove and both benchmarks measure only per-op overhead — compare
// them with `go test -bench FlopCounter -cpu 8` on real cores.
var singleAtomic atomic.Int64

func BenchmarkFlopCounterSingleAtomic(b *testing.B) {
	b.SetParallelism(8)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			singleAtomic.Add(8)
		}
	})
}

func BenchmarkFlopCounterSharded(b *testing.B) {
	b.SetParallelism(8)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			AddFlops(8)
		}
	})
	b.StopTimer()
	ResetFlops()
}
