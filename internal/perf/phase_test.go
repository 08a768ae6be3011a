package perf

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPhaseRecording(t *testing.T) {
	ResetPhases()
	RecordPhase("rgf", 3*time.Millisecond)
	RecordPhase("rgf", 2*time.Millisecond)
	RecordPhase("poisson", time.Millisecond)
	snap := PhaseSnapshot()
	rgf, ok := snap["rgf"]
	if !ok {
		t.Fatal("rgf phase missing from snapshot")
	}
	if rgf.Calls != 2 || rgf.Wall != 5*time.Millisecond {
		t.Fatalf("rgf stats = %+v", rgf)
	}
	if p := snap["poisson"]; p.Calls != 1 || p.Wall != time.Millisecond {
		t.Fatalf("poisson stats = %+v", p)
	}
	ResetPhases()
	if snap := PhaseSnapshot(); len(snap) != 0 {
		t.Fatalf("snapshot not empty after reset: %v", snap)
	}
}

func TestStartPhaseMeasuresWall(t *testing.T) {
	ResetPhases()
	func() {
		defer StartPhase("timed")()
		time.Sleep(5 * time.Millisecond)
	}()
	p := PhaseSnapshot()["timed"]
	if p.Calls != 1 {
		t.Fatalf("calls = %d", p.Calls)
	}
	if p.Wall < 4*time.Millisecond {
		t.Fatalf("wall %v shorter than the timed region", p.Wall)
	}
}

func TestPhaseConcurrent(t *testing.T) {
	ResetPhases()
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				RecordPhase("p", time.Microsecond)
			}
		}()
	}
	wg.Wait()
	p := PhaseSnapshot()["p"]
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
