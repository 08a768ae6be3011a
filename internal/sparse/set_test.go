package sparse

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/linalg"
)

// TestSetMaxAbsLanes holds a lane set's MaxAbs to MaxAbs on each lane
// copied out, NaN included (any NaN: the lane kernel returns math.NaN()),
// over blocks with signed zeros, ±Inf and NaN parts.
func TestSetMaxAbsLanes(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	part := func() float64 {
		switch r.Intn(12) {
		case 0:
			return math.Copysign(0, -1)
		case 1:
			return math.Inf(1 - 2*r.Intn(2))
		case 2:
			if r.Intn(4) == 0 {
				return math.NaN()
			}
		}
		return r.NormFloat64() * math.Pow(10, float64(r.Intn(20)-10))
	}
	ws := linalg.GetWorkspace()
	defer ws.Release()
	set := LaneSet(ws)
	for it := 0; it < 300; it++ {
		rows, cols := r.Intn(9), 1+r.Intn(9)
		b := set.Get(rows, cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				for l := 0; l < linalg.Lanes; l++ {
					b.V.Set(l, i, j, complex(part(), part()))
				}
			}
		}
		lane := linalg.New(rows, cols)
		for l, got := range set.MaxAbs(b) {
			b.V.LaneInto(lane, l)
			want := MaxAbs(lane)
			if math.IsNaN(want) != math.IsNaN(got) || !math.IsNaN(want) && math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%d×%d lane %d: MaxAbs %v, want %v", rows, cols, l, got, want)
			}
		}
	}
}

// TestLaneSetRefill holds a lane set's scratch to two allocations past
// its workspace's own when the pool has lost its workspaces — two GCs
// empty a sync.Pool — however many blocks the set hands out: the lane
// header slice and the slab, sized by the largest set seen, not two per
// block.
func TestLaneSetRefill(t *testing.T) {
	round := func(blocks int) func() {
		return func() {
			runtime.GC()
			runtime.GC()
			ws := linalg.GetWorkspace()
			set := LaneSet(ws)
			for i := 0; i < blocks; i++ {
				set.Get(1+i%7, 1+i%5)
				set.Zeroed(3, 4)
			}
			ws.Release()
		}
	}
	round(100)()
	bare := testing.AllocsPerRun(10, round(0))
	if a := testing.AllocsPerRun(10, round(100)); a > bare+2 {
		t.Fatalf("a lane set of 200 blocks refilled in %.1f allocations, want at most its workspace's %.1f + 2", a, bare)
	}
}

// TestLaneSetsConcurrent runs lane sets of different sizes from several
// goroutines at once, each on its own workspace, each filling every block
// it holds with its own tag and reading the tags back before release: no
// two blocks of a set, and no two sets, share a float64, whatever the pool
// hands out and however the scratch grows.
func TestLaneSetsConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				ws := linalg.GetWorkspace()
				set := LaneSet(ws)
				var blocks []Block
				for i := 0; i < 10+round%7*g; i++ {
					b := set.Get(1+(i+g)%6, 1+round%4)
					blocks = append(blocks, b)
					for e := range b.V.Data {
						b.V.Data[e] = float64(g*1e6 + i)
					}
				}
				for i, b := range blocks {
					for _, v := range b.V.Data {
						if v != float64(g*1e6+i) {
							t.Errorf("goroutine %d round %d: block %d reads %v", g, round, i, v)
							ws.Release()
							return
						}
					}
				}
				ws.Release()
			}
		}(g)
	}
	wg.Wait()
}
