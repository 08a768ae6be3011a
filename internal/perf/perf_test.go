package perf

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestAddAndReset(t *testing.T) {
	ResetFlops()
	AddFlops(100)
	AddFlops(23)
	if got := Flops(); got != 123 {
		t.Fatalf("Flops = %d, want 123", got)
	}
	if prev := ResetFlops(); prev != 123 {
		t.Fatalf("ResetFlops returned %d", prev)
	}
	if got := Flops(); got != 0 {
		t.Fatalf("counter not zeroed: %d", got)
	}
}

func TestConcurrentAccumulation(t *testing.T) {
	ResetFlops()
	const workers, perWorker = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				AddFlops(3)
			}
		}()
	}
	wg.Wait()
	if got := ResetFlops(); got != workers*perWorker*3 {
		t.Fatalf("concurrent count %d, want %d", got, workers*perWorker*3)
	}
}

func TestFlopFormulas(t *testing.T) {
	if LUFlops(3) != 8*27/3 {
		t.Fatalf("LUFlops(3) = %d", LUFlops(3))
	}
	if GemmFlops(2, 3, 4) != 8*2*3*4 {
		t.Fatalf("GemmFlops = %d", GemmFlops(2, 3, 4))
	}
	if SolveFlops(5, 2) != 8*25*2 {
		t.Fatalf("SolveFlops = %d", SolveFlops(5, 2))
	}
	// The forward sweep's half always, the back sweep's on the rows from r0.
	for _, c := range []struct {
		r0   int
		want int64
	}{{0, SolveFlops(5, 2)}, {1, 4 * (25 + 16) * 2}, {5, 4 * 25 * 2}} {
		if got := SolveFromRowFlops(5, c.r0, 2); got != c.want {
			t.Fatalf("SolveFromRowFlops(5, %d, 2) = %d, want %d", c.r0, got, c.want)
		}
	}
}

func TestQuickFormulasScale(t *testing.T) {
	// LU cost is cubic: doubling n multiplies by ~8 (up to the integer
	// floor in the formula).
	f := func(raw uint8) bool {
		n := int(raw%20) + 2
		d := LUFlops(2*n) - 8*LUFlops(n)
		return d >= -8 && d <= 8
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
