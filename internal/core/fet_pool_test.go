package core

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/perf"
	"repro/internal/sched"
	"repro/internal/transport"
)

// TestGateSweepBitsIndependentOfPool: a gate sweep prints the same bits on
// any pool. Both energy passes of every bias point — each SCF iterate's
// charge pass and the final current pass — run as tasks of the sweep
// runner, whose lane groups land on whichever goroutine is free, and the
// bias points borrow from the same pool. The spectra are reduced in grid
// order, so at widths 1, 2 and 3 each point's current and potential are
// equal bit for bit, as are its iteration count and convergence, and the
// sweep counts the same flops: the σ-cache decimates each key once, on
// whichever goroutine asks first.
func TestGateSweepBitsIndependentOfPool(t *testing.T) {
	if testing.Short() {
		t.Skip("self-consistent FET sweeps in -short mode")
	}
	vgs := []float64{-0.2, 0.5}
	const vd = 0.2
	for _, f := range []transport.Formalism{transport.NEGFRGF, transport.WaveFunction} {
		sweep := func(workers int) ([]IVPoint, int64) {
			sim, err := New(device.Description{
				Name: "AGNR7", Kind: device.ArmchairGNR, CellsX: 8, CellsY: 7,
			}, transport.Config{Formalism: f, Pool: sched.New(workers)})
			if err != nil {
				t.Fatal(err)
			}
			fet, err := NewFET(sim)
			if err != nil {
				t.Fatal(err)
			}
			fet.NE = 48
			before := perf.Flops()
			points, err := fet.GateSweep(context.Background(), vgs, vd)
			if err != nil {
				t.Fatalf("%v at %d workers: %v", f, workers, err)
			}
			return points, perf.Flops() - before
		}
		want, wantFlops := sweep(1)
		for _, workers := range []int{2, 3} {
			got, flops := sweep(workers)
			if flops != wantFlops {
				t.Fatalf("%v: %d workers count %d flops, 1 worker %d", f, workers, flops, wantFlops)
			}
			for i, p := range got {
				w := want[i]
				if math.Float64bits(p.Current) != math.Float64bits(w.Current) || p.Iterations != w.Iterations || p.Converged != w.Converged {
					t.Fatalf("%v, Vg=%g: %d workers give Id %v in %d iterations (converged %v), 1 worker %v in %d (%v)",
						f, p.VGate, workers, p.Current, p.Iterations, p.Converged, w.Current, w.Iterations, w.Converged)
				}
				for l := range p.Potential {
					if math.Float64bits(p.Potential[l]) != math.Float64bits(w.Potential[l]) {
						t.Fatalf("%v, Vg=%g: %d workers move layer %d's potential %v → %v", f, p.VGate, workers, l, w.Potential[l], p.Potential[l])
					}
				}
			}
		}
	}
}

// TestEnergyPassNamesTheEnergy: a failing pass names the first failing
// energy by grid order in eV, not only the runner's flat task index, and
// keeps the cause.
func TestEnergyPassNamesTheEnergy(t *testing.T) {
	grid := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	boom := errors.New("solver blew up")
	for trial := 0; trial < 10; trial++ {
		err := energyPass(context.Background(), sched.New(3), grid, func(_ context.Context, i int) error {
			if i >= 5 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) || !strings.Contains(err.Error(), "E=0.6 eV: solver blew up") {
			t.Fatalf("trial %d: error %v does not name E=0.6 eV", trial, err)
		}
	}
}
