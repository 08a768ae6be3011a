// Petascale: reproduce the paper's headline — sustained petaflop-class
// performance on 221,400 Cray XT5 cores — with the calibrated machine
// model, anchored to kernel costs measured on this machine.
//
// The example (1) measures the true flop count of one open-boundary solve
// on a real (small) device with the library's exact flop accounting,
// (2) checks it against the analytic workload model the scheduler uses,
// and (3) runs the four-level strong-scaling study up to full machine
// size, printing the modeled sustained performance curve.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/machine"
	"repro/internal/transport"
)

func main() {
	// 1. Calibration: measure one wave-function solve on a real device.
	desc := device.Description{
		Name: "calibration wire", Kind: device.SiNanowire,
		CellsX: 10, CellsY: 1, CellsZ: 1,
	}
	sim, err := core.New(desc, transport.Config{Formalism: transport.WaveFunction})
	if err != nil {
		log.Fatal(err)
	}
	st := sim.Stats()
	_, ec, err := sim.ConductionBandEdge(-2, 6)
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	measured, err := machine.CalibrateBlockSolve(func() error {
		_, err := sim.Transmission(context.Background(), []float64{ec + 0.3}, nil)
		return err
	})
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)
	localRate := float64(measured) / elapsed.Seconds()
	fmt.Printf("calibration device: %d layers × %d orbitals/layer\n", st.Layers, st.BlockSize)
	fmt.Printf("measured: %.3g flops per energy point in %s → %.2f GFlop/s on this core\n",
		float64(measured), elapsed.Round(time.Millisecond), localRate/1e9)

	w := machine.Workload{
		NBias: 1, NK: 1, NE: 1,
		NLayers: st.Layers, BlockSize: st.BlockSize, RHSWidth: st.BlockSize,
		SelfEnergyIterations: 30,
	}
	analytic := w.SelfEnergyFlops() + w.WFSolveFlops()
	fmt.Printf("analytic model: %.3g flops per energy point (%.1fx of measured)\n",
		float64(analytic), float64(analytic)/float64(measured))

	// 2. The flagship workload at Jaguar scale.
	flagship := machine.Flagship()
	flagship.NE = 1316 // 2 clean rounds over 658 energy groups
	m := machine.Jaguar()
	fmt.Printf("\nflagship workload: %d independent solves on a %d-layer, %d-orbital/layer device\n",
		flagship.Tasks(), flagship.NLayers, flagship.BlockSize)
	fmt.Printf("useful work: %.3g flops per sweep\n", float64(flagship.UsefulFlops()))

	fmt.Printf("\nstrong scaling on %s (4-level decomposition):\n", m.Name)
	fmt.Println("  cores     wall(s)   TFlop/s   efficiency")
	counts := []int{1344, 5376, 21504, 86016, 172032, 221400}
	reports, err := m.StrongScaling(flagship, counts)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range reports {
		fmt.Printf("  %-9d %-9.1f %-9.1f %.3f\n",
			r.CoresUsed, r.WallTime, r.SustainedFlops/1e12, r.Efficiency)
	}
	last := reports[len(reports)-1]
	fmt.Printf("\nheadline: %.2f PFlop/s sustained on %d cores (%s)\n",
		last.SustainedFlops/1e15, last.CoresUsed, last.Decomposition)
	fmt.Println("paper reference: 1.44 PFlop/s on 221,400 cores — same petaflop class;")
	fmt.Println("see EXPERIMENTS.md for the shape-level comparison methodology.")
}
