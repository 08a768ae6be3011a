// Nanowire FET: the paper's flagship application — a self-consistent
// ballistic simulation of a gate-all-around silicon nanowire transistor.
// The example sweeps the gate voltage at fixed drain bias, solving the
// coupled quantum transport / Poisson problem at every point, and prints
// the resulting transfer characteristic with the extracted subthreshold
// slope and on/off ratio.
//
// Expect well under a minute on two cores: every bias point runs 10-30
// self-consistent iterations (the off-state point the most), each with a
// full energy-resolved quantum charge integration.
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/transport"
)

func main() {
	desc := device.Description{
		Name: "GAA Si nanowire FET", Kind: device.SiNanowire,
		CellsX: 14, CellsY: 2, CellsZ: 1,
	}
	sim, err := core.New(desc, transport.Config{Formalism: transport.WaveFunction})
	if err != nil {
		log.Fatal(err)
	}
	st := sim.Stats()
	fmt.Printf("device: %s — %d atoms, %.1f nm channel, matrix order %d\n",
		st.Name, st.Atoms, st.TransportLen, st.MatrixOrder)

	fet, err := core.NewFET(sim)
	if err != nil {
		log.Fatal(err)
	}
	// Gate-all-around electrostatics: a ~3 nm gate window with a 1 nm
	// screening length and moderately doped extensions.
	fet.GateStart, fet.GateEnd = 0.30, 0.70
	fet.Lambda = 1.0
	fet.SourceDoping = 0.15
	fet.NE = 120

	const vd = 0.20
	vgs := transport.UniformGrid(-0.4, 0.4, 5)
	fmt.Printf("gate sweep at Vd = %.2f V:\n", vd)
	fmt.Println("  Vg(V)    Id(A)         iterations  converged")
	start := time.Now()
	points, err := fet.GateSweep(context.Background(), vgs, vd)
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range points {
		fmt.Printf("  %+.2f    %.4e    %d          %v\n",
			p.VGate, p.Current, p.Iterations, p.Converged)
	}
	fmt.Printf("sweep wall time: %s\n", time.Since(start).Round(time.Millisecond))

	// Figure-of-merit extraction.
	ss, err := core.SubthresholdSlope(points[0], points[1])
	if err != nil {
		log.Fatal(err)
	}
	onOff := points[len(points)-1].Current / points[0].Current
	fmt.Printf("subthreshold slope: %.0f mV/dec (thermionic limit 60)\n", ss)
	fmt.Printf("on/off ratio over the sweep: %.1fx\n", onOff)

	// The converged channel barrier profile at the off- and on-states.
	off, on := points[0], points[len(points)-1]
	fmt.Println("channel potential energy profile U(x) (eV):")
	fmt.Println("  layer   off-state   on-state")
	for i := range off.Potential {
		fmt.Printf("  %3d     %+.3f      %+.3f\n", i, off.Potential[i], on.Potential[i])
	}
	barrierDrop := maxF(off.Potential) - maxF(on.Potential)
	fmt.Printf("gate-induced barrier lowering: %.3f eV over %.1f V of gate swing\n",
		barrierDrop, on.VGate-off.VGate)
	if math.IsNaN(barrierDrop) || barrierDrop <= 0 {
		log.Fatal("unexpected: gate did not lower the barrier")
	}
}

func maxF(v []float64) float64 {
	m := math.Inf(-1)
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}
