// Graphene nanoribbon devices: armchair-ribbon band-gap engineering and a
// gated GNR switch — the 2-D-material workload of the evaluation (F7).
// The example reproduces the three armchair families (metallic-ish N=3p+2
// vs semiconducting widths), prints conductance quantization steps, and
// runs a short self-consistent gate sweep on a 7-AGNR channel.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/transport"
)

func main() {
	// 1. Band-gap versus ribbon width: the hallmark AGNR family pattern.
	fmt.Println("armchair GNR families (pz model):")
	fmt.Println("  N     family   Eg(eV)")
	for _, n := range []int{4, 5, 6, 7, 8, 9, 10, 11, 12, 13} {
		sim, err := core.New(device.Description{
			Name: fmt.Sprintf("AGNR-%d", n), Kind: device.ArmchairGNR,
			CellsX: 4, CellsY: n,
		}, transport.Config{})
		if err != nil {
			log.Fatal(err)
		}
		family := "semiconducting"
		if n%3 == 2 {
			family = "quasi-metallic"
		}
		gap := 0.0
		if ev, ec, err := sim.ConductionBandEdge(-1.5, 1.5); err == nil {
			gap = ec - ev
		}
		fmt.Printf("  %-2d    %-14s %.3f\n", n, family, gap)
	}

	// 2. Conductance quantization of a clean 7-AGNR: T(E) climbs in
	//    integer steps as subbands open.
	sim, err := core.New(device.Description{
		Name: "AGNR-7", Kind: device.ArmchairGNR, CellsX: 16, CellsY: 7,
	}, transport.Config{})
	if err != nil {
		log.Fatal(err)
	}
	_, ec, err := sim.ConductionBandEdge(-1.5, 1.5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n7-AGNR conduction steps (Ec = %.3f eV):\n  E-Ec(eV)  T(E)\n", ec)
	grid := transport.UniformGrid(ec-0.05, ec+2.0, 12)
	ts, err := sim.Transmission(context.Background(), grid, nil)
	if err != nil {
		log.Fatal(err)
	}
	for i, e := range grid {
		fmt.Printf("  %+.3f    %.4f\n", e-ec, ts[i])
	}

	// 3. A gated 7-AGNR switch: short self-consistent transfer curve.
	simFET, err := core.New(device.Description{
		Name: "AGNR-7 switch", Kind: device.ArmchairGNR, CellsX: 20, CellsY: 7,
	}, transport.Config{})
	if err != nil {
		log.Fatal(err)
	}
	fet, err := core.NewFET(simFET)
	if err != nil {
		log.Fatal(err)
	}
	fet.NE = 120
	fmt.Println("\ngated 7-AGNR at Vd = 0.2 V:")
	fmt.Println("  Vg(V)    Id(A)")
	points, err := fet.GateSweep(context.Background(), []float64{-0.4, -0.1, 0.2, 0.5}, 0.2)
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range points {
		fmt.Printf("  %+.2f    %.4e\n", p.VGate, p.Current)
	}
	fmt.Printf("on/off: %.0fx\n", points[len(points)-1].Current/points[0].Current)
}
