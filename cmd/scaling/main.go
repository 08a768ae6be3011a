// Command scaling prints the paper-style parallel-performance studies of
// the calibrated machine model (internal/machine; see DESIGN.md for the
// Jaguar substitution): strong scaling of a fixed workload, weak scaling
// with growing device cross-sections, per-level efficiency, and the phase
// breakdown table.
//
// It is a printer of closed-form model evaluations — microseconds each —
// and nothing more: it builds no device, runs no sweep, and takes no run
// spec. Its two flags are -study and -version.
//
// Examples:
//
//	scaling -study strong
//	scaling -study weak
//	scaling -study levels
//	scaling -study phases
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/buildinfo"
	"repro/internal/machine"
)

func main() {
	study := flag.String("study", "strong", "study: strong, weak, levels, phases")
	version := flag.Bool("version", false, "print the build version (module version plus VCS revision) and exit")
	flag.Parse()
	if *version {
		fmt.Printf("scaling %s\n", buildinfo.Version())
		return
	}

	m := machine.Jaguar()
	var err error
	switch *study {
	case "strong":
		err = strong(m)
	case "weak":
		err = weak(m)
	case "levels":
		err = levels(m)
	case "phases":
		err = phases(m)
	default:
		fmt.Fprintf(os.Stderr, "scaling: unknown study %q\n", *study)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "scaling:", err)
		os.Exit(1)
	}
}

// strong is the strong-scaling study: the flagship workload on the
// paper's machine sizes, from two racks up to the full system.
func strong(m machine.MachineModel) error {
	w := machine.Flagship()
	reports, err := m.StrongScaling(w, machine.StrongCounts)
	if err != nil {
		return err
	}
	fmt.Printf("# strong scaling on %s — workload: %d tasks, device %d layers × %d orbitals\n",
		m.Name, w.Tasks(), w.NLayers, w.BlockSize)
	fmt.Println("# cores\tdecomposition\twall(s)\tspeedup\tTFlop/s\tefficiency")
	for _, r := range reports {
		fmt.Printf("%d\t%s\t%.1f\t%.1f\t%.1f\t%.3f\n",
			r.CoresUsed, r.Decomposition, r.WallTime, r.Speedup(reports[0]),
			r.SustainedFlops/1e12, r.Efficiency)
	}
	// Flagship point: at full machine size the energy grid is chosen
	// to divide the groups evenly (production practice), which is
	// where the sustained petaflop headline comes from.
	tuned := w
	tuned.NE = 1316 // 2 clean rounds over 658 energy groups
	rT, err := m.PredictAuto(tuned, 221400)
	if err != nil {
		return err
	}
	fmt.Printf("# tuned flagship: %d cores, %s → %.2f PFlop/s sustained (eff %.3f)\n",
		rT.CoresUsed, rT.Decomposition, rT.SustainedFlops/1e15, rT.Efficiency)
	return nil
}

// weak is the weak-scaling study. Cross-section grows with the machine:
// block size doubles per step (wire diameter sweep), keeping work per
// core roughly fixed.
func weak(m machine.MachineModel) error {
	fmt.Printf("# weak scaling on %s — device grows with the machine\n", m.Name)
	fmt.Println("# cores\tblock\tlayers\twall(s)\tPFlop/s\tefficiency")
	steps := []struct{ cores, block, layers int }{
		{2688, 120, 100},
		{10752, 190, 110},
		{43008, 300, 120},
		{120000, 420, 130},
		{221400, 480, 140},
	}
	for _, st := range steps {
		w := machine.Workload{
			NBias: 16, NK: 21, NE: 1024,
			NLayers: st.layers, BlockSize: st.block, RHSWidth: st.block,
			SelfEnergyIterations: 30, EnergyCostCV: 0.1,
			CouplingRank: st.block / 4,
		}
		r, err := m.PredictAuto(w, st.cores)
		if err != nil {
			return err
		}
		fmt.Printf("%d\t%d\t%d\t%.1f\t%.3f\t%.3f\n",
			r.CoresUsed, st.block, st.layers, r.WallTime,
			r.SustainedFlops/1e15, r.Efficiency)
	}
	return nil
}

// levels exercises each parallelism level in isolation.
func levels(m machine.MachineModel) error {
	w := machine.Flagship()
	fmt.Printf("# per-level efficiency on %s\n", m.Name)
	fmt.Println("# level\tgroups\tcores\tefficiency")
	one := machine.Decomposition{Bias: 1, Momentum: 1, Energy: 1, Domains: 1}
	levels := []struct {
		name string
		set  func(d *machine.Decomposition, n int)
		max  int
	}{
		{"bias", func(d *machine.Decomposition, n int) { d.Bias = n }, w.NBias},
		{"momentum", func(d *machine.Decomposition, n int) { d.Momentum = n }, w.NK},
		{"energy", func(d *machine.Decomposition, n int) { d.Energy = n }, w.NE},
		{"domains", func(d *machine.Decomposition, n int) { d.Domains = n }, w.NLayers},
	}
	for _, l := range levels {
		for _, n := range []int{2, 4, 8, 16, 32, 64, 128} {
			if n > l.max {
				break
			}
			d := one
			l.set(&d, n)
			r, err := m.Predict(w, d)
			if err != nil {
				return err
			}
			fmt.Printf("%s\t%d\t%d\t%.3f\n", l.name, n, r.CoresUsed, r.Efficiency)
		}
	}
	return nil
}

// phases prints where the predicted wall time goes at three machine sizes.
func phases(m machine.MachineModel) error {
	w := machine.Flagship()
	fmt.Printf("# phase breakdown on %s\n", m.Name)
	fmt.Println("# cores\tselfE(s)\tsolve(s)\treduced(s)\tcomm(s)\timbalance(s)\ttotal(s)")
	for _, c := range []int{5376, 43008, 221400} {
		r, err := m.PredictAuto(w, c)
		if err != nil {
			return err
		}
		b := r.Breakdown
		fmt.Printf("%d\t%.1f\t%.1f\t%.2f\t%.2f\t%.2f\t%.1f\n",
			r.CoresUsed, b.SelfEnergy, b.Solve, b.Reduced,
			b.Communication, b.Imbalance, r.WallTime)
	}
	return nil
}
