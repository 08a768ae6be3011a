// Command scaling prints the paper-style parallel-performance studies of
// the calibrated machine model (internal/machine; see DESIGN.md for the
// Jaguar substitution): strong scaling of the flagship workload, weak
// scaling with growing device cross-sections, per-level efficiency, and the
// phase breakdown table. Each study is defined in internal/machine; this
// command only prints its rows, and testdata/<study>.golden holds them.
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
	"io"
	"os"

	"repro/internal/buildinfo"
	"repro/internal/machine"
)

// studies maps each -study value to the printer of its rows.
var studies = map[string]func(io.Writer, machine.MachineModel) error{
	"strong": strong,
	"weak":   weak,
	"levels": levels,
	"phases": phases,
}

func main() {
	study := flag.String("study", "strong", "study: strong, weak, levels, phases")
	version := flag.Bool("version", false, "print the build version (module version plus VCS revision) and exit")
	flag.Parse()
	if *version {
		fmt.Printf("scaling %s\n", buildinfo.Version())
		return
	}
	printStudy, ok := studies[*study]
	if !ok {
		fmt.Fprintf(os.Stderr, "scaling: unknown study %q\n", *study)
		os.Exit(2)
	}
	if err := printStudy(os.Stdout, machine.Jaguar()); err != nil {
		fmt.Fprintln(os.Stderr, "scaling:", err)
		os.Exit(1)
	}
}

func strong(out io.Writer, m machine.MachineModel) error {
	reports, err := m.Strong()
	if err != nil {
		return err
	}
	w := reports[0].Workload
	fmt.Fprintf(out, "# strong scaling on %s — workload: %d tasks, device %d layers × %d orbitals\n",
		m.Name, w.Tasks(), w.NLayers, w.BlockSize)
	fmt.Fprintln(out, "# cores\tdecomposition\twall(s)\tspeedup\tTFlop/s\tefficiency")
	for _, r := range reports {
		fmt.Fprintf(out, "%d\t%s\t%.1f\t%.1f\t%.1f\t%.3f\n",
			r.CoresUsed, r.Decomposition, r.WallTime, r.Speedup(reports[0]),
			r.SustainedFlops/1e12, r.Efficiency)
	}
	return nil
}

func weak(out io.Writer, m machine.MachineModel) error {
	reports, err := m.Weak()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "# weak scaling on %s — device grows with the machine\n", m.Name)
	fmt.Fprintln(out, "# cores\tblock\tlayers\twall(s)\tPFlop/s\tefficiency")
	for _, r := range reports {
		fmt.Fprintf(out, "%d\t%d\t%d\t%.1f\t%.3f\t%.3f\n",
			r.CoresUsed, r.Workload.BlockSize, r.Workload.NLayers, r.WallTime,
			r.SustainedFlops/1e15, r.Efficiency)
	}
	return nil
}

func levels(out io.Writer, m machine.MachineModel) error {
	rows, err := m.Levels()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "# per-level efficiency on %s\n", m.Name)
	fmt.Fprintln(out, "# level\tgroups\tcores\tefficiency")
	for _, r := range rows {
		fmt.Fprintf(out, "%s\t%d\t%d\t%.3f\n", r.Level, r.Groups, r.CoresUsed, r.Efficiency)
	}
	return nil
}

func phases(out io.Writer, m machine.MachineModel) error {
	reports, err := m.Phases()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "# phase breakdown on %s\n", m.Name)
	fmt.Fprintln(out, "# cores\tselfE(s)\tsolve(s)\treduced(s)\tcomm(s)\timbalance(s)\ttotal(s)")
	for _, r := range reports {
		b := r.Breakdown
		fmt.Fprintf(out, "%d\t%.1f\t%.1f\t%.2f\t%.2f\t%.2f\t%.1f\n",
			r.CoresUsed, b.SelfEnergy, b.Solve, b.Reduced,
			b.Communication, b.Imbalance, r.WallTime)
	}
	return nil
}
