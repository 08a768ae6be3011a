package core

import (
	"fmt"
	"io"

	"repro/internal/cluster"
	"repro/internal/perf"
)

// This file is the one renderer of the transmission-sweep text format.
// Serial `omen`, the distributed coordinator, and the job service's
// result endpoint all print through it, which is what lets the drills
// demand byte-identical output across entry points: comment lines with
// the resilience accounting and perf counters, then the `E T(E)` table.

// WriteSweepComments emits the fault-tolerance accounting as comment
// lines ahead of the data when anything noteworthy happened.
func WriteSweepComments(w io.Writer, rep *cluster.SweepReport) {
	if rep == nil {
		return
	}
	if rep.Restored > 0 {
		fmt.Fprintf(w, "# resumed: %d/%d tasks restored from checkpoint\n", rep.Restored, rep.Total)
	}
	if rep.Retries > 0 {
		fmt.Fprintf(w, "# retries: %d extra attempts\n", rep.Retries)
	}
	if len(rep.Quarantined) > 0 {
		fmt.Fprintf(w, "# quarantined: %d/%d tasks dropped and renormalized:", len(rep.Quarantined), rep.Total)
		for _, t := range rep.Quarantined {
			fmt.Fprintf(w, " (k %d, E %d)", t.K, t.E)
		}
		fmt.Fprintln(w)
	}
}

// WriteCounters emits the flop total and the sigma-cache counter comment
// lines for one run's perf delta. A run that looked nothing up in a cache
// — every transmission sweep — prints no sigma-cache line.
func WriteCounters(w io.Writer, d perf.Snapshot) {
	fmt.Fprintf(w, "# flops\t%d\n", d.Flops)
	writeSigmaCache(w, d.Counters)
}

// writeSigmaCache emits the self-energy cache counters as a comment
// line alongside the flop count.
func writeSigmaCache(w io.Writer, counters map[string]int64) {
	if counters["sigma-hits"] == 0 && counters["sigma-misses"] == 0 {
		return
	}
	fmt.Fprintf(w, "# sigma-cache\thits=%d misses=%d coalesced=%d decimations=%d\n",
		counters["sigma-hits"], counters["sigma-misses"], counters["sigma-coalesced"],
		counters["sigma-decimations"])
}

// WriteSweep renders the complete text report of a finished transmission
// sweep: accounting comments, any extra comment lines (the coordinator's
// `# cluster` line rides here), the perf counters, and the T(E) table.
func WriteSweep(w io.Writer, sweep *TransmissionSweep, d perf.Snapshot, extra ...string) {
	WriteSweepComments(w, sweep.Report)
	for _, line := range extra {
		fmt.Fprintln(w, line)
	}
	WriteCounters(w, d)
	fmt.Fprintln(w, "# E(eV)\tT(E)")
	for i, e := range sweep.Energies {
		fmt.Fprintf(w, "%.6f\t%.8g\n", e, sweep.T[i])
	}
}
