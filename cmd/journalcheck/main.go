// Command journalcheck audits a sweep checkpoint journal after a
// failover drill: with epoch fencing working, a sweep that survived a
// coordinator crash (or a graceful drain plus resume) ends with exactly
// one digest-valid record per task — no holes (a task nobody finished)
// and no duplicates (a stale-epoch result the fence should have
// discarded). It is the machine check behind `make drill-failover`'s
// "exactly once" guarantee.
//
// Usage:
//
//	journalcheck -journal sweep.journal [-total 192] [-min-epoch 2]
//
// The task count is the sweep shape of the spec embedded in the journal's
// header; -total overrides it, and is required for a journal without
// one. Exits 0 and prints a one-line summary when the journal holds
// exactly that many records, one per task index in [0, total); exits 1
// with a description of every violation class otherwise, 2 when the task
// count cannot be determined. -min-epoch
// additionally requires the journal's latest recorded coordinator
// incarnation to be at least that value — proof a restart actually
// happened during the drill.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/buildinfo"
	"repro/internal/cluster"
	"repro/internal/spec"
)

func main() {
	var (
		path     = flag.String("journal", "", "journal file to audit")
		total    = flag.Int("total", 0, "expected task count: the journal must hold exactly one record per index in [0, total) (0: take it from the spec in the journal's header)")
		minEpoch = flag.Uint64("min-epoch", 0, "require the journal's latest epoch to be at least this (0: don't check)")
		version  = flag.Bool("version", false, "print the build version (module version plus VCS revision) and exit")
	)
	flag.Parse()
	if *version {
		fmt.Printf("journalcheck %s\n", buildinfo.Version())
		return
	}
	if *path == "" || *total < 0 {
		fmt.Fprintln(os.Stderr, "journalcheck: -journal is required, and -total must not be negative")
		os.Exit(2)
	}
	os.Exit(audit(*path, *total, *minEpoch, os.Stdout, os.Stderr))
}

// audit checks the journal at path in one read-only pass — the auditor
// must not edit the evidence, so it never opens the file for writing (a
// torn tail stays torn) — and returns the exit status.
func audit(path string, total int, minEpoch uint64, stdout, stderr io.Writer) int {
	// A missing file is an empty journal to ReadJournal; to an audit it
	// is an error.
	var c cluster.Contents
	_, err := os.Stat(path)
	if err == nil {
		c, err = cluster.ReadJournal(path)
	}
	if err != nil {
		fmt.Fprintf(stderr, "journalcheck: %v\n", err)
		return 1
	}
	if total == 0 {
		if total, err = specTotal(c.Header); err != nil {
			fmt.Fprintf(stderr, "journalcheck: %v; pass -total\n", err)
			return 2
		}
	}
	counts := make([]int, total)
	bad := 0
	var outOfRange []int
	for _, rec := range c.Records {
		if rec.Index < 0 || rec.Index >= total {
			outOfRange = append(outOfRange, rec.Index)
			continue
		}
		counts[rec.Index]++
	}
	var missing, dup []int
	for i, n := range counts {
		switch {
		case n == 0:
			missing = append(missing, i)
		case n > 1:
			dup = append(dup, i)
		}
	}
	if len(outOfRange) > 0 {
		bad++
		fmt.Fprintf(stderr, "journalcheck: %d records outside [0,%d): %v\n",
			len(outOfRange), total, clip(outOfRange))
	}
	if len(missing) > 0 {
		bad++
		fmt.Fprintf(stderr, "journalcheck: %d tasks have no record: %v\n",
			len(missing), clip(missing))
	}
	if len(dup) > 0 {
		bad++
		fmt.Fprintf(stderr, "journalcheck: %d tasks recorded more than once (epoch fence breach): %v\n",
			len(dup), clip(dup))
	}
	if minEpoch > 0 && c.Epoch < minEpoch {
		bad++
		fmt.Fprintf(stderr, "journalcheck: latest epoch %d < required %d — no coordinator restart recorded\n",
			c.Epoch, minEpoch)
	}
	if bad > 0 {
		return 1
	}
	fmt.Fprintf(stdout, "journalcheck: OK — %d records, exactly one per task, latest epoch %d\n",
		len(c.Records), c.Epoch)
	return 0
}

// specTotal returns the task count of the sweep that wrote the journal,
// from the spec its header embeds.
func specTotal(h *cluster.Header) (int, error) {
	if h == nil || len(h.Spec) == 0 {
		return 0, errors.New("the journal's header carries no spec to take the task count from")
	}
	s, err := spec.Parse(h.Spec)
	if err == nil {
		err = s.Validate()
	}
	if err != nil {
		return 0, fmt.Errorf("the spec in the journal's header is unusable: %w", err)
	}
	nBias, nK, nE := s.Dims()
	return nBias * nK * nE, nil
}

// clip bounds a violation list so a badly broken journal stays readable.
func clip(idx []int) []int {
	if len(idx) > 10 {
		return idx[:10]
	}
	return idx
}
