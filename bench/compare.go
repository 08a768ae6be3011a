package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
)

// The ledger is what -out writes and -compare reads: the machine the
// runs were taken on and every run appended to the file so far.

type ledgerMeta struct {
	NProc  int    `json:"nproc"`
	Go     string `json:"go"`
	Commit string `json:"commit"`
}

type ledger struct {
	Meta ledgerMeta   `json:"meta"`
	Runs []*runReport `json:"runs"`
}

func readLedger(path string) (*ledger, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l ledger
	if err := json.Unmarshal(b, &l); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &l, nil
}

func appendLedger(path string, meta ledgerMeta, rep *runReport) error {
	l, err := readLedger(path)
	if errors.Is(err, fs.ErrNotExist) {
		l, err = &ledger{}, nil
	}
	if err != nil {
		return err
	}
	l.Meta = meta
	l.Runs = append(l.Runs, rep)
	return l.write(path)
}

func (l *ledger) write(path string) error {
	b, err := json.MarshalIndent(l, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// samples collects the values of one end-to-end metric over the
// tracing-off runs of one workload, and the seed of each.
func (l *ledger) samples(wl, name string) (xs []float64, seeds []uint64) {
	for _, r := range l.Runs {
		if r.Workload != wl || r.Trace {
			continue
		}
		m, ok := r.Metrics[name]
		if !ok {
			m, ok = r.Extra[name]
		}
		if ok {
			xs = append(xs, m.Value)
			seeds = append(seeds, r.Seed)
		}
	}
	return xs, seeds
}

// pairWins counts, over the seeds both sides ran, the pairs the change
// (b) won and lost; ties count for neither. Pairs taken back to back see
// the same host, which sets of runs minutes apart do not: this is what
// resolves an effect smaller than the bound.
func pairWins(d metricDef, a []float64, seedsA []uint64, b []float64, seedsB []uint64) (wins, losses int) {
	bySeed := make(map[uint64]float64, len(b))
	for i, s := range seedsB {
		bySeed[s] = b[i]
	}
	for i, s := range seedsA {
		y, ok := bySeed[s]
		if !ok {
			continue
		}
		switch w := worseBy(d, a[i], y); {
		case w < 0:
			wins++
		case w > 0:
			losses++
		}
	}
	return wins, losses
}

type verdict string

const (
	verdictOK         verdict = "ok"
	verdictRegressed  verdict = "regressed"
	verdictUnresolved verdict = "unresolved"
)

// comparison is one workload × metric row of -compare.
type comparison struct {
	Workload string
	Metric   metricDef
	A, B     []float64
	MedA     float64
	MedB     float64
	WorseBy  float64 // share of A's median by which B's median is worse (negative: better)
	Spread   float64 // the wider of the two sides' inter-quartile spreads, as a share of the median
	Verdict  verdict
	Wins     int // same-seed pairs the change won
	Losses   int // and lost
}

// worseBy is the share of a by which b is worse, in the metric's own
// direction.
func worseBy(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// judge applies the protocol of the choosing-metrics guide to one row:
// a change whose every run reads better than every run of the parent is
// ok whatever the spread; otherwise a spread wider than the bound makes
// the row unresolved, not unchanged; otherwise the medians decide.
func judge(d metricDef, a, b []float64) comparison {
	c := comparison{Metric: d, A: a, B: b, MedA: median(a), MedB: median(b)}
	c.WorseBy = worseBy(d, c.MedA, c.MedB)
	c.Spread = max(spreadFrac(a), spreadFrac(b))
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if worseBy(d, x, y) >= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case allBetter:
		c.Verdict = verdictOK
	case c.Spread > d.Bound && !d.SpreadExempt:
		c.Verdict = verdictUnresolved
	case c.WorseBy > d.Bound:
		c.Verdict = verdictRegressed
	default:
		c.Verdict = verdictOK
	}
	return c
}

// compareLedgers judges every workload × end-to-end metric both ledgers
// hold.
func compareLedgers(a, b *ledger) []comparison {
	var rows []comparison
	for _, wl := range workloadNames {
		defs := endToEnd
		if wl == wlService {
			defs = append(append([]metricDef(nil), endToEnd...), serviceOnly...)
		}
		for _, d := range defs {
			xa, seedsA := a.samples(wl, d.Name)
			xb, seedsB := b.samples(wl, d.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			c := judge(d, xa, xb)
			c.Workload = wl
			c.Wins, c.Losses = pairWins(d, xa, seedsA, xb, seedsB)
			rows = append(rows, c)
		}
	}
	return rows
}

func printComparison(rows []comparison) (bad int) {
	fmt.Printf("%-14s %-24s %5s %12s %12s %9s %8s %7s  %-10s %s\n",
		"workload", "metric", "n", "parent p50", "change p50", "worse by", "spread", "bound", "verdict", "same-seed pairs won:lost")
	for _, c := range rows {
		fmt.Printf("%-14s %-24s %2d/%-2d %12.6g %12.6g %+8.2f%% %7.2f%% %6.0f%%  %-10s %d:%d\n",
			c.Workload, c.Metric.Name, len(c.A), len(c.B), c.MedA, c.MedB,
			100*c.WorseBy, 100*c.Spread, 100*c.Metric.Bound, c.Verdict, c.Wins, c.Losses)
		if c.Verdict != verdictOK {
			bad++
		}
	}
	return bad
}

func compareMain(pathA, pathB string) int {
	a, errA := readLedger(pathA)
	b, errB := readLedger(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("parent: %s (commit %s, %d runs)\nchange: %s (commit %s, %d runs)\n",
		pathA, a.Meta.Commit, len(a.Runs), pathB, b.Meta.Commit, len(b.Runs))
	rows := compareLedgers(a, b)
	if len(rows) == 0 {
		fmt.Fprintln(os.Stderr, "bench: the ledgers share no end-to-end runs")
		return 1
	}
	if printComparison(rows) > 0 {
		return 1
	}
	return 0
}

// selfcheckRuns is the number of runs per workload and set of
// -selfcheck: the ten of the comparison protocol, below which the
// quartile spread the verdicts rest on means little.
const selfcheckRuns = 10

// selfcheckMain measures one tree twice — selfcheckRuns end-to-end runs
// per workload and set, every run on its own seed — and requires every
// workload × metric to land ok: the instrument must agree with itself
// before it is used to judge a change. With -out the two sets are kept
// as <out>.a and <out>.b for -compare.
func (e *env) selfcheckMain(names []string, seed uint64, seconds float64, out string) int {
	var sets [2]ledger
	failed := 0
	for s := range sets {
		sets[s].Meta = e.meta
		for _, wl := range names {
			for r := 0; r < selfcheckRuns; r++ {
				rep := e.runE2E(wl, seed+uint64(s*selfcheckRuns+r), seconds)
				fmt.Printf("selfcheck set %d %s run %d/%d: unit_wall_p50_s %.4g, points_per_s %.5g, failed %d/%d\n",
					s+1, wl, r+1, selfcheckRuns, rep.Metrics["unit_wall_p50_s"].Value, rep.Metrics["points_per_s"].Value,
					rep.Failed, rep.Attempted)
				for _, f := range rep.Failures {
					fmt.Println("  FAILED:", f)
				}
				failed += rep.Failed
				sets[s].Runs = append(sets[s].Runs, rep)
			}
		}
		if out != "" {
			if err := sets[s].write(fmt.Sprintf("%s.%c", out, 'a'+s)); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
		}
	}
	bad := printComparison(compareLedgers(&sets[0], &sets[1]))
	if bad > 0 || failed > 0 {
		fmt.Printf("selfcheck: %d rows not ok, %d failed units\n", bad, failed)
		return 1
	}
	fmt.Println("selfcheck: every workload × metric landed ok")
	return 0
}
