package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// These tests keep tier-1 fast: nothing here runs a sweep or starts a
// process.

func TestTopPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{10, 50, false},
		{19, 50, false},
		{20, 50, true},   // 10 beyond the median
		{39, 50, true},   // p75 would leave 9.75
		{40, 75, true},   // 10 beyond p75
		{99, 75, true},   // p90 would leave 9.9
		{100, 90, true},  // 10 beyond p90
		{150, 90, true},  // the issue's ≈150 fresh jobs: p90, 15 beyond; p95 would leave 7.5
		{200, 95, true},  // 10 beyond p95
		{1000, 99, true}, // 10 beyond p99
		{10000, 99.9, true},
	}
	for _, c := range cases {
		p, ok := topPercentile(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("topPercentile(%d) = p%g, %v; want p%g, %v", c.n, p, ok, c.want, c.ok)
		}
		if ok && float64(c.n)*(100-p)/100 < 10-1e-9 {
			t.Errorf("topPercentile(%d) = p%g leaves fewer than 10 samples beyond", c.n, p)
		}
	}
}

func TestPercentileAndQuartiles(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := median(xs); got != 5.5 {
		t.Errorf("median = %g, want 5.5", got)
	}
	if got := percentile(xs, 90); math.Abs(got-9.1) > 1e-12 {
		t.Errorf("p90 = %g, want 9.1", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g; want 2.75, 8.25", q1, q3)
	}
	if got := spreadFrac(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("spreadFrac = %g, want 1", got)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of 3 = %g, %g; want 1, 4", q1, q3)
	}
}

// The host gauge: the factor is the mean of the two bracketing samples
// over nominal, and the kernel's values must stay finite however many
// samples a run takes (a NaN or a denormal would change its speed).
func TestHostGauge(t *testing.T) {
	if f := hostFactor(refNominalS, refNominalS); math.Abs(f-1) > 1e-12 {
		t.Errorf("hostFactor at nominal = %g, want 1", f)
	}
	if f := hostFactor(refNominalS, 2*refNominalS); math.Abs(f-1.5) > 1e-12 {
		t.Errorf("hostFactor(1, 2 nominal) = %g, want 1.5", f)
	}
	for i := 0; i < 3; i++ {
		if d := refSample(); d <= 0 {
			t.Fatalf("refSample = %g s", d)
		}
	}
	for _, s := range refStates {
		for _, v := range [][]float64{s.x, s.y, s.z} {
			if lo, hi := minMax(v); lo < 0 || hi > 6 || math.IsNaN(lo+hi) {
				t.Errorf("triad array left its range: [%g, %g]", lo, hi)
			}
		}
		for _, c := range s.c {
			if math.IsNaN(real(c)+imag(c)) || math.IsInf(real(c)+imag(c), 0) {
				t.Fatalf("multiply result not finite: %v", c)
			}
		}
	}
}

// units generates a fixed mix of every stream of a workload.
func unitsOf(wl string, seed uint64) []unitSpec {
	g := newGenerator(wl, seed)
	var us []unitSpec
	for _, st := range streamsOf(wl) {
		n := 300
		if st != streamTimed {
			n = setupReps * serviceArchivePerRep
		}
		for i := 0; i < n; i++ {
			us = append(us, g.next(st))
		}
	}
	return us
}

func TestUnitGenerationDeterministic(t *testing.T) {
	for _, wl := range workloadNames {
		a, b := unitsOf(wl, 7), unitsOf(wl, 7)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: the same seed generated different units", wl)
		}
		if reflect.DeepEqual(a, unitsOf(wl, 8)) {
			t.Errorf("%s: seeds 7 and 8 generated the same units", wl)
		}
		// Distinct inputs; that they are distinct SpecHashes too is checked
		// under the layertrace tag, where spec.Parse is in reach.
		seen := make(map[string]int)
		for i, u := range a {
			body := string(u.specJSON())
			if j, dup := seen[body]; dup {
				t.Fatalf("%s: units %d and %d are the same spec", wl, j, i)
			}
			seen[body] = i
		}
	}
}

func TestRejectedOffsetsAreNeverDrawn(t *testing.T) {
	if poolStep*poolSize > int64(deltaMax*1e9) || poolStep < 1 {
		t.Fatalf("pool of %d offsets at %d nano-units does not fit [0, %g)", poolSize, poolStep, deltaMax)
	}
	for wl, byStream := range rejectedOffsets {
		if !slices.Contains(workloadNames, wl) {
			t.Errorf("rejectedOffsets names unknown workload %q", wl)
		}
		for st, ks := range byStream {
			g := newGenerator(wl, 3)
			if want := poolSize - len(ks); len(g.order[st]) != want {
				t.Errorf("%s stream %d: %d admissible offsets, want %d", wl, st, len(g.order[st]), want)
			}
			for _, k := range ks {
				if k < 0 || k >= poolSize {
					t.Errorf("%s stream %d: rejected offset %d is outside the pool", wl, st, k)
				}
				if slices.Contains(g.order[st], k) {
					t.Errorf("%s stream %d: rejected offset %d can still be drawn", wl, st, k)
				}
			}
		}
	}
}

func TestOutputChecks(t *testing.T) {
	good := "# cluster: 2 workers, 0 leases re-dispatched\n# flops\t123\n# sigma-cache\thits=1 misses=4 coalesced=1 evictions=0\n# E(eV)\tT(E)\n-1.000000\t2.5\n0.000000\t3\n"
	o, err := checkSweep([]byte(good), 2)
	if err != nil || o.flops != 123 || o.sigmaTotal != 6 || o.rows != 2 {
		t.Fatalf("checkSweep(good) = %+v, %v", o, err)
	}
	for name, bad := range map[string]string{
		"short":      "# flops\t123\n-1.0\t2.5\n",
		"NaN":        "# flops\t123\n-1.0\tNaN\n0.0\t3\n",
		"Inf":        "# flops\t123\n-1.0\t+Inf\n0.0\t3\n",
		"no flops":   "-1.0\t2.5\n0.0\t3\n",
		"zero flops": "# flops\t0\n-1.0\t2.5\n0.0\t3\n",
		"malformed":  "# flops\t123\n-1.0 2.5\n0.0\t3\n",
	} {
		if _, err := checkSweep([]byte(bad), 2); err == nil {
			t.Errorf("checkSweep accepted %s output", name)
		}
	}

	iv := "# flops\t99\n# sigma-cache\thits=10 misses=4 coalesced=2 evictions=0\n# Vg(V)\tId(A)\titers\tconverged\n-0.4000\t1.0e-07\t10\ttrue\n0.2000\t1.7e-06\t13\ttrue\n"
	if o, err := checkIV([]byte(iv), 2); err != nil || o.sigmaTotal != 16 {
		t.Fatalf("checkIV(good) = %+v, %v", o, err)
	}
	if _, err := checkIV([]byte(strings.Replace(iv, "13\ttrue", "60\tfalse", 1)), 2); err == nil {
		t.Error("checkIV accepted an unconverged bias point")
	}
	if _, err := checkIV([]byte(iv), 3); err == nil {
		t.Error("checkIV accepted a short gate sweep")
	}

	serial := "# flops\t123\n# E(eV)\tT(E)\n-1.000000\t2.5\n0.000000\t3\n"
	if err := diffObservables([]byte(good), []byte(serial)); err != nil {
		t.Errorf("outputs differing only in path comments: %v", err)
	}
	if err := diffObservables([]byte(good), []byte(strings.Replace(serial, "2.5", "2.5000001", 1))); err == nil {
		t.Error("diffObservables missed a changed transmission value")
	}
	if err := diffObservables([]byte(good), []byte(strings.Replace(serial, "123", "124", 1))); err == nil {
		t.Error("diffObservables missed a changed flop total")
	}
	if !reflect.DeepEqual(observables(observables([]byte(good))), observables([]byte(good))) {
		t.Error("observables is not idempotent")
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "unit_wall_p50_s", Unit: "s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "points_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	tight := func(c float64) []float64 { return []float64{c * 0.99, c, c * 1.01, c * 0.995, c * 1.005} }
	wide := func(c float64) []float64 { return []float64{c * 0.8, c, c * 1.2, c * 0.85, c * 1.15} }
	cases := []struct {
		name string
		d    metricDef
		a, b []float64
		want verdict
	}{
		{"same", lower, tight(1), tight(1.02), verdictOK},
		{"slower beyond the bound", lower, tight(1), tight(1.2), verdictRegressed},
		{"faster", lower, tight(1), tight(0.7), verdictOK},
		{"throughput down beyond the bound", higher, tight(100), tight(80), verdictRegressed},
		{"throughput up", higher, tight(100), tight(130), verdictOK},
		{"noisy, overlapping", lower, wide(1), wide(1.05), verdictUnresolved},
		{"noisy, but every run better", lower, wide(1), wide(0.5), verdictOK},
	}
	for _, c := range cases {
		if got := judge(c.d, c.a, c.b); got.Verdict != c.want {
			t.Errorf("%s: verdict %s (worse by %.3f, spread %.3f), want %s",
				c.name, got.Verdict, got.WorseBy, got.Spread, c.want)
		}
	}
}

func TestPairWins(t *testing.T) {
	lower := metricDef{Name: "unit_wall_p50_s", Better: "lower"}
	higher := metricDef{Name: "points_per_s", Better: "higher"}
	a, seedsA := []float64{1.0, 1.3, 1.1, 1.2}, []uint64{1, 2, 3, 4}
	// Seed 3 was not run by the change and seed 9 not by the parent;
	// seed 4 ties.
	b, seedsB := []float64{1.2, 0.9, 1.4, 0.5}, []uint64{4, 1, 2, 9}
	if w, l := pairWins(lower, a, seedsA, b, seedsB); w != 1 || l != 1 {
		t.Errorf("lower is better: won %d lost %d, want 1 and 1", w, l)
	}
	if w, l := pairWins(higher, a, seedsA, b, seedsB); w != 1 || l != 1 {
		t.Errorf("higher is better: won %d lost %d, want 1 and 1", w, l)
	}
}

// benchmarkJSON is the driver's contract file.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestBenchmarkJSONMatchesRunner(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := top[k]; !ok {
			t.Errorf("BENCHMARK.json lacks key %q", k)
		}
	}
	if len(top) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want exactly 6", len(top))
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bj.Command, []string{"go", "-C", "bench", "run", "repro/bench"}) || !reflect.DeepEqual(bj.Paths, []string{"bench"}) {
		t.Errorf("command %v, paths %v", bj.Command, bj.Paths)
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the runner's default is %d", bj.RunSeconds, defaultSeconds)
	}

	seen := make(map[string]bool)
	uniq := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	var wl []string
	for _, w := range bj.Workloads {
		uniq(w.Name)
		wl = append(wl, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters (%d)", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(wl, workloadNames) {
		t.Errorf("workloads %v, the runner has %v", wl, workloadNames)
	}

	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end_to_end metrics, the runner emits %d", len(bj.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range bj.EndToEnd {
		uniq(m.Name)
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, the runner has %+v", i, m, d)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for _, d := range serviceOnly {
		uniq(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}

	if len(bj.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per_layer metrics, the runner emits %d (limit 128)", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		uniq(m.Name)
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, the runner has %+v", i, m, d)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
	}
}

// TestEveryEmittedMetricIsCatalogued scans the runner's own source for
// the metric names it sets and requires each to be in the catalogue —
// the other direction of the test above. (That a traced report carries
// every per-layer name is TestTracedReportStartsComplete, under the
// layertrace tag.)
func TestEveryEmittedMetricIsCatalogued(t *testing.T) {
	known := make(map[string]bool)
	for _, defs := range [][]metricDef{endToEnd, serviceOnly, perLayer} {
		for _, d := range defs {
			known[d.Name] = true
		}
	}
	setRE := regexp.MustCompile(`(?:\.set\(|Extra\[|describe\()"([A-Za-z0-9_.-]+)"`)
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	emitted := make(map[string]bool)
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range setRE.FindAllStringSubmatch(string(src), -1) {
			emitted[m[1]] = true
			if !known[m[1]] {
				t.Errorf("%s sets metric %q, which is not in the catalogue", f, m[1])
			}
		}
	}
	for _, defs := range [][]metricDef{endToEnd, serviceOnly} {
		for _, d := range defs {
			if !emitted[d.Name] {
				t.Errorf("no runner code sets end-to-end metric %q", d.Name)
			}
		}
	}
	e2e := newReport(wlWire, 1, 1, false)
	if miss := e2e.missing(); len(miss) != len(endToEnd) {
		t.Errorf("an empty end-to-end report should miss all %d metrics, misses %v", len(endToEnd), miss)
	}
}

// A failed unit or a metric that was not measured makes the driver's
// line say correct:false, which is what makes the command exit non-zero.
func TestFailedUnitFailsTheCommand(t *testing.T) {
	rep := newReport(wlWire, 1, 1, false)
	for _, d := range endToEnd {
		rep.set(d.Name, 1, d.Unit)
	}
	rep.Attempted = 3
	if !emitContract(rep) {
		t.Error("a clean, complete report was judged incorrect")
	}
	rep.fail("unit 2: %v", "3 rows, want 4")
	if emitContract(rep) {
		t.Error("a report with a failed unit was judged correct")
	}
	incomplete := newReport(wlWire, 1, 1, false)
	incomplete.Attempted = 1
	if emitContract(incomplete) {
		t.Error("a report without its metrics was judged correct")
	}
}
