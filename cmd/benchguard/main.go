// Command benchguard turns `go test -bench -benchmem` output into a
// committed performance baseline and gates regressions against it. It
// reads benchmark output on stdin in both modes:
//
//	go test -bench 'BenchmarkT2' -benchmem . | benchguard -write BENCH_kernels.json
//	go test -bench 'BenchmarkT2' -benchmem . | benchguard -check BENCH_kernels.json
//
// The check compares allocs/op — a deterministic property of the code,
// unlike wall time on shared CI machines — and fails (exit 1) when any
// benchmark regresses by more than -tolerance relative to the baseline,
// or when a baselined benchmark is missing from the input. Benchmarks
// that report a "bytes/task" custom metric (the distributed wire economy)
// are gated upward like allocs/op: the wire may not quietly bloat past
// the committed bytes-per-task. ns/op and B/op are recorded in the
// baseline for reference but not gated.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/buildinfo"
)

// result holds the parsed metrics of one benchmark.
type result struct {
	NsOp     float64 `json:"ns_op"`
	BytesOp  float64 `json:"b_op"`
	AllocsOp float64 `json:"allocs_op"`
	// BytesPerTask is the benchmark's "bytes/task" custom metric (0 when
	// the benchmark does not report one). Gated as an upper bound, like
	// allocs/op: wire traffic is deterministic, so growth is a regression.
	BytesPerTask float64 `json:"bytes_per_task,omitempty"`
}

// baseline is the committed JSON document.
type baseline struct {
	Benchmarks map[string]result `json:"benchmarks"`
}

func main() {
	var (
		write     = flag.String("write", "", "write a new baseline JSON to this file")
		check     = flag.String("check", "", "check stdin against this baseline JSON")
		tolerance = flag.Float64("tolerance", 0.10, "allowed fractional allocs/op increase before failing")
		version   = flag.Bool("version", false, "print the build version (module version plus VCS revision) and exit")
	)
	flag.Parse()
	if *version {
		fmt.Printf("benchguard %s\n", buildinfo.Version())
		return
	}
	if (*write == "") == (*check == "") {
		fmt.Fprintln(os.Stderr, "benchguard: exactly one of -write or -check is required")
		os.Exit(2)
	}

	got, err := parseBenchOutput(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(2)
	}
	if len(got) == 0 {
		fmt.Fprintln(os.Stderr, "benchguard: no benchmark lines on stdin")
		os.Exit(2)
	}

	if *write != "" {
		out, err := json.MarshalIndent(baseline{Benchmarks: got}, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchguard:", err)
			os.Exit(2)
		}
		if err := os.WriteFile(*write, append(out, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchguard:", err)
			os.Exit(2)
		}
		fmt.Printf("benchguard: wrote %d benchmarks to %s\n", len(got), *write)
		return
	}

	raw, err := os.ReadFile(*check)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(2)
	}
	var base baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: %s: %v\n", *check, err)
		os.Exit(2)
	}

	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	failed := false
	for _, name := range names {
		want := base.Benchmarks[name]
		have, ok := got[name]
		if !ok {
			fmt.Printf("FAIL\t%s: baselined benchmark missing from input\n", name)
			failed = true
			continue
		}
		limit := want.AllocsOp * (1 + *tolerance)
		status := "ok"
		if have.AllocsOp > limit {
			status = "FAIL"
			failed = true
		}
		fmt.Printf("%s\t%s: allocs/op %.0f vs baseline %.0f (limit %.0f)\n",
			status, name, have.AllocsOp, want.AllocsOp, limit)
		if want.BytesPerTask > 0 {
			ceil := want.BytesPerTask * (1 + *tolerance)
			status := "ok"
			if have.BytesPerTask > ceil {
				status = "FAIL"
				failed = true
			}
			fmt.Printf("%s\t%s: bytes/task %.1f vs baseline %.1f (ceiling %.1f)\n",
				status, name, have.BytesPerTask, want.BytesPerTask, ceil)
		}
	}
	if failed {
		os.Exit(1)
	}
}

// parseBenchOutput extracts per-benchmark metrics from `go test -bench`
// output. Benchmark names have their -GOMAXPROCS suffix stripped so
// baselines are portable across machines with different core counts.
func parseBenchOutput(f *os.File) (map[string]result, error) {
	out := make(map[string]result)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		var r result
		for i := 2; i+1 < len(fields); i++ {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				r.NsOp = v
			case "B/op":
				r.BytesOp = v
			case "allocs/op":
				r.AllocsOp = v
			case "bytes/task":
				r.BytesPerTask = v
			}
		}
		out[name] = r
	}
	return out, sc.Err()
}
