// Command bench is the repository's performance ledger: four workloads
// driven end to end through the real binaries (omen, omend), and a
// traced in-process rerun of each that splits the time by layer.
//
// It is a module of its own (go.mod beside this file), so it is run
// from this directory:
//
//	go run . -seed 1                       # all four workloads, end to end
//	go run . -seed 1 -workload fet_iv      # one workload
//	go run . -seed 1 -trace 1 -out l.json  # per-layer traced run, ledger + Chrome traces
//	go run . -compare a.json b.json        # deltas against the bounds
//	go run . -selfcheck                    # two sets of runs of one tree must agree
//
// The default build is the end-to-end runner alone and imports nothing
// from the parent module repro. The traced run, which does (through
// layers.go), is the same package built with -tags layertrace; the
// default build compiles that binary and hands -trace 1 over to it, so a
// refactor that breaks a signature layers.go pins costs the per-layer
// numbers and never the end-to-end ones.
//
// The driver's form, from the repository root, is
//
//	go -C bench run repro/bench --workload W --seed N --seconds S --trace 0|1
//
// and the last line of standard output is then one JSON object with the
// keys correct, attempted, failed and metrics. README.md has the metric
// glossary and the comparison protocol.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

// env is where a run lives: the repository root, the binaries built
// from it, and one scratch directory for everything a run leaves behind
// (journals, the omend data directory, traces).
type env struct {
	baseDir      string // .bench_build of the checkout: binaries, scratch, traces
	runDir       string
	omen         string
	omend        string
	journalcheck string
	buildSeconds float64
	meta         ledgerMeta
}

// findRoot walks up from the working directory to the go.mod of module
// repro, the tree being measured (the benchmark's own go.mod, module
// repro/bench, is on the way and is not it).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			first, _, _ := strings.Cut(strings.TrimSpace(string(b)), "\n")
			if f := strings.Fields(first); len(f) == 2 && f[0] == "module" && f[1] == "repro" {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the repro module (no go.mod found)")
		}
		dir = parent
	}
}

// prepare builds the binaries under .bench_build/bin of the checkout
// (the go build cache makes every build after the first a no-op) and
// creates the run's scratch directory beside them, so nothing is
// written outside the checkout.
func prepare() (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	base := filepath.Join(root, ".bench_build")
	bin := filepath.Join(base, "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return nil, err
	}
	e := &env{
		baseDir:      base,
		omen:         filepath.Join(bin, "omen"),
		omend:        filepath.Join(bin, "omend"),
		journalcheck: filepath.Join(bin, "journalcheck"),
	}
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", bin+string(filepath.Separator),
		"./cmd/omen", "./cmd/omend", "./cmd/journalcheck")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build: %w\n%s", err, out)
	}
	e.buildSeconds = time.Since(t0).Seconds()
	if e.runDir, err = os.MkdirTemp(base, "run-"); err != nil {
		return nil, err
	}
	e.meta = ledgerMeta{NProc: runtime.NumCPU(), Go: runtime.Version(), Commit: commitOf(root)}
	return e, nil
}

// commitOf names the tree being measured; a checkout that is not a git
// repository (the driver's) says so.
func commitOf(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func (e *env) cleanup() {
	killAllGroups()
	os.RemoveAll(e.runDir)
}

// contractLine is the object the driver reads from the last line of
// standard output.
type contractLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// layerTraceTag is the build tag of the files that import repro/internal
// (layers.go and the traced run built on it).
const layerTraceTag = "layertrace"

// runTraced is the per-layer traced run of one workload. It is nil in
// the default build and set by traced.go under layerTraceTag.
var runTraced func(e *env, wl string, seed uint64, seconds float64, traceDir string) *runReport

// delegateTraced builds this package with layerTraceTag beside the other
// binaries and runs it with the same arguments, output and exit code.
func delegateTraced(args []string) int {
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	bin := filepath.Join(root, ".bench_build", "bin", "bench-"+layerTraceTag)
	build := exec.Command("go", "build", "-tags", layerTraceTag, "-o", bin, ".")
	build.Dir = filepath.Join(root, "bench")
	if out, err := build.CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "bench: go build -tags %s: %v\n%s", layerTraceTag, err, out)
		return 1
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	if err := startGroup(cmd); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer reapGroup(cmd.Process.Pid)
	// Its children are in process groups of their own, which it kills
	// itself when signalled: pass the signal on rather than kill it.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() { _ = cmd.Process.Signal(<-sig) }()
	if err := cmd.Wait(); err != nil {
		var exit *exec.ExitError
		if errors.As(err, &exit) && exit.ExitCode() > 0 {
			return exit.ExitCode()
		}
		fmt.Fprintln(os.Stderr, "bench: traced run:", err)
		return 1
	}
	return 0
}

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		workload  = flag.String("workload", "", "one of "+strings.Join(workloadNames, ", ")+" (default: all four in turn)")
		seed      = flag.Uint64("seed", 1, "workload seed: the same seed generates the same units")
		seconds   = flag.Float64("seconds", defaultSeconds, "length of the timed window of an end-to-end run")
		traceFlag = flag.String("trace", "0", "1: the per-layer traced in-process run; 0: the end-to-end run (tracing off)")
		out       = flag.String("out", "", "append the run(s) to this JSON ledger; traced runs also write Chrome trace files beside it")
		compare   = flag.Bool("compare", false, "compare two ledgers: bench -compare parent.json change.json")
		selfcheck = flag.Bool("selfcheck", false, fmt.Sprintf("run every workload %d times, twice, and require the two sets to agree within the bounds", selfcheckRuns))
		validate  = flag.Bool("validate-pool", false, "run every unit the generator can produce once and print the offsets to reject (see workloads.go)")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two ledger files")
			return 2
		}
		return compareMain(flag.Arg(0), flag.Arg(1))
	}
	traced, err := strconv.ParseBool(*traceFlag)
	if err != nil || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "bench: -trace takes 0 or 1, and there are no positional arguments")
		return 2
	}
	names := workloadNames
	if *workload != "" {
		if !slices.Contains(workloadNames, *workload) {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", *workload, strings.Join(workloadNames, ", "))
			return 2
		}
		names = []string{*workload}
	}
	if *seconds < 1 || *seconds > 60 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be within [1, 60]")
		return 2
	}
	if runtime.NumCPU() < 2 {
		fmt.Fprintln(os.Stderr, "bench: the workloads are sized for at least 2 CPUs (two clients, two solving processes); refusing to measure on 1")
		return 2
	}

	if traced && runTraced == nil {
		return delegateTraced(os.Args[1:])
	}

	e, err := prepare()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer e.cleanup()
	// A signal must not leave process groups or the scratch directory
	// behind.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		e.cleanup()
		os.Exit(130)
	}()

	fmt.Printf("bench: nproc %d, %s, commit %s, go build %.2f s\n",
		e.meta.NProc, e.meta.Go, e.meta.Commit, e.buildSeconds)

	if *validate {
		return e.validatePool(names)
	}
	if *selfcheck {
		return e.selfcheckMain(names, *seed, *seconds, *out)
	}

	status := 0
	for _, wl := range names {
		var rep *runReport
		if traced {
			rep = runTraced(e, wl, *seed, *seconds, e.traceDir(*out))
		} else {
			rep = e.runE2E(wl, *seed, *seconds)
		}
		printReport(rep)
		if *out != "" {
			if err := appendLedger(*out, e.meta, rep); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				status = 1
			}
		}
		if !emitContract(rep) {
			status = 1
		}
	}
	return status
}

// traceDir is where a traced run leaves its Chrome trace files: beside
// the ledger when -out is given, else in .bench_build.
func (e *env) traceDir(out string) string {
	if out == "" {
		return e.baseDir
	}
	return filepath.Dir(out)
}

// missing reports which catalogue metrics a report lacks.
func (r *runReport) missing() []string {
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	var miss []string
	for _, d := range defs {
		if _, ok := r.Metrics[d.Name]; !ok {
			miss = append(miss, d.Name)
		}
	}
	return miss
}

// emitContract prints the driver's line and reports whether the run was
// correct: no failed unit, no failed check, every metric present.
func emitContract(rep *runReport) bool {
	miss := rep.missing()
	line := contractLine{
		Correct:   rep.Failed == 0 && len(miss) == 0,
		Attempted: max(rep.Attempted, 1),
		Failed:    rep.Failed,
		Metrics:   rep.Metrics,
	}
	if len(miss) > 0 {
		fmt.Fprintf(os.Stderr, "bench: %s: metrics not measured: %s\n", rep.Workload, strings.Join(miss, ", "))
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return false
	}
	fmt.Println(string(b))
	return line.Correct
}

// printReport is the human-readable form: every metric by name with its
// unit, sample counts and ranges where they exist, then failures.
func printReport(rep *runReport) {
	kind := "end-to-end (tracing off)"
	if rep.Trace {
		kind = "traced, in-process"
	}
	fmt.Printf("\n== %s  seed %d  %s\n", rep.Workload, rep.Seed, kind)
	det := map[string]detail{}
	for _, d := range rep.Details {
		det[d.Name] = d
	}
	printSet := func(ms map[string]metric) {
		names := make([]string, 0, len(ms))
		for n := range ms {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			m := ms[n]
			line := fmt.Sprintf("  %-38s %14.6g %-8s", n, m.Value, m.Unit)
			if d, ok := det[n]; ok {
				if d.N > 0 {
					line += fmt.Sprintf(" n=%d min=%.4g max=%.4g", d.N, d.Min, d.Max)
				}
				if d.Note != "" {
					line += "  (" + d.Note + ")"
				}
			}
			fmt.Println(line)
		}
	}
	printSet(rep.Metrics)
	if len(rep.Extra) > 0 {
		fmt.Println("  -- service_mix only (ledger and -compare; not in the driver's line)")
		printSet(rep.Extra)
	}
	failedFrac := 0.0
	if rep.Attempted > 0 {
		failedFrac = float64(rep.Failed) / float64(rep.Attempted)
	}
	fmt.Printf("  %-38s %14.6g %-8s attempted=%d failed=%d\n", "failed_frac", failedFrac, "ratio", rep.Attempted, rep.Failed)
	for _, n := range rep.Notes {
		fmt.Println("  note:", n)
	}
	for _, f := range rep.Failures {
		fmt.Println("  FAILED:", f)
	}
}
