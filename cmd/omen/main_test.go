package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/spec"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this build's output")

// runMainEnv makes the test binary behave as omen itself, so the CLI-level
// tests below see real exit codes and real stderr.
const runMainEnv = "OMEN_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// omen runs the command line through main in a child process.
func omen(t *testing.T, args ...string) (exit int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var ee *exec.ExitError
	if err != nil && !errors.As(err, &ee) {
		t.Fatalf("omen %q: %v", args, err)
	}
	return cmd.ProcessState.ExitCode(), out.String(), errb.String()
}

// resolve runs resolveSpec on a fresh, silent flag set.
func resolve(t *testing.T, args ...string) spec.RunSpec {
	t.Helper()
	fs := flag.NewFlagSet("omen", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	s, _, err := resolveSpec(fs, args)
	if err != nil {
		t.Fatalf("resolveSpec(%q): %v", args, err)
	}
	return s
}

// leaves flattens a spec's canonical JSON into path → value.
func leaves(t *testing.T, s spec.RunSpec) map[string]string {
	t.Helper()
	b, err := s.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	var v any
	if err := json.Unmarshal(b, &v); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string)
	var walk func(path string, v any)
	walk = func(path string, v any) {
		if m, ok := v.(map[string]any); ok {
			for k, c := range m {
				walk(path+"/"+k, c)
			}
			return
		}
		out[path] = fmt.Sprint(v)
	}
	walk("", v)
	return out
}

// diff returns the paths whose values differ between two flattened specs.
func diff(a, b map[string]string) []string {
	var out []string
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			out = append(out, k)
		}
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// twoValues returns two distinct non-default settings of a flag: one for
// a -spec-json base and one for the command line.
func twoValues(t *testing.T, f *flag.Flag) (base, line string) {
	t.Helper()
	switch d := f.Value.(flag.Getter).Get().(type) {
	case string:
		return "base-" + f.Name, "line-" + f.Name
	case bool:
		return fmt.Sprint(!d), fmt.Sprint(!d)
	case int:
		return fmt.Sprint(d + 1), fmt.Sprint(d + 2)
	case uint64:
		return fmt.Sprint(d + 1), fmt.Sprint(d + 2)
	case float64:
		return fmt.Sprint(d + 0.5), fmt.Sprint(d + 1.5)
	case time.Duration:
		return (d + time.Second).String(), (d + 2*time.Second).String()
	default:
		t.Fatalf("flag -%s: unhandled value type %T", f.Name, d)
		return "", ""
	}
}

// TestEveryBoundFlagSetsItsField walks the flag table: each spec-backed
// flag, set alone, must move exactly one field of the resolved spec — a
// field no other flag moves — and, set over a -spec-json base whose
// every bound field is non-default, must override that field only.
func TestEveryBoundFlagSetsItsField(t *testing.T) {
	fs := flag.NewFlagSet("omen", flag.ContinueOnError)
	sf := bindSpecFlags(fs)
	if len(sf.apply) != 26 {
		t.Errorf("%d spec-backed flags bound, want 26", len(sf.apply))
	}

	var baseArgs []string
	lineVal := make(map[string]string)
	for name := range sf.apply {
		base, line := twoValues(t, fs.Lookup(name))
		baseArgs = append(baseArgs, "-"+name+"="+base)
		lineVal[name] = line
	}
	baseSpec := resolve(t, baseArgs...)
	baseJSON, err := baseSpec.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	def, base := leaves(t, spec.Default()), leaves(t, baseSpec)
	if n := len(diff(def, base)); n != len(sf.apply) {
		t.Fatalf("setting all %d flags moved %d fields", len(sf.apply), n)
	}

	owner := make(map[string]string) // spec path → the flag that sets it
	for name, val := range lineVal {
		arg := "-" + name + "=" + val
		alone := leaves(t, resolve(t, arg))
		moved := diff(def, alone)
		if len(moved) != 1 {
			t.Errorf("%s over the defaults moved %v, want exactly one field", arg, moved)
			continue
		}
		path := moved[0]
		if other, dup := owner[path]; dup {
			t.Errorf("-%s and -%s both set %s", name, other, path)
		}
		owner[path] = name

		if _, isBool := fs.Lookup(name).Value.(flag.Getter).Get().(bool); isBool {
			// A bool has no third value: the base holds the non-default
			// one, the command line sets the default back.
			arg = "-" + name + "=" + fs.Lookup(name).DefValue
		}
		over := leaves(t, resolve(t, "-spec-json", string(baseJSON), arg))
		if moved := diff(base, over); len(moved) != 1 || moved[0] != path {
			t.Errorf("%s over a -spec-json base moved %v, want only %s", arg, moved, path)
		}
	}
}

// TestRefusedCommandLines: what the command line gets wrong is refused by
// name — never a panic, never a run. A non-finite float parses as a flag
// value but no spec can hold it, an energy-grid flag is one the I-V mode
// would ignore, and a removed flag is an unknown flag: usage errors, exit
// 2. A journal written under the previous hash contract
// is another spec's journal: exit 1, file untouched.
func TestRefusedCommandLines(t *testing.T) {
	old, err := os.ReadFile(filepath.Join("..", "..", "internal", "spec", "testdata", "pr23.journal"))
	if err != nil {
		t.Fatal(err)
	}
	journal := filepath.Join(t.TempDir(), "pr23.journal")
	if err := os.WriteFile(journal, old, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		exit int
		want string // substring of stderr
	}{
		{[]string{"-device", "agnr7", "-ne", "4", "-emin", "NaN"}, 2, "-emin must be finite"},
		{[]string{"-device", "agnr7", "-ne", "4", "-emax", "+Inf"}, 2, "-emax must be finite"},
		{[]string{"-mode", "iv", "-vd", "NaN"}, 2, "-vd must be finite"},
		{[]string{"-device", "agnr7", "-mode", "iv", "-ne", "50"}, 2, "-ne is not applicable to mode \"iv\""},
		{[]string{"-dump-spec", "-fault-rate", "NaN"}, 2, "-fault-rate must be finite"},
		{[]string{"-seed-refine", "0.01"}, 2, "flag provided but not defined: -seed-refine"},
		// The fixture's own command line, resumed: same flags, other hash.
		{[]string{"-device", "agnr7", "-cellsx", "6", "-ne", "4", "-checkpoint", journal, "-resume"}, 1, "written by a different run spec"},
	} {
		exit, stdout, stderr := omen(t, tc.args...)
		if exit != tc.exit || !strings.Contains(stderr, tc.want) || strings.Contains(stderr, "panic:") {
			t.Errorf("omen %q: exit %d, stderr %q; want exit %d naming %q", tc.args, exit, stderr, tc.exit, tc.want)
		}
		if strings.Contains(stdout, "E(eV)") {
			t.Errorf("omen %q printed a sweep:\n%s", tc.args, stdout)
		}
	}
	if after, _ := os.ReadFile(journal); !bytes.Equal(after, old) {
		t.Error("a refused -resume changed the journal")
	}
}

// TestReadmeFlagRowsAreFlags: every `| `-name …` |` row of README.md's
// flag tables names a flag omen registers, so removing a flag without its
// row fails here. (The converse — a row for every flag — is not required.)
func TestReadmeFlagRowsAreFlags(t *testing.T) {
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	fs := flag.NewFlagSet("omen", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	if _, _, err := resolveSpec(fs, nil); err != nil {
		t.Fatal(err)
	}
	rows := regexp.MustCompile("(?m)^\\| `-([a-z-]+)[ `]").FindAllSubmatch(readme, -1)
	if len(rows) < 10 {
		t.Fatalf("found %d flag rows in README.md; the tables moved or the pattern rotted", len(rows))
	}
	for _, row := range rows {
		if name := string(row[1]); fs.Lookup(name) == nil {
			t.Errorf("README.md documents -%s, which omen does not register", name)
		}
	}
}

// TestGoldenObservables holds four tiny runs — one per formalism and
// sweep shape, plus the wave-function sweep on SplitSolve's domain path
// (`sinw_domains`, whose data rows equal `sinw_wf`'s) — to the bytes a
// build of an earlier commit printed: the
// data rows and the `# flops` line, i.e. every observable and the exact
// operation count (the `# sigma-cache` line's hit/coalesced split is
// timing, the `# E(eV)` header is prose). A PR that means to keep the
// numbers commits the goldens unchanged; one that means to move them runs
// `go test ./cmd/omen/ -run TestGoldenObservables -update` and says by how
// much in CHANGES.md.
func TestGoldenObservables(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("goldens were written on amd64; the %s compiler may fuse multiply-adds and move last bits", runtime.GOARCH)
	}
	for name, line := range map[string]string{
		"sinw_wf":       "-device sinw -formalism wf -ne 8",
		"sinw_domains":  "-device sinw -formalism wf -domains 3 -ne 8",
		"agnr7_negf_iv": "-device agnr7 -formalism negf -mode iv -nvg 2 -cellsx 8",
		"utb_nk2":       "-device utb -nk 2 -ne 6",
	} {
		exit, stdout, stderr := omen(t, strings.Fields(line)...)
		if exit != 0 {
			t.Errorf("omen %s: exit %d: %s", line, exit, stderr)
			continue
		}
		var got strings.Builder
		for _, row := range strings.SplitAfter(stdout, "\n") {
			if !strings.HasPrefix(row, "#") || strings.HasPrefix(row, "# flops") {
				got.WriteString(row)
			}
		}
		golden := filepath.Join("testdata", name+".golden")
		if *update {
			if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != string(want) {
			t.Errorf("omen %s moved off %s:\n--- got\n%s--- want\n%s", line, golden, got.String(), want)
		}
	}
}

// TestTransmissionRunsUncached: a transmission sweep solves each (k, E)
// once, so it runs without the self-energy cache — no `# sigma-cache`
// line — and still counts one kernel run per point: the journal's per-task
// perf deltas of `utb -nk 2 -ne 6` hold sigma-decimations = 2·6.
func TestTransmissionRunsUncached(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "utb.journal")
	exit, stdout, stderr := omen(t, "-device", "utb", "-nk", "2", "-ne", "6", "-workers", "1", "-checkpoint", journal)
	if exit != 0 {
		t.Fatalf("omen: exit %d: %s", exit, stderr)
	}
	if strings.Contains(stdout, "# sigma-cache") {
		t.Errorf("a transmission sweep printed a σ-cache line:\n%s", stdout)
	}
	c, err := cluster.ReadJournal(journal)
	if err != nil {
		t.Fatal(err)
	}
	var decimations, lookups int64
	for _, r := range c.Records {
		if r.Perf == nil {
			t.Fatalf("task %d journaled no perf delta", r.Index)
		}
		decimations += r.Perf.Counters["sigma-decimations"]
		lookups += r.Perf.Counters["sigma-hits"] + r.Perf.Counters["sigma-misses"] + r.Perf.Counters["sigma-coalesced"]
	}
	if len(c.Records) != 12 || decimations != 12 || lookups != 0 {
		t.Errorf("%d records, sigma-decimations %d, cache lookups %d; want 12, 12, 0", len(c.Records), decimations, lookups)
	}
}
