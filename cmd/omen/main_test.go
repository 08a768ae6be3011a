package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"sort"
	"testing"
	"time"

	"repro/internal/spec"
)

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
	if len(sf.apply) != 28 {
		t.Errorf("%d spec-backed flags bound, want 28", len(sf.apply))
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
