package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Output checks. Every unit's output is parsed and validated; a unit
// that fails a check is a failed unit, exactly like one that exits
// non-zero.

// sweepOutput is omen's (and omend's /result) transmission text format.
type sweepOutput struct {
	flops      int64
	sigmaTotal int64 // hits+misses+coalesced of the "# sigma-cache" line
	rows       int
}

// commentInts extracts key=value integers from a "# name\tk=v k=v" line.
func commentInts(line string) map[string]int64 {
	out := map[string]int64{}
	for _, f := range strings.Fields(line) {
		if k, v, ok := strings.Cut(f, "="); ok {
			if n, err := strconv.ParseInt(v, 10, 64); err == nil {
				out[k] = n
			}
		}
	}
	return out
}

func parseCounters(line string, o *sweepOutput) error {
	switch {
	case strings.HasPrefix(line, "# flops\t"):
		n, err := strconv.ParseInt(strings.TrimPrefix(line, "# flops\t"), 10, 64)
		if err != nil {
			return fmt.Errorf("bad flops line %q", line)
		}
		o.flops = n
	case strings.HasPrefix(line, "# sigma-cache\t"):
		kv := commentInts(line)
		o.sigmaTotal = kv["hits"] + kv["misses"] + kv["coalesced"]
	}
	return nil
}

// scanOutput walks omen's text format: comment lines feed the counters,
// every other line must split into nFields tab-separated fields and
// pass row. It requires wantRows rows and a positive "# flops" line.
func scanOutput(out []byte, nFields, wantRows int, row func(f []string) error) (sweepOutput, error) {
	var o sweepOutput
	for _, line := range strings.Split(strings.TrimRight(string(out), "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			if err := parseCounters(line, &o); err != nil {
				return o, err
			}
			continue
		}
		f := strings.Split(line, "\t")
		if len(f) != nFields {
			return o, fmt.Errorf("malformed row %q", line)
		}
		if err := row(f); err != nil {
			return o, fmt.Errorf("%w in row %q", err, line)
		}
		o.rows++
	}
	if o.rows != wantRows {
		return o, fmt.Errorf("%d rows, want %d", o.rows, wantRows)
	}
	if o.flops <= 0 {
		return o, fmt.Errorf("missing or zero # flops line")
	}
	return o, nil
}

func finite(s string) error {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("non-finite value %q", s)
	}
	return nil
}

// checkSweep validates a transmission sweep: exactly wantRows "E T"
// rows, every value finite, and a positive "# flops" line.
func checkSweep(out []byte, wantRows int) (sweepOutput, error) {
	return scanOutput(out, 2, wantRows, func(f []string) error {
		return errors.Join(finite(f[0]), finite(f[1]))
	})
}

// checkIV validates a gate sweep: exactly wantRows "Vg Id iters
// converged" rows, every current finite, every point converged, and the
// σ-cache line its point count is read from.
func checkIV(out []byte, wantRows int) (sweepOutput, error) {
	o, err := scanOutput(out, 4, wantRows, func(f []string) error {
		if f[3] != "true" {
			return errors.New("bias point not converged")
		}
		return finite(f[1])
	})
	if err == nil && o.sigmaTotal <= 0 {
		err = errors.New("missing # sigma-cache line")
	}
	return o, err
}

// dataLines keeps an output's data rows and, with flops, its "# flops"
// line; every other comment line and every empty line goes.
func dataLines(out []byte, flops bool) []byte {
	var b bytes.Buffer
	for _, line := range bytes.Split(out, []byte("\n")) {
		if len(line) == 0 || line[0] == '#' && !(flops && bytes.HasPrefix(line, []byte("# flops\t"))) {
			continue
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// observables reduces an output to what must be byte-identical across
// execution paths: the data rows and the "# flops" line. (The cluster
// line exists only on distributed paths, and the σ-cache line splits
// hits from coalesced waits by timing.)
func observables(out []byte) []byte { return dataLines(out, true) }

// diffObservables reports whether two outputs agree byte for byte on
// their observables.
func diffObservables(got, ref []byte) error {
	g, r := observables(got), observables(ref)
	if bytes.Equal(g, r) {
		return nil
	}
	gl, rl := bytes.Split(g, []byte("\n")), bytes.Split(r, []byte("\n"))
	for i := 0; i < len(gl) && i < len(rl); i++ {
		if !bytes.Equal(gl[i], rl[i]) {
			return fmt.Errorf("observables differ from the reference at line %d: %q vs %q", i+1, gl[i], rl[i])
		}
	}
	return fmt.Errorf("observables differ from the reference in length: %d vs %d lines", len(gl), len(rl))
}

// rows strips every comment line: the data alone. For comparisons where
// even the flop total legitimately differs (in-process workers of
// concurrent jobs share the process-global counters).
func rows(out []byte) []byte { return dataLines(out, false) }
