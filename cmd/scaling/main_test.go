package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/machine"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this build's output")

// TestGoldenStudies holds every study's stdout to testdata/<study>.golden,
// and EXPERIMENTS.md to quoting each golden verbatim, so the model, the
// command and the tables cannot drift apart. A change that means to move
// the model runs `make scaling-golden` and pastes the new goldens into
// EXPERIMENTS.md.
func TestGoldenStudies(t *testing.T) {
	experiments, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	for name, printStudy := range studies {
		var got bytes.Buffer
		if err := printStudy(&got, machine.Jaguar()); err != nil {
			t.Fatalf("-study %s: %v", name, err)
		}
		golden := filepath.Join("testdata", name+".golden")
		if *update {
			if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		} else if want, err := os.ReadFile(golden); err != nil {
			t.Fatal(err)
		} else if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("-study %s moved off %s:\n--- got\n%s--- want\n%s", name, golden, got.Bytes(), want)
		}
		if !bytes.Contains(experiments, got.Bytes()) {
			t.Errorf("EXPERIMENTS.md does not quote -study %s verbatim", name)
		}
	}
}
