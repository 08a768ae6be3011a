package transport

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/negf"
	"repro/internal/resilience"
)

func TestCheckFiniteNamesQuantityAndEnergy(t *testing.T) {
	cases := []struct {
		name string
		res  negf.Result
		want string // "" means finite
	}{
		{"clean", negf.Result{T: 1, SpectralL: []float64{0.2}, SpectralR: []float64{0.3}}, ""},
		{"nan T", negf.Result{T: math.NaN()}, "T"},
		{"inf T", negf.Result{T: math.Inf(1)}, "T"},
		{"inf spectralL", negf.Result{T: 1, SpectralL: []float64{math.Inf(-1)}}, "spectral"},
		{"nan spectralR", negf.Result{T: 1, SpectralR: []float64{math.NaN()}}, "spectral"},
	}
	for _, c := range cases {
		err := checkFinite(0.37, &c.res)
		if c.want == "" {
			if err != nil {
				t.Fatalf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		var nfe *NonFiniteError
		if !errors.As(err, &nfe) {
			t.Fatalf("%s: error %v is not a *NonFiniteError", c.name, err)
		}
		if nfe.Quantity != c.want || nfe.E != 0.37 {
			t.Fatalf("%s: got (%q, E=%g), want (%q, E=0.37)", c.name, nfe.Quantity, nfe.E, c.want)
		}
	}
}

func TestNonFiniteErrorIsPermanent(t *testing.T) {
	err := error(&NonFiniteError{E: 1.2, Quantity: "T"})
	if resilience.Classify(err) != resilience.Permanent {
		t.Fatal("numerical blow-ups must classify permanent (quarantine, not retry)")
	}
	// Classification survives wrapping, as the sweep layers wrap errors
	// with task coordinates.
	wrapped := errors.Join(errors.New("cluster: task 7"), err)
	if resilience.Classify(wrapped) != resilience.Permanent {
		t.Fatal("classification lost through wrapping")
	}
}

// TestTransmissionMatchesSpectrum: T at one energy on a fresh engine is
// the bits of a density-off SolveAt at that energy in the middle of a grid
// solved in order on another engine — a solve depends on its energy alone,
// not on the engine's history.
func TestTransmissionMatchesSpectrum(t *testing.T) {
	h := chainH(t, 6, 0, -1, nil)
	grid := UniformGrid(-1.5, 1.5, 9)
	ref, err := NewEngine(h, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := make([]float64, len(grid))
	for i, e := range grid {
		r, err := ref.SolveAt(context.Background(), e, false)
		if err != nil {
			t.Fatalf("E=%g: %v", e, err)
		}
		ts[i] = r.T
	}
	for i := len(grid) - 1; i >= 0; i-- {
		eng, err := NewEngine(h, Config{})
		if err != nil {
			t.Fatal(err)
		}
		r, err := eng.SolveAt(context.Background(), grid[i], false)
		if err != nil {
			t.Fatalf("E=%g: %v", grid[i], err)
		}
		if r.T != ts[i] {
			t.Fatalf("E=%g: point solve %g != grid solve %g", grid[i], r.T, ts[i])
		}
	}
}
