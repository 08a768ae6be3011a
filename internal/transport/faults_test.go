package transport

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/negf"
	"repro/internal/resilience"
	"repro/internal/sched"
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

func TestTransmissionAtMatchesSpectrum(t *testing.T) {
	h := chainH(t, 6, 0, -1, nil)
	eng, err := NewEngine(h, Config{Pool: sched.New(1)})
	if err != nil {
		t.Fatal(err)
	}
	grid := UniformGrid(-1.5, 1.5, 9)
	ts, err := eng.Transmissions(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range grid {
		v, err := eng.TransmissionAt(context.Background(), e)
		if err != nil {
			t.Fatalf("E=%g: %v", e, err)
		}
		if v != ts[i] {
			t.Fatalf("E=%g: point solve %g != grid solve %g", e, v, ts[i])
		}
	}
}
