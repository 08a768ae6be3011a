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
		{"clean", negf.Result{T: 1, DOS: []float64{0.1}, SpectralL: []float64{0.2}, SpectralR: []float64{0.3}}, ""},
		{"nan T", negf.Result{T: math.NaN()}, "T"},
		{"inf T", negf.Result{T: math.Inf(1)}, "T"},
		{"nan DOS", negf.Result{T: 1, DOS: []float64{0, math.NaN()}}, "DOS"},
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

func TestDropQuarantined(t *testing.T) {
	es := []float64{0, 1, 2, 3, 4}
	vs := []float64{10, 11, 12, 13, 14}
	ge, gv := DropQuarantined(es, vs, func(i int) bool { return i == 1 || i == 3 })
	if len(ge) != 3 || ge[0] != 0 || ge[1] != 2 || ge[2] != 4 {
		t.Fatalf("energies: %v", ge)
	}
	if gv[0] != 10 || gv[1] != 12 || gv[2] != 14 {
		t.Fatalf("values: %v", gv)
	}
	ae, av := DropQuarantined(es, vs, nil)
	if len(ae) != 5 || len(av) != 5 {
		t.Fatal("nil predicate must keep everything")
	}
}

func TestRenormalizedCurrentBounds(t *testing.T) {
	// A smooth transmission step across a biased window.
	n := 201
	es := UniformGrid(-0.5, 0.5, n)
	ts := make([]float64, n)
	for i, e := range es {
		ts[i] = 1 / (1 + math.Exp(-20*e)) // smooth turn-on at E=0
	}
	bias := Bias{MuL: 0.15, MuR: -0.15, Temperature: 300}

	full, err := Current(es, ts, bias, 2)
	if err != nil {
		t.Fatal(err)
	}
	if full <= 0 {
		t.Fatalf("full current %g not positive", full)
	}

	// No quarantine: bitwise-identical to the plain integrator.
	same, err := RenormalizedCurrent(es, ts, nil, bias, 2)
	if err != nil {
		t.Fatal(err)
	}
	if same != full {
		t.Fatalf("empty quarantine changed the integral: %v vs %v", same, full)
	}

	// A few isolated interior losses: the renormalized integral stays
	// within a small relative band of the truth — each gap contributes
	// O(de²·T″) trapezoid error, far below 1% here.
	bad := map[int]bool{31: true, 97: true, 98: true, 150: true}
	renorm, err := RenormalizedCurrent(es, ts, func(i int) bool { return bad[i] }, bias, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(renorm-full) / full; rel > 0.01 {
		t.Fatalf("4 quarantined points moved the current by %.2f%%", 100*rel)
	}

	// Quarantined window edges: the window-ratio rescale keeps the
	// integral in band because the edges are cold (f_L−f_R ≈ 0 there).
	edge := map[int]bool{0: true, 1: true, n - 1: true}
	clipped, err := RenormalizedCurrent(es, ts, func(i int) bool { return edge[i] }, bias, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(clipped-full) / full; rel > 0.02 {
		t.Fatalf("edge quarantine moved the current by %.2f%%", 100*rel)
	}

	// Losing nearly everything must fail, not silently extrapolate.
	if _, err := RenormalizedCurrent(es, ts, func(i int) bool { return i > 0 }, bias, 2); err == nil {
		t.Fatal("integration over a single survivor accepted")
	}
	if _, err := RenormalizedCurrent(es[:3], ts[:4], nil, bias, 2); err == nil {
		t.Fatal("mismatched slice lengths accepted")
	}
}
