package splitsolve_test

import (
	"math"
	"testing"

	"repro/internal/lattice"
	"repro/internal/negf"
	"repro/internal/sched"
	"repro/internal/tb"
	"repro/internal/wavefunction"
)

// TestSplitSolveInsideWFSolver runs the full physics pipeline on four
// domains and cross-checks transmission against NEGF. It is an external
// test: wavefunction imports splitsolve.
func TestSplitSolveInsideWFSolver(t *testing.T) {
	s, err := lattice.NewZincblendeNanowire(0.5431, 8, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	pot := make([]float64, s.NAtoms())
	for i, at := range s.Atoms {
		if at.Layer >= 3 && at.Layer <= 5 {
			pot[i] = 0.3
		}
	}
	h, err := tb.Assemble(s, tb.SiliconSP3S(), tb.Options{PassivationShift: 10, Potential: pot})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := negf.NewSolver(h, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	wf, err := wavefunction.NewSolver(h, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	wf.Domains, wf.Pool = 4, sched.New(2)
	for _, e := range []float64{1.2, 1.9, 2.6} {
		tWF, err := wf.Transmission(e)
		if err != nil {
			t.Fatalf("E=%g: %v", e, err)
		}
		tRef, err := ref.Transmission(e)
		if err != nil {
			t.Fatalf("E=%g: %v", e, err)
		}
		if math.Abs(tWF-tRef) > 1e-7*(1+tRef) {
			t.Fatalf("E=%g: SplitSolve T=%g vs NEGF T=%g", e, tWF, tRef)
		}
	}
}
