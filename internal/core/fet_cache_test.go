package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/device"
	"repro/internal/transport"
)

// cacheFET is a small FET for cache-accounting tests: big enough that the
// SCF loop and final pass do real work, small enough to run in seconds.
func cacheFET(t *testing.T) *FET {
	t.Helper()
	sim := gnrSim(t, 8)
	fet, err := NewFET(sim)
	if err != nil {
		t.Fatal(err)
	}
	fet.Lambda = 1.2
	fet.SourceDoping = 0.1
	fet.GateStart, fet.GateEnd = 0.3, 0.7
	fet.NE = 48
	return fet
}

// TestGateSweepOneDecimationPerKey is the acceptance criterion of the
// sweep-scale cache: a 5-point gate sweep at fixed Vd runs the
// Sancho-Rubio kernel at most once per (block family, shifted-energy)
// key — across all gate points, SCF iterations, AND the dense final
// current grids — because every grid snaps to one shared lattice and the
// drain lead's keys are bias-shifted onto the source's canonical axis.
// Source and drain continue the same ribbon cell, so they are one block
// family; at Vd ≠ 0 they ask for it at different canonical energies, one
// side per lookup, and each record is computed once with both surfaces.
func TestGateSweepOneDecimationPerKey(t *testing.T) {
	if testing.Short() {
		t.Skip("self-consistent FET sweep in -short mode")
	}
	fet := cacheFET(t)
	vgs := []float64{-0.4, -0.2, 0.0, 0.2, 0.4}
	const vd = 0.2
	points, err := fet.GateSweep(context.Background(), vgs, vd)
	if err != nil {
		t.Fatal(err)
	}

	st := fet.Cache.Stats()
	t.Logf("cache stats after sweep: %+v, entries %d", st, fet.Cache.Len())
	// Every miss ran exactly one kernel and created exactly one distinct
	// retained record: at most one kernel run per key, ever.
	if st.Decimations != st.Misses {
		t.Fatalf("%d decimations for %d misses — recomputation slipped through", st.Decimations, st.Misses)
	}
	if n := int64(fet.Cache.Len()); st.Decimations != n {
		t.Fatalf("%d decimations for %d distinct keys — some key was decimated twice", st.Decimations, n)
	}
	if st.Hits <= st.Misses {
		t.Fatalf("hits %d ≤ misses %d: the sweep barely reused anything", st.Hits, st.Misses)
	}

	// Pin the key population exactly: the union of every grid the sweep
	// evaluated, × 2 leads (the right lead's keys are shifted by +vd onto
	// the canonical axis — a pure relabeling that cannot create or merge
	// energies at fixed vd, and in floating point lands on no key of the
	// left lead's).
	lattice := make(map[float64]bool)
	scfOnly := make(map[float64]bool)
	var finalPts, finalShared int
	for _, vg := range vgs {
		for _, e := range fet.chargeGrid(vg, vd) {
			lattice[e] = true
			scfOnly[e] = true
		}
	}
	for _, p := range points {
		for _, e := range fet.currentGrid(vd, p.Potential) {
			finalPts++
			if scfOnly[e] {
				finalShared++
			}
			lattice[e] = true
		}
	}
	if want := 2 * len(lattice); fet.Cache.Len() != want {
		t.Fatalf("cache holds %d keys, want 2×%d lattice energies", fet.Cache.Len(), len(lattice))
	}
	// The final dense pass must land a large share of its points on
	// energies the SCF iterations already paid for — the half-lattice
	// coincidence this PR's grid snapping exists to produce (odd half-
	// lattice points and points outside every SCF window are new).
	if finalShared*3 < finalPts {
		t.Fatalf("final pass shares only %d of %d points with the SCF lattice", finalShared, finalPts)
	}
	t.Logf("lattice energies %d; final pass shares %d/%d points with SCF grids",
		len(lattice), finalShared, finalPts)
}

// TestGateSweepCachedMatchesPerBias compares the sweep-wide shared cache
// against the pre-change behavior — an independent cache per bias point —
// and requires observables unchanged to 1e-10 (they are in fact expected
// bitwise equal: misses compute from the family's canonical blocks, which
// the pinned contacts reproduce identically at every gate point).
func TestGateSweepCachedMatchesPerBias(t *testing.T) {
	if testing.Short() {
		t.Skip("self-consistent FET sweeps in -short mode")
	}
	vgs := []float64{-0.3, 0.0, 0.3}
	const vd = 0.15

	shared := cacheFET(t)
	points, err := shared.GateSweep(context.Background(), vgs, vd)
	if err != nil {
		t.Fatal(err)
	}

	for i, vg := range vgs {
		ref := cacheFET(t) // fresh FET = fresh cache: per-bias-point reuse only
		// Pin the reference to the sweep's lattice so both runs solve the
		// exact same grids and only the cache scope differs.
		ref.EStep = shared.EStep
		rp, err := ref.SolveBias(context.Background(), vg, vd)
		if err != nil {
			t.Fatalf("reference Vg=%g: %v", vg, err)
		}
		denom := math.Max(math.Abs(rp.Current), 1e-300)
		if rel := math.Abs(points[i].Current-rp.Current) / denom; rel > 1e-10 {
			t.Fatalf("Vg=%g: shared-cache current %g vs per-bias %g (rel %g)",
				vg, points[i].Current, rp.Current, rel)
		}
		if points[i].Iterations != rp.Iterations {
			t.Fatalf("Vg=%g: iteration counts diverged (%d vs %d)", vg, points[i].Iterations, rp.Iterations)
		}
	}
}

// TestSCFIdPathIndependent pins what FET.Tol means: on the device of
// omen's agnr7_negf_iv golden (agnr7, 8 cells, NEGF, omen's iv
// electrostatics at Vd = 0.2), on the golden's gate ladder and on the
// fet_iv check unit's, every point converges at the shipped Tol and
// prints an Id within 0.5 % of the loop's own fixed point, taken as the
// same FET run to Tol = 1e-8.
func TestSCFIdPathIndependent(t *testing.T) {
	if testing.Short() {
		t.Skip("self-consistent FET sweeps in -short mode")
	}
	const vd = 0.2
	ivFET := func() *FET {
		sim, err := New(device.Description{
			Name: "AGNR7", Kind: device.ArmchairGNR, CellsX: 8, CellsY: 7,
		}, transport.Config{Formalism: transport.NEGFRGF})
		if err != nil {
			t.Fatal(err)
		}
		fet, err := NewFET(sim)
		if err != nil {
			t.Fatal(err)
		}
		fet.Lambda = 1.2
		fet.SourceDoping = 0.1
		fet.GateStart, fet.GateEnd = 0.3, 0.7
		return fet
	}
	for _, vgs := range [][]float64{{-0.4, 0.6}, {-0.4, -0.3}} {
		fet := ivFET()
		shipped, err := fet.GateSweep(context.Background(), vgs, vd)
		if err != nil {
			t.Fatal(err)
		}
		tight := ivFET()
		tight.Tol, tight.MaxIter = 1e-8, 400
		ref, err := tight.GateSweep(context.Background(), vgs, vd)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range shipped {
			if !p.Converged || !ref[i].Converged {
				t.Fatalf("ladder %v, Vg=%g: converged %v in %d iterations (reference %v in %d)",
					vgs, p.VGate, p.Converged, p.Iterations, ref[i].Converged, ref[i].Iterations)
			}
			rel := math.Abs(p.Current-ref[i].Current) / ref[i].Current
			t.Logf("ladder %v, Vg=%g: Id %.6e in %d iterations, fixed point %.6e in %d (rel %.2e)",
				vgs, p.VGate, p.Current, p.Iterations, ref[i].Current, ref[i].Iterations, rel)
			if rel > 5e-3 {
				t.Fatalf("ladder %v, Vg=%g: Id %g at Tol %g is %.2f %% off the fixed point %g",
					vgs, p.VGate, p.Current, fet.Tol, 100*rel, ref[i].Current)
			}
		}
	}
}
