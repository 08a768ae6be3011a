package negf

import (
	"fmt"
	"testing"

	"repro/internal/linalg"
	"repro/internal/perf"
	"repro/internal/sparse"
)

// soloSigma is one energy's solo call: Σ_L, Σ_R, the error, and what it
// counted.
type soloSigma struct {
	sig          [2]*linalg.Matrix
	err          error
	flops, decim int64
}

func callCounted(t *testing.T, fn func() (sigL, sigR *linalg.Matrix, err error)) soloSigma {
	t.Helper()
	ctr := perf.GetCounter("sigma-decimations")
	perf.ResetFlops()
	d0 := ctr.Value()
	sigL, sigR, err := fn()
	return soloSigma{sig: [2]*linalg.Matrix{sigL, sigR}, err: err, flops: perf.ResetFlops(), decim: ctr.Value() - d0}
}

func sameSolo(t *testing.T, what string, got, want soloSigma) {
	t.Helper()
	if fmt.Sprint(got.err) != fmt.Sprint(want.err) {
		t.Fatalf("%s: error %v, solo %v", what, got.err, want.err)
	}
	if got.flops != want.flops || got.decim != want.decim {
		t.Fatalf("%s: counted %d flops and %d decimations, solo %d and %d", what, got.flops, got.decim, want.flops, want.decim)
	}
	for s, m := range want.sig {
		if (m == nil) != (got.sig[s] == nil) || m != nil && !sparse.SameBits(got.sig[s], m) {
			t.Fatalf("%s: Σ_%s differs from the solo call's", what, sideNames[s])
		}
	}
}

// TestSigmaLanesBitwise holds every lane of a SigmaGroup to the solo call
// Leads.SelfEnergies at its energy, on every T1 family and on a pair of
// contacts that are two block families (a biased drain): the same Σ bit
// for bit, the same error text, and at Take the same flops and
// sigma-decimations — with nothing counted while the group runs, and a
// second Take of one energy recomputed and counted again. The groups hold
// 1–4 energies mixing band and gap, so their lanes retire at different
// iterations; η = 1e-8; an interior level, where the guard keeps the layer
// whole; AGNR-7's 8.8e-7 eV overflow energy, whose eliminated lane fails
// and reruns whole; and η = 1e-30 in band, where the decimation cannot
// finish and solo's ErrNoConvergence must come back. It runs the lane
// recursion whatever the build: on the AVX lane kernels where they exist,
// on their scalar loops elsewhere.
func TestSigmaLanesBitwise(t *testing.T) {
	defer func(old bool) { laneGroups = old }(laneGroups)
	laneGroups = true
	suite := suiteLeads(t)
	agnr := suite["AGNR-7"]
	biased := &Leads{L00: agnr.L00, L01: agnr.L01, R00: agnr.R00.Clone(), R01: agnr.R01}
	for i := 0; i < biased.R00.Rows; i++ {
		biased.R00.Data[i*biased.R00.Cols+i] -= 0.2
	}
	leads := map[string]*Leads{"AGNR-7 biased drain": biased}
	for name, l := range suite {
		leads[name] = l
	}
	var inLanes, soloErrs int
	for name, l := range leads {
		fams, err := l.own.resolve(l)
		if err != nil {
			t.Fatal(err)
		}
		_, levels := partitionOf(t, fams[left])
		groups := [][]complex128{
			{complex(0.9, 1e-6)},
			{complex(-1.1, 1e-6), complex(0.05, 1e-6)},
			{complex(2.5, 1e-8), complex(0.0, 1e-6), complex(-0.7, 1e-8)},
			{complex(1.2, 1e-6), complex(-3.1, 1e-6), complex(0.01, 1e-6), complex(0.6, 1e-8)},
			{complex(0.8, 1e-30), complex(1.0, 1e-6), complex(0.8, 1e-6)},
		}
		if len(levels) > 0 {
			groups = append(groups, []complex128{complex(levels[0], 1e-8), complex(1.3, 1e-6), complex(levels[len(levels)-1], 1e-6)})
		}
		if name == "AGNR-7" {
			groups = append(groups, []complex128{complex(1.39, 1e-6), complex(1.3976219674314385, 1e-6), complex(1.40, 1e-6), complex(1.41, 1e-6)})
		}
		for gi, zs := range groups {
			want := make([]soloSigma, len(zs))
			for i, z := range zs {
				want[i] = callCounted(t, func() (*linalg.Matrix, *linalg.Matrix, error) { return l.SelfEnergies(z) })
				if want[i].err != nil {
					soloErrs++
				}
			}
			perf.ResetFlops()
			g := l.SelfEnergyGroup(zs)
			if f := perf.ResetFlops(); f != 0 {
				t.Fatalf("%s group %d: %d flops counted while the group ran", name, gi, f)
			}
			var first soloSigma
			for i := range zs {
				if g.ready.Has(i) {
					inLanes++
				}
				what := fmt.Sprintf("%s group %d lane %d (z = %v)", name, gi, i, zs[i])
				got := callCounted(t, func() (*linalg.Matrix, *linalg.Matrix, error) { return g.Take(i) })
				sameSolo(t, what, got, want[i])
				if i == 0 {
					first = got
				}
			}
			// Taken again, lane 0 is recomputed: solo's count, and fresh
			// storage, not the Σ the first take handed out.
			what := fmt.Sprintf("%s group %d lane 0 taken again", name, gi)
			again := callCounted(t, func() (*linalg.Matrix, *linalg.Matrix, error) { return g.Take(0) })
			sameSolo(t, what, again, want[0])
			for s, m := range again.sig {
				if m != nil && m == first.sig[s] {
					t.Fatalf("%s: the second take handed out the first take's Σ_%s", what, sideNames[s])
				}
			}
		}
	}
	if inLanes == 0 || soloErrs == 0 {
		t.Fatalf("%d energies finished in lanes, %d solo errors: the comparison is vacuous", inLanes, soloErrs)
	}
	t.Logf("%d energies finished in lanes, %d failed solo", inLanes, soloErrs)
}

// TestSigmaLanesRunInLanes guards the test above from passing vacuously:
// on AGNR-7 every lane of an in-band group is finished in lanes (the group
// holds it ready for Take), the overflow energy's lane is not, and a
// failing lane leaves its neighbours finished.
func TestSigmaLanesRunInLanes(t *testing.T) {
	defer func(old bool) { laneGroups = old }(laneGroups)
	laneGroups = true
	agnr := suiteLeads(t)["AGNR-7"]
	g := agnr.SelfEnergyGroup([]complex128{complex(1.39, 1e-6), complex(1.3976219674314385, 1e-6), complex(-2.5, 1e-6), complex(0.8, 1e-30)})
	if want := linalg.LaneMask(1<<0 | 1<<2); g.ready != want {
		t.Fatalf("lanes finished in lockstep %04b, want %04b", g.ready, want)
	}
}
