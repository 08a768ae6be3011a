package negf

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/device"
	"repro/internal/linalg"
	"repro/internal/perf"
	"repro/internal/sparse"
	"repro/internal/tb"
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

// TestSigmaLanesBitwise holds every lane of a Group's self-energy fill
// (fillSigma) to the solo call Leads.SelfEnergies at its energy, on every
// T1 family and on a pair of contacts that are two block families (a
// biased drain): the same Σ bit for bit, and at take the same flops and
// sigma-decimations — with nothing counted while the fill runs — and a
// lane whose solo call fails is never handed a Σ. The groups hold 1–4
// energies mixing band and gap, so their lanes retire at different
// iterations; η = 1e-8; an interior level, where the guard keeps the layer
// whole; AGNR-7's 8.8e-7 eV overflow energy, whose eliminated lane fails
// and is left to solo, which reruns it whole; and η = 1e-30 in band, where
// the decimation cannot finish and solo returns ErrNoConvergence. It runs
// the lane recursion whatever the build: on the AVX lane kernels where
// they exist, on their scalar loops elsewhere.
func TestSigmaLanesBitwise(t *testing.T) {
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
			g := sigmaLanes(l, zs)
			if f := perf.ResetFlops(); f != 0 {
				t.Fatalf("%s group %d: %d flops counted while the fill ran", name, gi, f)
			}
			for i := range zs {
				what := fmt.Sprintf("%s group %d lane %d (z = %v)", name, gi, i, zs[i])
				if !g.looked.Has(i) {
					continue
				}
				if want[i].err != nil {
					t.Fatalf("%s: handed a Σ where the solo call fails with %v", what, want[i].err)
				}
				inLanes++
				got := callCounted(t, func() (*linalg.Matrix, *linalg.Matrix, error) {
					g.countSigma(i)
					return g.sig[i][left], g.sig[i][right], nil
				})
				sameSolo(t, what, got, want[i])
			}
		}
	}
	if inLanes == 0 || soloErrs == 0 {
		t.Fatalf("%d energies finished in lanes, %d solo errors: the comparison is vacuous", inLanes, soloErrs)
	}
	t.Logf("%d energies finished in lanes, %d failed solo", inLanes, soloErrs)
}

// sigmaLanes runs a Group's self-energy fill on the energies zs alone.
func sigmaLanes(l *Leads, zs []complex128) *Group {
	ws := linalg.GetWorkspace()
	defer ws.Release()
	g := new(Group)
	g.fillSigma(l, zs, ws)
	return g
}

// BenchmarkSigmaLanes is the self-energy of a transmission sweep's lane
// group: four consecutive in-band energies of the benchmark grids (AGNR-7:
// ribbon_fabric's 4 meV step at 1.5 eV; the Si nanowire: wire_serial's
// 10 meV step at 1.54 eV, in its conduction band) as one Group's Σ fill
// and its four takes — each lane's count, or its solo call where the fill
// left it — against four solo calls at the same energies. Both count the
// same flops; ns and flops are reported per energy.
func BenchmarkSigmaLanes(b *testing.B) {
	for _, tc := range []struct {
		device   string
		e0, step float64
	}{{"agnr7", 1.5, 0.004}, {"sinw", 1.54, 0.01}} {
		desc, _ := device.Lookup(tc.device)
		built, err := desc.Build()
		if err != nil {
			b.Fatal(err)
		}
		h, err := tb.Assemble(built.Structure, built.Material, built.Options)
		if err != nil {
			b.Fatal(err)
		}
		leads, err := LeadsFromDevice(h)
		if err != nil {
			b.Fatal(err)
		}
		zs := make([]complex128, linalg.Lanes)
		for i := range zs {
			zs[i] = complex(tc.e0+float64(i)*tc.step, 1e-6)
		}
		run := map[string]func(){
			"group": func() {
				g := sigmaLanes(leads, zs)
				for i, z := range zs {
					if g.looked.Has(i) {
						g.countSigma(i)
					} else if _, _, err := leads.SelfEnergies(z); err != nil {
						b.Fatal(err)
					}
				}
			},
			"solo": func() {
				for _, z := range zs {
					if _, _, err := leads.SelfEnergies(z); err != nil {
						b.Fatal(err)
					}
				}
			},
		}
		for _, mode := range []string{"group", "solo"} {
			b.Run(tc.device+"/"+mode, func(b *testing.B) {
				run[mode]()
				perf.ResetFlops()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					run[mode]()
				}
				b.StopTimer()
				per := float64(b.N * len(zs))
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/per, "ns/energy")
				b.ReportMetric(float64(perf.ResetFlops())/per, "flops/energy")
			})
		}
	}
}

// TestSigmaLanesRunInLanes guards the test above from passing vacuously:
// on AGNR-7 every lane of an in-band group is finished in lanes (the group
// holds its Σ for Take), the overflow energy's lane is not, and a failing
// lane leaves its neighbours finished.
func TestSigmaLanesRunInLanes(t *testing.T) {
	agnr := suiteLeads(t)["AGNR-7"]
	g := sigmaLanes(agnr, []complex128{complex(1.39, 1e-6), complex(1.3976219674314385, 1e-6), complex(-2.5, 1e-6), complex(0.8, 1e-30)})
	if want := linalg.LaneMask(1<<0 | 1<<2); g.looked != want {
		t.Fatalf("lanes finished in lockstep %04b, want %04b", g.looked, want)
	}
}

// soloSolve is one energy's solve: its result, its error and what it
// counted.
type soloSolve struct {
	res   *Result
	err   error
	flops int64
}

func solveCounted(fn func() (*Result, error)) soloSolve {
	perf.ResetFlops()
	res, err := fn()
	return soloSolve{res: res, err: err, flops: perf.ResetFlops()}
}

// sameBits reports whether a and b hold the same float64s bit for bit, nil
// and empty apart.
func sameBits(a, b []float64) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameSolve(t *testing.T, what string, got, want soloSolve) {
	t.Helper()
	if fmt.Sprint(got.err) != fmt.Sprint(want.err) {
		t.Fatalf("%s: error %v, solo %v", what, got.err, want.err)
	}
	if got.flops != want.flops {
		t.Fatalf("%s: counted %d flops, solo %d", what, got.flops, want.flops)
	}
	if want.res == nil {
		return
	}
	g, w := got.res, want.res
	if g.E != w.E || !sameBits([]float64{g.T}, []float64{w.T}) || !sameBits(g.SpectralL, w.SpectralL) || !sameBits(g.SpectralR, w.SpectralR) {
		t.Fatalf("%s: T %v or the spectra differ from the solo solve's (T %v)", what, g.T, w.T)
	}
}

// TestRGFLanesBitwise holds every lane of a Group to the solo solve
// SolveCtx at its energy, on every T1 family under a potential (every layer
// its own record) and on the corner shapes (one layer, ragged layers), with
// density on and off: the same T and spectra bit for bit, the same error
// text, and at Take the same flops — with nothing
// counted while the group runs (its self-energies are cache hits, as in an
// SCF loop), and a second Take of one energy solved and counted again. The
// groups mix band and gap energies; one holds a level of a layer's
// interior, where the guard keeps that layer whole and the lane is solved
// solo; AGNR-7's holds its 8.8e-7 eV overflow energy, whose Σ reruns on the
// whole lead layer; and at η = 1e-30 in band the decimation cannot finish
// and solo's error must come back. A lane whose left-connected block is
// singular fails alone, with solo's error, and leaves the others' bits. It
// runs the lane path whatever the build: on the AVX lane kernels where they
// exist, on their scalar loops elsewhere.
func TestRGFLanesBitwise(t *testing.T) {
	defer func(old bool) { LaneGroups = old }(LaneGroups)
	LaneGroups = true
	ctx := context.Background()
	var inLanes, soloLanes, errLanes int
	type family struct {
		name      string
		sol, cold *Solver // cold: η = 1e-30, run on the first group only
		groups    [][]float64
	}
	var families []family
	for _, d := range device.BenchmarkSuite() {
		nl := d.CellsX
		pot := func(layer int) float64 { return 0.15 * math.Sin(2*math.Pi*(float64(layer)+0.5)/float64(nl)) }
		sol := builtSolver(t, d, 0, pot)
		_, levels := layerSupports(t, sol)
		mid := levels[nl/2]
		groups := [][]float64{
			{0.9, -1.1},
			{1.2, -3.1, 0.01, 0.6},
			{2.5, mid[len(mid)/2], -0.7},
		}
		if d.Name == "AGNR-7" {
			groups = append(groups, []float64{1.39, 1.3976219674314385, 1.40, 1.41})
		}
		cold := builtSolver(t, d, 0, pot)
		cold.Eta = 1e-30
		families = append(families, family{d.Name, sol, cold, groups})
	}
	// The corner shapes: one layer carrying both self-energies, and ragged
	// layers with rectangular couplings and a dense one.
	for name, sol := range map[string]*Solver{"one layer": oneLayerSolver(), "ragged": raggedSolver()} {
		sol.Cache = NewSelfEnergyCache()
		families = append(families, family{name, sol, nil, [][]float64{{0.1, 0.3, -0.2, 0.45}, {-0.6, 0.7}}})
	}
	for _, fam := range families {
		sol, cold, groups := fam.sol, fam.cold, fam.groups
		for _, density := range []bool{false, true} {
			for gi, es := range groups {
				for _, s := range []*Solver{sol, cold} {
					if s == nil || s == cold && gi > 0 {
						continue
					}
					want := make([]soloSolve, len(es))
					for i, e := range es {
						s.SolveCtx(ctx, e, density) // warm the cache: the group's lookups hit
						want[i] = solveCounted(func() (*Result, error) { return s.SolveCtx(ctx, e, density) })
						if want[i].err != nil {
							errLanes++
						}
					}
					// A failed Σ leaves no cache record: the group's lookup
					// decimates again, and its take returns the error.
					var lookups int64
					for i, w := range want {
						if w.err != nil {
							lookups += w.flops
							want[i].flops = 0
						}
					}
					perf.ResetFlops()
					g := s.SolveGroup(es, density)
					if f := perf.ResetFlops(); f != lookups {
						t.Fatalf("%s η=%g group %d: %d flops counted while the group ran, its failed lookups %d", fam.name, s.Eta, gi, f, lookups)
					}
					var first soloSolve
					for i := range es {
						if g.ready.Has(i) {
							inLanes++
						} else {
							soloLanes++
						}
						what := fmt.Sprintf("%s η=%g density %v group %d lane %d (E = %v)", fam.name, s.Eta, density, gi, i, es[i])
						got := solveCounted(func() (*Result, error) { return g.Take(ctx, i) })
						sameSolve(t, what, got, want[i])
						if i == 0 {
							first = got
						}
					}
					what := fmt.Sprintf("%s η=%g density %v group %d lane 0 taken again", fam.name, s.Eta, density, gi)
					again := solveCounted(func() (*Result, error) { return g.Take(ctx, 0) })
					if want[0].err != nil {
						want[0].flops = again.flops // solved from the start
					}
					sameSolve(t, what, again, want[0])
					if again.res != nil && again.res == first.res {
						t.Fatalf("%s: the second take handed out the first take's result", what)
					}
				}
			}
		}
	}
	if inLanes == 0 || soloLanes == 0 || errLanes == 0 {
		t.Fatalf("%d energies solved in lanes, %d solo, %d solo errors: the comparison is vacuous", inLanes, soloLanes, errLanes)
	}
	t.Logf("%d energies solved in lanes, %d solo at take, %d solo errors", inLanes, soloLanes, errLanes)

	// A singular left-connected block: column 0 of the first layer zeroed
	// in lane 1 and in that energy's solo system.
	sol := builtSolver(t, device.Description{Name: "agnr7", Kind: device.ArmchairGNR, CellsX: 6, CellsY: 7}, 0, nil)
	es := []float64{1.39, 1.40, 1.41, 1.42}
	sys, err := sol.reduced()
	if err != nil {
		t.Fatal(err)
	}
	for _, density := range []bool{false, true} {
		ws := linalg.GetWorkspace()
		var z [linalg.Lanes]complex128
		var sigL, sigR [linalg.Lanes]*linalg.Matrix
		var gam [2][linalg.Lanes]*linalg.Matrix
		var want, got [linalg.Lanes]*Result
		var wantErr [linalg.Lanes]error
		for l, e := range es {
			z[l] = complex(e, sol.Eta)
			if sigL[l], sigR[l], err = sol.selfEnergies(z[l]); err != nil {
				t.Fatal(err)
			}
			red := sys.At(z[l], sigL[l], sigR[l], ws)
			if l == 1 {
				zeroColumn(red.A.Diag[0])
			}
			gam[left][l], gam[right][l] = linalg.New(sigL[l].Rows, sigL[l].Rows), linalg.New(sigR[l].Rows, sigR[l].Rows)
			BroadeningInto(gam[left][l], sigL[l])
			BroadeningInto(gam[right][l], sigR[l])
			solo := [2][linalg.Lanes]*linalg.Matrix{{gam[left][l]}, {gam[right][l]}}
			res := [linalg.Lanes]*Result{newResult(e, sol.H.Layers(), density)}
			soloSet := sparse.SoloSet(ws)
			_, wantErr[l] = sol.rgf(&soloSet, reducedAt{solo: red}, &solo, &res, density, 1)
			want[l], got[l] = res[0], newResult(e, sol.H.Layers(), density)
		}
		set := sparse.LaneSet(ws)
		red := sys.LanesAt(&set, &z, &sigL, &sigR, 1<<linalg.Lanes-1)
		one := linalg.New(red.Diag[0].Rows, red.Diag[0].Cols)
		red.Diag[0].LaneInto(one, 1)
		zeroColumn(one)
		for e, v := range one.Data {
			red.Diag[0].Set(1, e/one.Cols, e%one.Cols, v)
		}
		failed, err := sol.rgf(&set, reducedAt{lanes: red}, &gam, &got, density, 1<<linalg.Lanes-1)
		if failed != 1<<1 || fmt.Sprint(err) != fmt.Sprint(wantErr[1]) || wantErr[1] == nil {
			t.Fatalf("density %v: lanes %04b failed with %v; want lane 1 with the solo error %v", density, failed, err, wantErr[1])
		}
		for l, w := range want {
			if l != 1 {
				sameSolve(t, fmt.Sprintf("density %v: lane %d beside the singular lane", density, l), soloSolve{res: got[l]}, soloSolve{res: w})
			}
		}
		ws.Release()
	}
}

// zeroColumn zeroes column 0 of m.
func zeroColumn(m *linalg.Matrix) {
	for r := 0; r < m.Rows; r++ {
		m.Data[r*m.Cols] = 0
	}
}
