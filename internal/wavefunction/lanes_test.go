package wavefunction

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/device"
	"repro/internal/linalg"
	"repro/internal/negf"
	"repro/internal/perf"
	"repro/internal/sparse"
)

// soloSolve is one energy's solve: its result, error and what it counted.
type soloSolve struct {
	res   *negf.Result
	err   error
	flops int64
}

func solveCounted(fn func() (*negf.Result, error)) soloSolve {
	perf.ResetFlops()
	r, err := fn()
	return soloSolve{res: r, err: err, flops: perf.ResetFlops()}
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
	if got.res.E != want.res.E || math.Float64bits(got.res.T) != math.Float64bits(want.res.T) || got.res.SpectralL != nil {
		t.Fatalf("%s: E=%v T=%v, solo E=%v T=%v", what, got.res.E, got.res.T, want.res.E, want.res.T)
	}
}

// TestWFLanesBitwise holds every lane of a wave-function transmission group
// (Solver.SolveGroup, density off) to the solo SolveCtx at its energy, on
// every T1 family under a potential (every layer its own record), with Σ
// in lanes (no σ-cache: a transmission sweep's groups) and from a warm
// σ-cache (an I-V's current pass): the same T bit for bit, the same error
// text, and at Take the same flops — with nothing counted while an
// uncached group runs — and a second Take of one energy solved and
// counted again. The groups mix band and gap energies; one holds a level
// of a layer's interior, where the guard keeps that layer whole and the
// lane is solved solo; AGNR-7's holds its 8.8e-7 eV overflow energy, whose
// Σ reruns on the whole lead layer; and at η = 1e-30 in band the
// decimation cannot finish and solo's error must come back. The kernel's
// own refusals — an injection width 0 or not the group's, and a singular
// first block — are held on a two-orbital chain with chosen Σ
// (laneKernelRefusals). It runs the lane path whatever the build: on
// the AVX lane kernels where they exist, on their scalar loops elsewhere.
func TestWFLanesBitwise(t *testing.T) {
	defer func(old bool) { negf.LaneGroups = old }(negf.LaneGroups)
	negf.LaneGroups = true
	ctx := context.Background()
	solo := perf.GetCounter("lanes-solo")
	var inLanes, soloLanes, errLanes int
	for _, d := range device.BenchmarkSuite() {
		h := familyUnderPotential(t, d)
		levels := interiorLevels(t, func() *Solver { s, _ := NewSolver(h, 1e-6); return s }())
		groups := [][]float64{
			{0.9, -1.1},
			{1.2, -3.1, 0.01, 0.6},
			{2.5, levels[len(levels)/2], -0.7},
		}
		if d.Name == "AGNR-7" {
			groups = append(groups, []float64{1.39, 1.3976219674314385, 1.40, 1.41})
		}
		for _, cached := range []bool{false, true} {
			for _, eta := range []float64{1e-6, 1e-30} {
				s, err := NewSolver(h, eta)
				if err != nil {
					t.Fatal(err)
				}
				if cached {
					s.Cache = negf.NewSelfEnergyCache()
				}
				for gi, es := range groups {
					if eta < 1e-6 && gi > 0 {
						continue
					}
					want := make([]soloSolve, len(es))
					for i, e := range es {
						s.SolveCtx(ctx, e, false) // warms the cache: the group's lookups hit
						want[i] = solveCounted(func() (*negf.Result, error) { return s.SolveCtx(ctx, e, false) })
						if want[i].err != nil {
							errLanes++
						}
					}
					// A cached group looks Σ up while it runs; a failed Σ
					// leaves no record, so that lookup decimates again and
					// its take returns the error.
					var lookups int64
					for i, w := range want {
						if cached && w.err != nil {
							lookups += w.flops
							want[i].flops = 0
						}
					}
					what := fmt.Sprintf("%s cached=%v η=%g group %d", d.Name, cached, eta, gi)
					perf.ResetFlops()
					g := s.SolveGroup(es, false)
					if f := perf.ResetFlops(); f != lookups {
						t.Fatalf("%s: %d flops counted while the group ran, its failed lookups %d", what, f, lookups)
					}
					var first soloSolve
					for i := range es {
						before := solo.Value()
						got := solveCounted(func() (*negf.Result, error) { return g.Take(ctx, i) })
						if solo.Value() == before {
							inLanes++
						} else {
							soloLanes++
						}
						sameSolve(t, fmt.Sprintf("%s lane %d (E = %v)", what, i, es[i]), got, want[i])
						if i == 0 {
							first = got
						}
					}
					again := solveCounted(func() (*negf.Result, error) { return g.Take(ctx, 0) })
					if want[0].err != nil && cached {
						want[0].flops = again.flops // solved from the start
					}
					sameSolve(t, what+" lane 0 taken again", again, want[0])
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
	t.Run("kernel refusals", laneKernelRefusals)
}

// laneKernelRefusals runs the transmission lane kernel on chosen
// self-energies of a two-orbital chain, whose first reduced layer is the
// left contact's support, so Σ_L alone decides A's first block and Γ_L's
// rank: lanes of injection width 1; one whose Σ_L = M_0(z) − T zeroes A's
// first column (a singular first block, Γ_L still of rank 1); one of width
// 2 — not the group's — and one of width 0 (Γ_L = 0). The kernel must
// finish exactly the width-1 lanes with a regular first block, each with
// the T bits of the solo SolveWithSigma on the same Σ and the flops it
// counts, and leave the others to solo, where SolveWithSigma gives the
// singular lane its error. It counts nothing itself.
func laneKernelRefusals(t *testing.T) {
	onsite := linalg.FromRows([][]complex128{{0.1, 0.3}, {0.3, -0.4}})
	hop := linalg.FromRows([][]complex128{{-1, 0.2}, {0.1, -0.8}})
	const nl = 4
	diag, upper, lower := make([]*linalg.Matrix, nl), make([]*linalg.Matrix, nl-1), make([]*linalg.Matrix, nl-1)
	for i := range diag {
		diag[i] = onsite.Clone()
	}
	for i := range upper {
		upper[i], lower[i] = hop.Clone(), hop.ConjTranspose()
	}
	h, err := sparse.NewBlockTridiag(diag, upper, lower)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSolver(h, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := s.reduced()
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.LeftContact()) != 2 || sys.SupportSize(0) != 2 {
		t.Fatalf("the chain's first reduced layer is not the left contact's support")
	}
	// psd returns −i·v·v† (+ −i·u·u†): Γ = i(Σ − Σ†) = 2·(v·v† + u·u†).
	psd := func(v ...[2]complex128) *linalg.Matrix {
		m := linalg.New(2, 2)
		for _, x := range v {
			for a := 0; a < 2; a++ {
				for b := 0; b < 2; b++ {
					m.Data[a*2+b] += -1i * x[a] * complex(real(x[b]), -imag(x[b]))
				}
			}
		}
		return m
	}
	// singular returns Σ_L = M_0(z) − T, T zero in column 0 and 10i at
	// (1, 1): A's first block is T, Γ_L = diag(−2η, 20 − 2η) of rank 1.
	singular := func(z complex128) *linalg.Matrix {
		m := linalg.New(2, 2)
		for a := 0; a < 2; a++ {
			for b := 0; b < 2; b++ {
				m.Data[a*2+b] = -onsite.Data[a*2+b]
			}
			m.Data[a*2+a] += z
		}
		m.Data[3] -= 10i
		return m
	}
	sigR := psd([2]complex128{0.4, 0.3i})
	for _, tc := range []struct {
		name     string
		sigL     func(z complex128, l int) *linalg.Matrix
		ready    linalg.LaneMask
		singular int // the lane with a singular first block, or −1
	}{
		{"lanes 1 singular, 2 of width 2, 3 of width 0", func(z complex128, l int) *linalg.Matrix {
			switch l {
			case 1:
				return singular(z)
			case 2:
				return psd([2]complex128{1, 0.5i}, [2]complex128{0.2, -0.7})
			case 3:
				return linalg.New(2, 2)
			}
			return psd([2]complex128{0.8, 0.1 - 0.3i})
		}, 0b0001, 1},
		{"lane 3 of width 2 among three of width 1", func(z complex128, l int) *linalg.Matrix {
			if l == 3 {
				return psd([2]complex128{1, 0.5i}, [2]complex128{0.2, -0.7})
			}
			return psd([2]complex128{0.8 + 0.1*complex(float64(l), 0), 0.1 - 0.3i})
		}, 0b0111, -1},
	} {
		ws := linalg.GetWorkspace()
		set := sparse.LaneSet(ws)
		var in negf.LaneInput
		var want [linalg.Lanes]soloSolve
		for l := 0; l < linalg.Lanes; l++ {
			e := -0.3 + 0.2*float64(l)
			in.Z[l] = complex(e, s.Eta)
			in.Sigma[0][l], in.Sigma[1][l] = tc.sigL(in.Z[l], l), sigR
			for sd := range in.Gamma {
				in.Gamma[sd][l] = linalg.New(2, 2)
				negf.BroadeningInto(in.Gamma[sd][l], in.Sigma[sd][l])
			}
			in.Live |= 1 << l
			want[l] = solveCounted(func() (*negf.Result, error) {
				return s.SolveWithSigma(context.Background(), e, in.Sigma[0][l], in.Sigma[1][l], false)
			})
		}
		if tc.singular >= 0 && want[tc.singular].err == nil {
			t.Fatalf("%s: the singular lane's solo solve returned no error", tc.name)
		}
		perf.ResetFlops()
		failed, flops := s.laneKernel(&set, &in)
		if f := perf.ResetFlops(); f != 0 {
			t.Fatalf("%s: the kernel counted %d flops", tc.name, f)
		}
		if ready := in.Live &^ failed; ready != tc.ready {
			t.Fatalf("%s: the kernel finished lanes %04b, want %04b", tc.name, ready, tc.ready)
		}
		for l := 0; l < linalg.Lanes; l++ {
			if tc.ready.Has(l) {
				sameSolve(t, fmt.Sprintf("%s lane %d", tc.name, l), soloSolve{res: in.Res[l], flops: flops}, want[l])
			}
		}
		ws.Release()
	}
}

// TestWorkspaceRefill holds the scratch a cached lane group draws from
// its pool to a fixed number of allocations when a GC has emptied it — two
// GCs empty a sync.Pool — on every T1 family, in both formalisms: linalg's
// workspace starts at the largest size seen, its buffers carved from one
// slab per kind and its lane blocks from one more, so a refill does not
// allocate once per buffer. What a refill costs is fixed: the workspace 6
// allocations, its lane slab and headers 2, and the pool re-pins 2.
// Automatic collections are off while it counts: a cycle that the refill's
// own slab starts would empty the pool again mid-group.
func TestWorkspaceRefill(t *testing.T) {
	defer func(old bool) { negf.LaneGroups = old }(negf.LaneGroups)
	negf.LaneGroups = true
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ctx := context.Background()
	es := []float64{1.2, -3.1, 0.01, 0.6}
	for _, d := range device.BenchmarkSuite() {
		h := familyUnderPotential(t, d)
		wf, err := NewSolver(h, 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		wf.Cache = negf.NewSelfEnergyCache()
		rgf, err := negf.NewSolver(h, 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		rgf.Cache = negf.NewSelfEnergyCache()
		for _, s := range []struct {
			name  string
			group func([]float64, bool) *negf.Group
		}{{"WF", wf.SolveGroup}, {"NEGF", rgf.SolveGroup}} {
			group := func() {
				g := s.group(es, false)
				for i := range es {
					g.Take(ctx, i)
				}
			}
			group() // warms the σ-cache and the pool
			warm := testing.AllocsPerRun(10, group)
			cold := testing.AllocsPerRun(10, func() { runtime.GC(); runtime.GC(); group() })
			t.Logf("%s %s: %.0f allocations warm, %.0f after two GCs", d.Name, s.name, warm, cold)
			if cold > warm+10 {
				t.Errorf("%s: a cached %s group allocates %.0f times after two GCs, %.0f warm: its scratch refills per buffer", d.Name, s.name, cold, warm)
			}
		}
	}
}
