package repro

// The benchmark harness regenerates every table and figure of the
// reconstructed evaluation (DESIGN.md §4). Each benchmark prints the rows
// of its table/series once (on the first iteration) and reports the
// quantitative headline as benchmark metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the full evaluation — except the rows of the machine-model
// studies F4/F5/T3/F6, which `go run ./cmd/scaling -study X` prints.
// Shapes — who wins, by what factor, where crossovers fall — are the
// comparison target; see EXPERIMENTS.md.

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/lattice"
	"repro/internal/linalg"
	"repro/internal/machine"
	"repro/internal/negf"
	"repro/internal/perf"
	"repro/internal/sparse"
	"repro/internal/splitsolve"
	"repro/internal/tb"
	"repro/internal/transport"
	"repro/internal/wavefunction"
)

// printOnce guards the one-time table output of each benchmark.
var printOnce sync.Map

func once(key string, fn func()) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		fn()
	}
}

// steadyAllocs makes a guarded benchmark's allocs/op a property of the
// code instead of the scheduler. The solvers draw their workspaces from
// sync.Pools, whose fast slot is per-P: when the benchmark goroutine
// migrates, its next Get misses and refills a whole workspace — tens of
// allocations against a budget of 20. On one P there is nowhere to
// migrate to, and a GC cycle only moves the pooled workspace to the
// pool's victim cache, where the next Get still finds it. warm runs once
// to fill the pools before the timed loop; the returned func restores
// GOMAXPROCS.
func steadyAllocs(warm func()) (restore func()) {
	procs := runtime.GOMAXPROCS(1)
	warm()
	return func() { runtime.GOMAXPROCS(procs) }
}

// --- T1: device benchmark suite -------------------------------------------

func BenchmarkT1_DeviceSuite(b *testing.B) {
	suite := device.BenchmarkSuite()
	for i := 0; i < b.N; i++ {
		for _, d := range suite {
			built, err := d.Build()
			if err != nil {
				b.Fatal(err)
			}
			st := built.Stats(d.Name, d.Kind.String())
			once("T1:"+d.Name, func() {
				fmt.Printf("T1\t%-14s %-22s atoms=%-6d layers=%-3d orb/atom=%-3d order=%-7d block=%d\n",
					st.Name, st.Kind, st.Atoms, st.Layers, st.OrbitalsAtom, st.MatrixOrder, st.BlockSize)
			})
		}
	}
}

// --- T2: per-energy-point kernel cost, WF vs NEGF --------------------------

func benchWire(b *testing.B) *sparse.BlockTridiag {
	b.Helper()
	s, err := lattice.NewZincblendeNanowire(0.5431, 10, 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	h, err := tb.Assemble(s, tb.SiliconSP3S(), tb.Options{PassivationShift: 12})
	if err != nil {
		b.Fatal(err)
	}
	return h
}

func BenchmarkT2_KernelCost_WF(b *testing.B) {
	h := benchWire(b)
	sol, err := wavefunction.NewSolver(h, 1e-6)
	if err != nil {
		b.Fatal(err)
	}
	solve := func() {
		if _, err := sol.Solve(6.8, false); err != nil {
			b.Fatal(err)
		}
	}
	defer steadyAllocs(solve)()
	perf.ResetFlops()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solve()
	}
	b.StopTimer()
	fl := float64(perf.ResetFlops()) / float64(b.N)
	b.ReportMetric(fl, "flops/solve")
	// The machine model's flops for the same point, read at this device: its
	// interface rank, and the left contact's Γ support — the columns C its
	// coupling touches — as injection width.
	w := machine.Flagship().Resized(h.Layers(), h.LayerSize(0), len(h.Coupling(0).Cols), splitsolve.InterfaceRank(h))
	model := float64(w.TaskFlops())
	b.ReportMetric(model, "model-flops/solve")
	once("T2wf", func() {
		fmt.Printf("T2\tWF solve  \t%.3g flops per (E,k) point (model %.3g, %.2f×)\n", fl, model, model/fl)
	})
}

func BenchmarkT2_KernelCost_NEGF(b *testing.B) {
	h := benchWire(b)
	sol, err := negf.NewSolver(h, 1e-6)
	if err != nil {
		b.Fatal(err)
	}
	solve := func() {
		if _, err := sol.Solve(6.8, false); err != nil {
			b.Fatal(err)
		}
	}
	defer steadyAllocs(solve)()
	perf.ResetFlops()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solve()
	}
	b.StopTimer()
	fl := float64(perf.ResetFlops()) / float64(b.N)
	b.ReportMetric(fl, "flops/solve")
	once("T2negf", func() { fmt.Printf("T2\tNEGF solve\t%.3g flops per (E,k) point\n", fl) })
}

// BenchmarkT2_SigmaMiss is the boundary-condition half of a T2 point: one
// cold SelfEnergyCache.SelfEnergies — registration, one paired decimation,
// two projections — on the leads of the ledger's two sweep devices. The
// energies sit inside a band of each lead, where the decimation runs its
// usual ~25 doublings.
func BenchmarkT2_SigmaMiss(b *testing.B) {
	for _, tc := range []struct {
		device string
		e      float64
	}{{"sinw", 6.5}, {"agnr7", 1.5}} {
		b.Run(tc.device, func(b *testing.B) {
			desc, _ := device.Lookup(tc.device)
			built, err := desc.Build()
			if err != nil {
				b.Fatal(err)
			}
			h, err := tb.Assemble(built.Structure, built.Material, built.Options)
			if err != nil {
				b.Fatal(err)
			}
			leads, err := negf.LeadsFromDevice(h)
			if err != nil {
				b.Fatal(err)
			}
			miss := func() {
				if _, _, err := negf.NewSelfEnergyCache().SelfEnergies(leads, complex(tc.e, 1e-6)); err != nil {
					b.Fatal(err)
				}
			}
			defer steadyAllocs(miss)()
			perf.ResetFlops()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				miss()
			}
			b.StopTimer()
			b.ReportMetric(float64(perf.ResetFlops())/float64(b.N), "flops/miss")
		})
	}
}

// BenchmarkSigmaLanes is the self-energy of a transmission sweep's lane
// group: four consecutive in-band energies of the benchmark grids (AGNR-7:
// ribbon_fabric's 4 meV step at 1.5 eV; the Si nanowire: wire_serial's
// 10 meV step at 1.54 eV, in its conduction band) as one negf.SigmaGroup and its four takes, against
// four solo calls at the same energies. Both count the same flops; ns and
// flops are reported per energy.
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
		leads, err := negf.LeadsFromDevice(h)
		if err != nil {
			b.Fatal(err)
		}
		zs := make([]complex128, linalg.Lanes)
		for i := range zs {
			zs[i] = complex(tc.e0+float64(i)*tc.step, 1e-6)
		}
		run := map[string]func(){
			"group": func() {
				g := leads.SelfEnergyGroup(zs)
				for i := range zs {
					if _, _, err := g.Take(i); err != nil {
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

// --- F1: transmission/DOS spectrum with cross-formalism validation ---------

func BenchmarkF1_Transmission(b *testing.B) {
	s, err := lattice.NewArmchairGNR(7, 10)
	if err != nil {
		b.Fatal(err)
	}
	h, err := tb.Assemble(s, tb.Graphene(), tb.Options{})
	if err != nil {
		b.Fatal(err)
	}
	wf, err := transport.NewEngine(h, transport.Config{Formalism: transport.WaveFunction})
	if err != nil {
		b.Fatal(err)
	}
	gf, err := transport.NewEngine(h, transport.Config{Formalism: transport.NEGFRGF})
	if err != nil {
		b.Fatal(err)
	}
	grid := transport.UniformGrid(-3, 3, 41)
	b.ReportAllocs()
	b.ResetTimer()
	var tw, tg []float64
	for i := 0; i < b.N; i++ {
		tw, err = wf.Transmissions(context.Background(), grid)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	tg, err = gf.Transmissions(context.Background(), grid)
	if err != nil {
		b.Fatal(err)
	}
	var maxDev float64
	for i := range tw {
		if d := tw[i] - tg[i]; d > maxDev {
			maxDev = d
		} else if -d > maxDev {
			maxDev = -d
		}
	}
	b.ReportMetric(maxDev, "maxWFvsNEGF")
	once("F1", func() {
		fmt.Println("F1\t7-AGNR transmission spectrum (E, T_WF, T_NEGF):")
		for i := 0; i < len(grid); i += 5 {
			fmt.Printf("F1\t%+.2f\t%.6f\t%.6f\n", grid[i], tw[i], tg[i])
		}
		fmt.Printf("F1\tmax |T_WF − T_NEGF| = %.3g\n", maxDev)
	})
}

// --- F2: self-consistent Id-Vg of a gated device ----------------------------

func BenchmarkF2_IdVg(b *testing.B) {
	sim, err := core.New(device.Description{
		Name: "AGNR-7 FET", Kind: device.ArmchairGNR, CellsX: 20, CellsY: 7,
	}, transport.Config{})
	if err != nil {
		b.Fatal(err)
	}
	fet, err := core.NewFET(sim)
	if err != nil {
		b.Fatal(err)
	}
	fet.NE = 100
	vgs := []float64{-0.4, -0.1, 0.2, 0.5}
	b.ResetTimer()
	var points []core.IVPoint
	for i := 0; i < b.N; i++ {
		points, err = fet.GateSweep(context.Background(), vgs, 0.2)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	onOff := points[len(points)-1].Current / points[0].Current
	b.ReportMetric(onOff, "on/off")
	if ss, err := core.SubthresholdSlope(points[0], points[1]); err == nil {
		b.ReportMetric(ss, "mV/dec")
	}
	once("F2", func() {
		fmt.Println("F2\tself-consistent Id-Vg at Vd = 0.2 V:")
		for _, p := range points {
			fmt.Printf("F2\tVg=%+.2f\tId=%.4e A\titers=%d\n", p.VGate, p.Current, p.Iterations)
		}
	})
}

// BenchmarkF1_GateSweep_CacheReuse is the headline number for the
// sweep-scale self-energy cache (DESIGN.md §11): one cold gate sweep per
// iteration, with every grid point of every SCF iteration and final
// current pass sharing a single cache, keyed by (block family, energy).
// The hits/op and misses/op metrics pin the reuse ratio the speedup comes
// from; a fresh cache per iteration keeps iterations independent and
// cold-start honest.
func BenchmarkF1_GateSweep_CacheReuse(b *testing.B) {
	sim, err := core.New(device.Description{
		Name: "AGNR-7 FET", Kind: device.ArmchairGNR, CellsX: 12, CellsY: 7,
	}, transport.Config{})
	if err != nil {
		b.Fatal(err)
	}
	fet, err := core.NewFET(sim)
	if err != nil {
		b.Fatal(err)
	}
	fet.NE = 64
	vgs := []float64{-0.4, -0.1, 0.2, 0.5}
	b.ReportAllocs()
	b.ResetTimer()
	var hits, misses int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fet.Cache = negf.NewSelfEnergyCache() // cold sweep, intra-sweep reuse only
		b.StartTimer()
		if _, err := fet.GateSweep(context.Background(), vgs, 0.2); err != nil {
			b.Fatal(err)
		}
		st := fet.Cache.Stats()
		hits += st.Hits
		misses += st.Misses
	}
	b.StopTimer()
	b.ReportMetric(float64(hits)/float64(b.N), "hits/op")
	b.ReportMetric(float64(misses)/float64(b.N), "misses/op")
	once("F1cache", func() {
		fmt.Printf("F1\tgate sweep Σ-cache reuse: %.0f hits, %.0f misses per sweep (%.1f×)\n",
			float64(hits)/float64(b.N), float64(misses)/float64(b.N),
			float64(hits+misses)/float64(misses))
	})
}

// --- F3: SplitSolve domain sweep vs serial solve ----------------------------

func BenchmarkF3_SplitSolve(b *testing.B) {
	// A long device: 48 layers of 40 orbitals, solved the way the
	// wave-function solver does — its reduced open system at one energy
	// (contacts on the couplings' supports; the counted flops depend on
	// those alone), then SplitSolve on it.
	s, err := lattice.NewZincblendeNanowire(0.5431, 48, 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	h, err := tb.Assemble(s, tb.SiliconSP3S(), tb.Options{PassivationShift: 12})
	if err != nil {
		b.Fatal(err)
	}
	left, right := sparse.ColumnSupport(h.Upper[0]), sparse.RowSupport(h.Upper[h.Layers()-2])
	open, err := sparse.NewReducedSystem(h, left, right)
	if err != nil {
		b.Fatal(err)
	}
	z, sigL, sigR := complex(6.8, 1e-6), linalg.New(len(left), len(left)), linalg.New(len(right), len(right))
	ws := linalg.GetWorkspace()
	a := open.At(z, sigL, sigR, ws).A
	rhs := make([]*linalg.Matrix, a.Layers())
	rng := rand.New(rand.NewSource(7))
	for i := range rhs {
		rhs[i] = linalg.New(a.LayerSize(i), 8)
		for j := range rhs[i].Data {
			rhs[i].Data[j] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
	}
	rank := splitsolve.InterfaceRank(a)
	ws.Release()
	for _, p := range []int{1, 2, 4, 8, 16, 32} {
		b.Run(fmt.Sprintf("domains=%d", p), func(b *testing.B) {
			perf.ResetFlops()
			for i := 0; i < b.N; i++ {
				ws := linalg.GetWorkspace()
				if _, err := splitsolve.Solve(context.Background(), open.At(z, sigL, sigR, ws).A, rhs, p, nil); err != nil {
					b.Fatal(err)
				}
				ws.Release()
			}
			b.StopTimer()
			fl := float64(perf.ResetFlops()) / float64(b.N)
			b.ReportMetric(fl, "flops/solve")
			// Modeled parallel wall time of this decomposition (the
			// reduction and the critical domain path + serial interface
			// system) on one Jaguar core per domain — the series whose
			// minimum is the F3 crossover.
			w := machine.Flagship().Resized(h.Layers(), h.LayerSize(0), 8, rank)
			ss, err := w.SplitSolve(p)
			if err != nil {
				b.Fatal(err)
			}
			rate := machine.Jaguar().SustainedFlopsPerCore()
			modeled := (float64(ss.CriticalFlops) + float64(ss.ReducedFlops)) / rate
			b.ReportMetric(float64(ss.Flops), "model-flops/solve")
			b.ReportMetric(modeled*1e3, "modeled-ms")
			once(fmt.Sprintf("F3:%d", p), func() {
				fmt.Printf("F3\tP=%-3d total flops per solve = %.3g (model %.3g)\tmodeled parallel time = %.3f ms\n",
					p, fl, float64(ss.Flops), modeled*1e3)
			})
		})
	}
}

// --- F4, F5, T3, F6: the machine model's studies ------------------------------
//
// Each study is defined once, in internal/machine; its rows are what
// `go run ./cmd/scaling -study X` prints (held to cmd/scaling/testdata and
// quoted in EXPERIMENTS.md). These benchmarks time the same calls and
// report their headlines.

// study runs one machine-model study b.N times and returns its rows.
func study[R any](b *testing.B, run func() ([]R, error)) []R {
	var rows []R
	var err error
	for i := 0; i < b.N; i++ {
		if rows, err = run(); err != nil {
			b.Fatal(err)
		}
	}
	return rows
}

func BenchmarkF4_StrongScaling(b *testing.B) {
	rows := study(b, machine.Jaguar().Strong)
	last := rows[len(rows)-1]
	b.ReportMetric(last.SustainedFlops/1e15, "PFlop/s@221k")
	b.ReportMetric(last.Efficiency, "eff@221k")
}

func BenchmarkF5_WeakScaling(b *testing.B) {
	rows := study(b, machine.Jaguar().Weak)
	last := rows[len(rows)-1]
	b.ReportMetric(last.SustainedFlops/1e15, "PFlop/s@221k")
	b.ReportMetric(last.Efficiency, "eff@221k")
}

func BenchmarkT3_PhaseBreakdown(b *testing.B) {
	rows := study(b, machine.Jaguar().Phases)
	last := rows[len(rows)-1].Breakdown
	b.ReportMetric(last.SelfEnergy, "selfE-s@221k")
	b.ReportMetric(last.Solve, "solve-s@221k")
}

func BenchmarkF6_LevelEfficiency(b *testing.B) {
	for _, r := range study(b, machine.Jaguar().Levels) {
		if r.Level == "domains" && r.Groups == 2 {
			b.ReportMetric(r.Efficiency, "domains-eff@2")
		}
	}
}

// --- F7: GNR engineering figure ----------------------------------------------

func BenchmarkF7_GNR(b *testing.B) {
	var gaps []float64
	widths := []int{4, 5, 6, 7, 8, 9, 10, 11}
	for i := 0; i < b.N; i++ {
		gaps = gaps[:0]
		for _, n := range widths {
			sim, err := core.New(device.Description{
				Name: "AGNR", Kind: device.ArmchairGNR, CellsX: 4, CellsY: n,
			}, transport.Config{})
			if err != nil {
				b.Fatal(err)
			}
			g := 0.0
			if ev, ec, err := sim.ConductionBandEdge(-1.5, 1.5); err == nil {
				g = ec - ev
			}
			gaps = append(gaps, g)
		}
	}
	once("F7", func() {
		fmt.Println("F7\tAGNR gap families (N, Eg eV):")
		for i, n := range widths {
			fmt.Printf("F7\t%d\t%.3f\n", n, gaps[i])
		}
	})
	// Quasi-metallic family check as a metric: gap(5)/gap(7).
	b.ReportMetric(gaps[1]/gaps[3], "gap5/gap7")
}

// BenchmarkA1_GemmBlocking is the kernel ablation: the blocked GEMM versus
// a naive triple loop at a transport-typical block size.
func BenchmarkA1_GemmBlocked(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 160
	a := linalg.New(n, n)
	c := linalg.New(n, n)
	for i := range a.Data {
		a.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		c.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.Mul(c)
	}
}

func BenchmarkA1_GemmNaive(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 160
	a := linalg.New(n, n)
	c := linalg.New(n, n)
	for i := range a.Data {
		a.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		c.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		out := linalg.New(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				var s complex128
				for k := 0; k < n; k++ {
					s += a.At(i, k) * c.At(k, j)
				}
				out.Set(i, j, s)
			}
		}
	}
}

// BenchmarkA2_SelfEnergyCache is the design-choice ablation for the
// contact self-energy cache used by the self-consistent loop.
func BenchmarkA2_SelfEnergyCache(b *testing.B) {
	h := benchWire(b)
	grid := transport.UniformGrid(6.4, 7.4, 20)
	for _, cached := range []bool{false, true} {
		name := "off"
		if cached {
			name = "on"
		}
		b.Run("cache="+name, func(b *testing.B) {
			cfg := transport.Config{}
			if cached {
				cfg.Cache = negf.NewSelfEnergyCache()
			}
			for i := 0; i < b.N; i++ {
				// Two engines sharing (or not) the cache — the shape of a
				// two-iteration self-consistent step.
				for rep := 0; rep < 2; rep++ {
					eng, err := transport.NewEngine(h, cfg)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := eng.Transmissions(context.Background(), grid); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkA3_InjectionRank ablates the low-rank Γ injection of the WF
// solver against the RGF solver that cannot exploit it.
func BenchmarkA3_InjectionRank(b *testing.B) {
	h := benchWire(b)
	wf, err := wavefunction.NewSolver(h, 1e-6)
	if err != nil {
		b.Fatal(err)
	}
	perf.ResetFlops()
	for i := 0; i < b.N; i++ {
		if _, err := wf.Solve(6.8, true); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(perf.ResetFlops())/float64(b.N), "flops/solve")
}

// BenchmarkA5 ablates the fused in-place kernels against their
// materializing equivalents on the Caroli contraction
// T = Tr[Γ_L·G·Γ_R·G†] at a transport-typical block size: the fused path
// runs the triple product through one workspace-backed GemmInto chain and
// folds the adjoint into an O(n²) trace; the materialized path builds
// G†, the full four-matrix product, and every intermediate.
func a5Operands(b *testing.B) (gamL, g, gamR *linalg.Matrix) {
	b.Helper()
	rng := rand.New(rand.NewSource(5))
	n := 160
	gamL, g, gamR = linalg.New(n, n), linalg.New(n, n), linalg.New(n, n)
	for i := range g.Data {
		gamL.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		g.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		gamR.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return gamL, g, gamR
}

func BenchmarkA5_CaroliFused(b *testing.B) {
	gamL, g, gamR := a5Operands(b)
	n := g.Rows
	perf.ResetFlops()
	b.ReportAllocs()
	b.ResetTimer()
	var t float64
	for i := 0; i < b.N; i++ {
		ws := linalg.GetWorkspace()
		tns := ws.Get(n, n)
		linalg.Mul3Into(tns, gamL, linalg.NoTrans, g, linalg.NoTrans, gamR, linalg.NoTrans, ws)
		t = real(linalg.TraceMulConj(tns, g))
		ws.Release()
	}
	b.StopTimer()
	b.ReportMetric(float64(perf.ResetFlops())/float64(b.N), "flops/op")
	once("A5fused", func() { fmt.Printf("A5\tfused Caroli trace = %.6g\n", t) })
}

func BenchmarkA5_CaroliMaterialized(b *testing.B) {
	gamL, g, gamR := a5Operands(b)
	n := g.Rows
	perf.ResetFlops()
	b.ReportAllocs()
	b.ResetTimer()
	var t float64
	for i := 0; i < b.N; i++ {
		ws := linalg.GetWorkspace()
		lgr := linalg.New(n, n)
		linalg.Mul3Into(lgr, gamL, linalg.NoTrans, g, linalg.NoTrans, gamR, linalg.NoTrans, ws)
		ws.Release()
		t = real(lgr.Mul(g.ConjTranspose()).Trace())
	}
	b.StopTimer()
	b.ReportMetric(float64(perf.ResetFlops())/float64(b.N), "flops/op")
	once("A5mat", func() { fmt.Printf("A5\tmaterialized Caroli trace = %.6g\n", t) })
}
