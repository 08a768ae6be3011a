package machine_test

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/device"
	"repro/internal/linalg"
	"repro/internal/machine"
	"repro/internal/negf"
	"repro/internal/perf"
	"repro/internal/sparse"
	"repro/internal/splitsolve"
	"repro/internal/tb"
)

func small() machine.Workload {
	return machine.Workload{
		NBias: 2, NK: 3, NE: 16,
		NLayers: 12, BlockSize: 8, RHSWidth: 8,
		SelfEnergyIterations: 20,
	}
}

func TestWorkloadValidate(t *testing.T) {
	w := small()
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := w
	bad.NE = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("accepted zero energy points")
	}
	bad = w
	bad.NLayers = 1
	if err := bad.Validate(); err == nil {
		t.Fatal("accepted single-layer device")
	}
	// Two contacts inject at most their Γ supports, rank columns each.
	bad = w
	bad.CouplingRank, bad.RHSWidth = 2, 5
	if err := bad.Validate(); err == nil {
		t.Fatal("accepted 5 injection columns at coupling rank 2")
	}
}

func TestAutoDecomposeSaturatesLevels(t *testing.T) {
	w := small() // 2×3×16 tasks, 12 layers
	d, err := machine.AutoDecompose(2*3*16, w)
	if err != nil {
		t.Fatal(err)
	}
	if d.Bias != 2 || d.Momentum != 3 || d.Energy != 16 || d.Domains != 1 {
		t.Fatalf("decomposition %v did not saturate the cheap levels first", d)
	}
	// With more cores than tasks, spatial domains absorb the rest.
	d2, err := machine.AutoDecompose(2*3*16*4, w)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Domains != 4 {
		t.Fatalf("excess cores not spent on domains: %v", d2)
	}
	// Never exceeds the budget.
	if d2.Cores() > 2*3*16*4 {
		t.Fatalf("decomposition %v exceeds its core budget", d2)
	}
}

func TestPredictBasicInvariants(t *testing.T) {
	m := machine.Jaguar()
	w := machine.Flagship()
	for _, cores := range []int{12, 1200, 12000, 120000} {
		r, err := m.PredictAuto(w, cores)
		if err != nil {
			t.Fatalf("%d cores: %v", cores, err)
		}
		if r.WallTime <= 0 {
			t.Fatalf("%d cores: non-positive wall time", cores)
		}
		if r.Efficiency <= 0 || r.Efficiency > 1+1e-9 {
			t.Fatalf("%d cores: efficiency %g outside (0, 1]", cores, r.Efficiency)
		}
		peak := float64(r.CoresUsed) * m.PeakFlopsPerCore
		if r.SustainedFlops > peak {
			t.Fatalf("%d cores: sustained %g exceeds peak %g", cores, r.SustainedFlops, peak)
		}
		// Breakdown must reassemble the wall time.
		if math.Abs(r.Breakdown.Total()-r.WallTime) > 1e-6*r.WallTime {
			t.Fatalf("%d cores: breakdown %g != wall %g", cores, r.Breakdown.Total(), r.WallTime)
		}
	}
}

func TestStrongScalingShape(t *testing.T) {
	m := machine.Jaguar()
	w := machine.Flagship()
	counts := []int{1344, 5376, 21504, 86016, 221400}
	reports, err := m.StrongScaling(w, counts)
	if err != nil {
		t.Fatal(err)
	}
	// Wall time must decrease monotonically with core count.
	for i := 1; i < len(reports); i++ {
		if reports[i].WallTime >= reports[i-1].WallTime {
			t.Fatalf("no speedup from %d to %d cores: %g vs %g s",
				counts[i-1], counts[i], reports[i-1].WallTime, reports[i].WallTime)
		}
	}
	// Efficiency must roll off at scale (the paper's curves bend once the
	// embarrassing levels saturate and domain overheads appear).
	if reports[len(reports)-1].Efficiency >= reports[0].Efficiency {
		t.Fatal("efficiency did not roll off at scale")
	}
	// The flagship point: sustained performance at 221,400 cores must be
	// petaflop-class — the 1.44 PFlop/s headline within modeling slack.
	last := reports[len(reports)-1]
	if last.SustainedFlops < 0.7e15 || last.SustainedFlops > 2.5e15 {
		t.Fatalf("221,400-core sustained %.3g Flop/s not petaflop-class", last.SustainedFlops)
	}
}

func TestDomainsOnlyAmdahl(t *testing.T) {
	// With a single (bias,k,E) task, all parallelism must come from
	// domains, whose reduced system caps the speedup (Amdahl).
	m := machine.Jaguar()
	w := machine.Flagship()
	w.NBias, w.NK, w.NE = 1, 1, 1
	base, err := m.Predict(w, machine.Decomposition{Bias: 1, Momentum: 1, Energy: 1, Domains: 1})
	if err != nil {
		t.Fatal(err)
	}
	prevSpeedup := 0.0
	sat := false
	for _, p := range []int{2, 4, 8, 16, 32, 64, 128} {
		if p > w.NLayers {
			break
		}
		r, err := m.Predict(w, machine.Decomposition{Bias: 1, Momentum: 1, Energy: 1, Domains: p})
		if err != nil {
			t.Fatal(err)
		}
		s := r.Speedup(base)
		if s < prevSpeedup*0.5 {
			sat = true // strong saturation/regression appears
		}
		prevSpeedup = s
	}
	// Speedup at the largest domain count must be visibly sublinear.
	rMax, err := m.Predict(w, machine.Decomposition{Bias: 1, Momentum: 1, Energy: 1, Domains: 128})
	if err != nil {
		t.Fatal(err)
	}
	if rMax.Speedup(base) > 128*0.7 {
		t.Fatalf("domain-level speedup %g at P=128 is implausibly linear", rMax.Speedup(base))
	}
	_ = sat
}

func TestCommunicationMatters(t *testing.T) {
	// A zero-latency, infinite-bandwidth machine must predict a shorter
	// wall time for a domain-decomposed run.
	w := machine.Flagship()
	w.NBias, w.NK, w.NE = 1, 1, 4
	m := machine.Jaguar()
	fast := m
	fast.Latency = 0
	fast.Bandwidth = 1e15
	d := machine.Decomposition{Bias: 1, Momentum: 1, Energy: 4, Domains: 16}
	slow, err := m.Predict(w, d)
	if err != nil {
		t.Fatal(err)
	}
	quick0, err := fast.Predict(w, d)
	if err != nil {
		t.Fatal(err)
	}
	if quick0.WallTime >= slow.WallTime {
		t.Fatal("removing communication cost did not reduce wall time")
	}
	if slow.Breakdown.Communication <= 0 {
		t.Fatal("communication phase missing from breakdown")
	}
}

func TestPredictValidation(t *testing.T) {
	m := machine.Jaguar()
	w := small()
	if _, err := m.Predict(w, machine.Decomposition{Bias: 0, Momentum: 1, Energy: 1, Domains: 1}); err == nil {
		t.Fatal("accepted zero-level decomposition")
	}
	if _, err := m.Predict(w, machine.Decomposition{Bias: 3, Momentum: 1, Energy: 1, Domains: 1}); err == nil {
		t.Fatal("accepted bias level above task count")
	}
	if _, err := m.Predict(w, machine.Decomposition{Bias: 1, Momentum: 1, Energy: 1, Domains: 20}); err == nil {
		t.Fatal("accepted more domains than layers")
	}
	huge := machine.Decomposition{Bias: 2, Momentum: 3, Energy: 16, Domains: 12}
	m2 := m
	m2.TotalCores = 100
	if _, err := m2.Predict(w, huge); err == nil {
		t.Fatal("accepted decomposition beyond machine size")
	}
}

func TestSplitSolveCostCrossover(t *testing.T) {
	// The domains' work falls as 1/P while the reduced system — P dense
	// groups two layers wide, solved serially — grows with P, on top of the
	// layer reduction every P pays ahead of the domains. On the flagship the
	// per-solve time is minimised at P = 5, below P = 1 and P = 2; by P = 16
	// the interface system has made it slower than the serial solve, and it
	// keeps rising — the crossover F3 measures.
	const best = 5
	w := machine.Flagship()
	rate := machine.Jaguar().SustainedFlopsPerCore()
	timeAt := func(p int) float64 {
		ss, err := w.SplitSolve(p)
		if err != nil {
			t.Fatal(err)
		}
		return (float64(ss.CriticalFlops) + float64(ss.ReducedFlops)) / rate
	}
	argmin := 1
	for p := 2; p <= w.NLayers; p++ {
		if timeAt(p) < timeAt(argmin) {
			argmin = p
		}
	}
	if argmin != best {
		t.Fatalf("the model's per-solve time is minimised at P = %d, want %d", argmin, best)
	}
	if t1, t16 := timeAt(1), timeAt(16); t16 <= t1 {
		t.Fatalf("no reduced-system crossover: t(16)=%g ≤ t(1)=%g", t16, t1)
	}
	if t16, t128 := timeAt(16), timeAt(128); t128 <= t16 {
		t.Fatalf("reduced system stopped growing: t(128)=%g ≤ t(16)=%g", t128, t16)
	}
}

// TestModelChargesCountedFlops fences the model against drifting from the
// product: on a uniform device whose couplings have |R| = |C| (SiUTB) under
// a gate-like potential — every layer a record of its own, as the model
// assumes — the model's WF solve charges exactly the flops the wave-function
// solver's transmission solve counts at its width (the reduced open system at
// z and one SolveLast on it, every R_i the last rows of its layer), and its
// self-energies — on the flat device,
// whose two contacts share a cell — exactly those of one paired miss once SelfEnergyIterations is the iteration count that miss
// took — recovered, as the negf kernel test recovers it, from the count
// alone.
func TestModelChargesCountedFlops(t *testing.T) {
	built, err := device.Description{Name: "utb", Kind: device.SiUTB, CellsX: 6, CellsY: 1, CellsZ: 1}.Build()
	if err != nil {
		t.Fatal(err)
	}
	flat, err := tb.Assemble(built.Structure, built.Material, built.Options)
	if err != nil {
		t.Fatal(err)
	}
	built.Options.Potential = make([]float64, built.Structure.NAtoms())
	for i, a := range built.Structure.Atoms {
		built.Options.Potential[i] = 0.05 * float64(a.Layer)
	}
	h, err := tb.Assemble(built.Structure, built.Material, built.Options)
	if err != nil {
		t.Fatal(err)
	}
	rank := splitsolve.InterfaceRank(h)
	for i := range h.Upper {
		if r, c := len(h.Coupling(i).Rows), len(h.Coupling(i).Cols); r != rank || c != rank || h.LayerSize(i) != h.LayerSize(0) {
			t.Fatalf("coupling %d is %d×%d of %d orbitals; the device is not uniform with |R| = |C|", i, r, c, h.LayerSize(i))
		}
	}
	w := machine.Flagship().Resized(h.Layers(), h.LayerSize(0), 2*rank, rank)
	ws := linalg.GetWorkspace()
	defer ws.Release()
	z := complex(0.8, 1e-6)
	open, err := sparse.NewReducedSystem(h, sparse.ColumnSupport(h.Upper[0]), sparse.RowSupport(h.Upper[h.Layers()-2]))
	if err != nil {
		t.Fatal(err)
	}
	sigma := linalg.New(rank, rank) // counted flops depend on the supports alone
	perf.ResetFlops()
	red := open.At(z, sigma, sigma, ws)
	rhs := make([]*linalg.Matrix, h.Layers()) // and on the width alone
	for i := range rhs {
		if s := red.A.LayerSize(i); s != 2*rank {
			t.Fatalf("layer %d keeps %d orbitals at z = %v, want 2·rank = %d: the model's reduced layer", i, s, z, 2*rank)
		}
		rhs[i] = linalg.New(red.A.LayerSize(i), w.RHSWidth)
	}
	if _, err := red.A.SolveLast(rhs, ws); err != nil {
		t.Fatal(err)
	}
	if got, want := perf.ResetFlops(), w.WFSolveFlops(); got != want {
		t.Errorf("one reduced solve at width %d counted %d flops, the model charges %d", w.RHSWidth, got, want)
	}

	// The flat device's two contacts continue one cell: one paired miss.
	leads, err := negf.LeadsFromDevice(flat)
	if err != nil {
		t.Fatal(err)
	}
	perf.ResetFlops()
	if _, _, err := leads.SelfEnergies(z); err != nil {
		t.Fatal(err)
	}
	got := perf.ResetFlops()
	at := func(iters int) int64 { w.SelfEnergyIterations = iters; return w.SelfEnergyFlops() }
	fixed, per := at(0), at(1)-at(0)
	iters := int((got - fixed) / per)
	if (got-fixed)%per != 0 || iters < 1 || iters > 60 { // 60: negf's surfaceMaxIter
		t.Fatalf("a paired miss counted %d flops: %d fixed plus %.3f iterations of %d", got, fixed, float64(got-fixed)/float64(per), per)
	}
	if model := at(iters); model != got {
		t.Errorf("a paired miss of %d iterations counted %d flops, the model charges %d", iters, got, model)
	}
}

func TestQuickAutoDecomposeBudget(t *testing.T) {
	w := machine.Flagship()
	f := func(coresRaw uint32) bool {
		cores := int(coresRaw%500000) + 1
		d, err := machine.AutoDecompose(cores, w)
		if err != nil {
			return false
		}
		return d.Cores() <= cores && d.Validate(w) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAutoDecomposeSingleCore(t *testing.T) {
	w := machine.Workload{NBias: 4, NK: 3, NE: 16, NLayers: 10, BlockSize: 8, RHSWidth: 8, SelfEnergyIterations: 5}
	d, err := machine.AutoDecompose(1, w)
	if err != nil {
		t.Fatal(err)
	}
	if d != (machine.Decomposition{Bias: 1, Momentum: 1, Energy: 1, Domains: 1}) {
		t.Fatalf("cores=1 gave %v, want all-serial", d)
	}
	if d.Cores() != 1 {
		t.Fatalf("Cores() = %d", d.Cores())
	}
}

func TestAutoDecomposeCoresExceedTasks(t *testing.T) {
	w := machine.Workload{NBias: 2, NK: 3, NE: 4, NLayers: 5, BlockSize: 8, RHSWidth: 8, SelfEnergyIterations: 5}
	// Far more cores than bias×k×E×layers: every level must saturate at
	// its task count and never exceed it.
	d, err := machine.AutoDecompose(1_000_000, w)
	if err != nil {
		t.Fatal(err)
	}
	want := machine.Decomposition{Bias: 2, Momentum: 3, Energy: 4, Domains: 5}
	if d != want {
		t.Fatalf("got %v, want fully saturated %v", d, want)
	}
	if err := d.Validate(w); err != nil {
		t.Fatalf("saturated decomposition invalid: %v", err)
	}
}

func TestAutoDecomposeNonDivisibleCores(t *testing.T) {
	w := machine.Workload{NBias: 2, NK: 2, NE: 100, NLayers: 20, BlockSize: 8, RHSWidth: 8, SelfEnergyIterations: 5}
	for _, cores := range []int{3, 7, 11, 13, 97} {
		d, err := machine.AutoDecompose(cores, w)
		if err != nil {
			t.Fatalf("cores=%d: %v", cores, err)
		}
		if d.Cores() > cores {
			t.Fatalf("cores=%d: decomposition %v uses %d cores", cores, d, d.Cores())
		}
		if err := d.Validate(w); err != nil {
			t.Fatalf("cores=%d: %v", cores, err)
		}
	}
	// A prime budget smaller than NBias goes entirely to the bias level.
	d, err := machine.AutoDecompose(7, machine.Workload{NBias: 16, NK: 2, NE: 4, NLayers: 5, BlockSize: 8, RHSWidth: 8, SelfEnergyIterations: 5})
	if err != nil {
		t.Fatal(err)
	}
	if d.Bias != 7 || d.Momentum != 1 || d.Energy != 1 || d.Domains != 1 {
		t.Fatalf("prime budget split oddly: %v", d)
	}
}

func TestAutoDecomposeInvalidInputs(t *testing.T) {
	w := machine.Workload{NBias: 2, NK: 2, NE: 4, NLayers: 5, BlockSize: 8, RHSWidth: 8, SelfEnergyIterations: 5}
	if _, err := machine.AutoDecompose(0, w); err == nil {
		t.Fatal("cores=0 accepted")
	}
	if _, err := machine.AutoDecompose(-5, w); err == nil {
		t.Fatal("negative cores accepted")
	}
	if _, err := machine.AutoDecompose(4, machine.Workload{}); err == nil {
		t.Fatal("invalid workload accepted")
	}
}

func TestPredictEnergyImbalance(t *testing.T) {
	base := machine.Workload{
		NBias: 2, NK: 2, NE: 64, NLayers: 12, BlockSize: 16, RHSWidth: 16,
		SelfEnergyIterations: 5,
	}
	m := machine.Jaguar()
	d := machine.Decomposition{Bias: 2, Momentum: 2, Energy: 16, Domains: 1}

	uniform, err := m.Predict(base, d)
	if err != nil {
		t.Fatal(err)
	}
	if uniform.Breakdown.Imbalance != 0 {
		t.Fatalf("CV=0 with divisible groups predicted imbalance %g", uniform.Breakdown.Imbalance)
	}

	hetero := base
	hetero.EnergyCostCV = 0.3
	spread, err := m.Predict(hetero, d)
	if err != nil {
		t.Fatal(err)
	}
	if spread.Breakdown.Imbalance <= 0 {
		t.Fatalf("CV=0.3 predicted no imbalance")
	}
	if spread.WallTime <= uniform.WallTime {
		t.Fatalf("heterogeneous points did not slow the sweep: %g vs %g",
			spread.WallTime, uniform.WallTime)
	}
	if spread.Efficiency >= uniform.Efficiency {
		t.Fatalf("imbalance did not cost efficiency: %g vs %g",
			spread.Efficiency, uniform.Efficiency)
	}

	// CV only bites when the energy level is actually split (g > 1).
	serial := machine.Decomposition{Bias: 2, Momentum: 2, Energy: 1, Domains: 1}
	su, err := m.Predict(base, serial)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := m.Predict(hetero, serial)
	if err != nil {
		t.Fatal(err)
	}
	if su.WallTime != sh.WallTime {
		t.Fatalf("CV changed wall time with a single energy group: %g vs %g", su.WallTime, sh.WallTime)
	}
}
