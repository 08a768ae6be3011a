package negf

import (
	"errors"
	"math"
	"math/cmplx"
	"slices"
	"sync"
	"testing"

	"repro/internal/device"
	"repro/internal/linalg"
	"repro/internal/perf"
	"repro/internal/sparse"
	"repro/internal/tb"
)

// closeToDense holds one self-energy of fam at z to the layer's whole
// partition (denseTwin): within 1e-9·max(1, ‖Σ‖) of it, or — where Σ itself
// is ill-conditioned, next to a band edge — with a Dyson residual no worse
// than 4× the twin's. It reports whether the energy ran on the interior-
// eliminated layer (different bits from the twin) at all.
func closeToDense(t *testing.T, what string, fam *blockFamily, z complex128, want sideSet) (compressed bool) {
	t.Helper()
	got, err := fam.selfEnergies(z, want)
	if err != nil {
		t.Fatalf("%s z=%v: %v", what, z, err)
	}
	ref, err := denseTwin(fam).selfEnergies(z, want)
	if err != nil {
		t.Fatalf("%s z=%v, empty interior: %v", what, z, err)
	}
	for _, s := range [2]side{left, right} {
		if !want.has(s) {
			if got[s] != nil {
				t.Errorf("%s: the %s side was finished unasked", what, sideNames[s])
			}
			continue
		}
		if sparse.SameBits(got[s], ref[s]) {
			continue
		}
		compressed = true
		if d := maxAbsDiffT(t, got[s], ref[s]); d > 1e-9*math.Max(1, sparse.MaxAbs(ref[s])) {
			res, resRef := dysonResidual(t, fam, z, got[s], s), dysonResidual(t, fam, z, ref[s], s)
			if res > 4*resRef {
				t.Errorf("%s z=%v %s: %.3g from the whole layer's Σ (‖Σ‖ = %.3g), Dyson residual %.3g against its %.3g",
					what, z, sideNames[s], d, sparse.MaxAbs(ref[s]), res, resRef)
			}
		}
	}
	return compressed
}

// TestAdversarialEnergies parks Re z on and around every level of the
// eliminated block h00[I,I] inside the sweep window, at the broadenings a
// run may use: the energies at which the effective layer carries a pole of
// size 1/δ and an absolute error of ε/δ². Every Σ must stay within
// 1e-9·max(1, ‖Σ‖) of the layer's whole partition's, or — where Σ itself is
// ill-conditioned — match its Dyson residual to 4×. The offsets reach past
// the guard's radius, InteriorGuard·max|z − λ| (0.03–0.06 eV where passivation
// puts interior levels at 31–56 eV), so every family runs eliminated
// energies next to its levels. With wavefunction's
// TestReducedAdversarialEnergies this is the test that sets
// sparse.InteriorGuard, the one guard of the one elimination; with the guard
// a variable it counted, over the seven families, both η and 29 offsets
// (1530 energies):
//
//	guard 0     262 failures, worst relative error 2.6e+7 (AGNR-7 on a level, η = 1e-8)
//	guard 1e-6   17 failures, worst 1.5e-6 (AGNR-7, 1e-5 off a level)
//	guard 1e-5    7 failures, worst 3.9e-8
//	guard 1e-4    0 failures, worst 5.0e-9 (SiUTB, η = 1e-8, Dyson residual within 4×)
//	guard 1e-3    0 failures, worst 2.5e-9 (SiUTB, η = 1e-6, the same)
//
// The guard is 1e-4, the smallest with no failure: a sweep keeps the lead
// layer whole at 0 of AGNR-7's 1,500 energies on [−3, 3] eV, 3 of
// SiNW-sp3s*'s 400 and 14 of SiNW-2x2's 400 on [−2, 2] (at 1e-3: 8, 26 and
// 122).
func TestAdversarialEnergies(t *testing.T) {
	offsets := []float64{0}
	for d := 1e-7; d < 5e-1; d *= math.Sqrt(10) {
		offsets = append(offsets, d, -d)
	}
	coarse := []float64{0, 1e-6, -1e-4, 1e-2, 1e-1}
	var guarded int
	for name, leads := range suiteLeads(t) {
		fam := familyOf(t, leads.spec(left))
		sup, levels := partitionOf(t, fam)
		if len(levels) == 0 {
			t.Errorf("%s: a T1 family without an interior; the table wants one", name)
			continue
		}
		offs := offsets
		if n := fam.h00.Rows; n > 80 || (testing.Short() && n > 14) {
			offs = coarse
		}
		var asked, compressed int
		for _, e := range levels {
			if e < -3 || e > 8 || (len(offs) == len(coarse) && asked >= 8*2*len(coarse)) {
				continue
			}
			for _, eta := range []float64{1e-6, 1e-8} {
				for _, off := range offs {
					asked++
					if closeToDense(t, name, fam, complex(e+off, eta), bothSides) {
						compressed++
					}
				}
			}
		}
		t.Logf("%-14s n=%-3d s=%-3d %d energies around interior levels, %d ran on the eliminated interior", name, fam.h00.Rows, sup, asked, compressed)
		if compressed == 0 {
			t.Errorf("%s: none of %d energies ran on the eliminated interior; the comparison is vacuous", name, asked)
		}
		guarded += asked - compressed
	}
	if guarded == 0 {
		t.Error("no energy kept the layer whole; the guard was never exercised")
	}
}

// TestEliminationFailureRerunsWhole: 8.8e-7 eV from a level of AGNR-7's
// full h00 (1.3976228435536093 eV; not a level of the interior, so the guard
// lets the elimination run) the eliminated recursion overflows, and the
// whole layer's converges. A miss there reruns on the whole layer: it returns
// the whole layer's Σ bit for bit, with the Dyson residual of a band edge.
// At E = 1.3976219674 eV, a sweep energy of the benchmark's AGNR-7 pool.
func TestEliminationFailureRerunsWhole(t *testing.T) {
	fam := familyOf(t, suiteLeads(t)["AGNR-7"].spec(left))
	z := complex(1.3976219674314385, 1e-6)
	ws := linalg.GetWorkspace()
	defer ws.Release()
	layer := fam.layer.At(z, ws)
	if layer.Rows == fam.h00.Rows {
		t.Fatal("the guard keeps the layer whole here; the rerun is not exercised")
	}
	set := sparse.SoloSet(ws)
	if _, _, errs := fam.recursion(&set, sparse.Block{M: layer}, bothSides, 1); !errors.Is(errs[0], ErrNoConvergence) {
		t.Fatalf("the eliminated recursion alone returned %v, want ErrNoConvergence; the rerun is not exercised", errs[0])
	}
	got, err := fam.selfEnergies(z, bothSides)
	if err != nil {
		t.Fatal(err)
	}
	want, err := denseTwin(fam).selfEnergies(z, bothSides)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range [2]side{left, right} {
		if !sparse.SameBits(got[s], want[s]) {
			t.Errorf("%s: Σ differs from the whole layer's by %.3g", sideNames[s], maxAbsDiffT(t, got[s], want[s]))
		}
		if res := dysonResidual(t, fam, z, got[s], s); res > 1e-4*math.Max(1, sparse.MaxAbs(got[s])) {
			t.Errorf("%s: Dyson residual %.3g (‖Σ‖ = %.3g)", sideNames[s], res, sparse.MaxAbs(got[s]))
		}
	}
}

// randomLead returns seeded lead blocks: a Hermitian h00 and a coupling
// whose entries outside rows×cols are exactly zero.
func randomLead(n int, rows, cols []int, phase complex128) (h00, h01 *linalg.Matrix) {
	state := uint64(0x9e3779b97f4a7c15)
	next := func() float64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return float64(state>>11)/float64(1<<53) - 0.5
	}
	h00, h01 = linalg.New(n, n), linalg.New(n, n)
	for i := 0; i < n; i++ {
		h00.Set(i, i, complex(next(), 0))
		for j := i + 1; j < n; j++ {
			v := complex(next(), next()) * phase
			h00.Set(i, j, v)
			h00.Set(j, i, cmplx.Conj(v))
		}
	}
	for _, i := range rows {
		for _, j := range cols {
			h01.Set(i, j, complex(next(), next())*phase)
		}
	}
	return h00, h01
}

// TestAdversarialShapes runs the kernel on the lead shapes the partition has
// to get right at its corners, each held to the layer's whole partition
// and to its own Dyson equation.
func TestAdversarialShapes(t *testing.T) {
	utb, err := device.Description{Name: "utb", Kind: device.SiUTB, CellsX: 6, CellsY: 1, CellsZ: 1}.Build()
	if err != nil {
		t.Fatal(err)
	}
	// -nk 2 samples ky = ±π/(2·PeriodY): the wrapped bonds carry e^{±iπ/2}.
	utb.Options.Ky = math.Pi / (2 * utb.Structure.PeriodY)
	hUTB, err := tb.Assemble(utb.Structure, utb.Material, utb.Options)
	if err != nil {
		t.Fatal(err)
	}
	utbLeads, err := LeadsFromDevice(hUTB)
	if err != nil {
		t.Fatal(err)
	}
	var phased bool
	for _, v := range utbLeads.L01.Data {
		phased = phased || imag(v) != 0
	}
	if !phased {
		t.Fatal("utb at ky = π/2b has a real h01; the Bloch-phased case is vacuous")
	}
	chain := chainLeads(t, -1, 0)
	full00, full01 := randomLead(6, sparse.Range(0, 6), sparse.Range(0, 6), 1)
	overlap00, overlap01 := randomLead(9, []int{0, 1, 4}, []int{1, 4, 7, 8}, 1i)
	zero00, _ := randomLead(5, nil, nil, 1)

	cases := []struct {
		name       string
		spec       leadSpec
		sup, in    int // |S| and |I| of the partition
		want       sideSet
		wantZero   bool
		energies   []float64
		compressed bool // some energy must run on the eliminated interior
	}{
		{name: "n = 1 chain", spec: chain.spec(left), sup: 1, in: 0, want: bothSides, energies: []float64{-1.2, 0.3, 2.6}},
		{name: "all-zero coupling", spec: leadSpec{side: right, h00: zero00, h01: linalg.New(5, 5)}, sup: 0, in: 5, want: 1 << right, wantZero: true, energies: []float64{-0.4, 0.1}},
		{name: "S = everything", spec: leadSpec{side: left, h00: full00, h01: full01}, sup: 6, in: 0, want: bothSides, energies: []float64{-0.7, 0.05, 0.9}},
		{name: "R and C overlap, complex blocks", spec: leadSpec{side: right, h00: overlap00, h01: overlap01}, sup: 5, in: 4, want: bothSides, energies: []float64{-0.6, 0.2, 1.1}, compressed: true},
		{name: "utb -nk 2 (Bloch-phased h01)", spec: utbLeads.spec(left), sup: 20, in: 20, want: bothSides, energies: []float64{-1.5, 0.8, 2.2, 3.1}, compressed: true},
		{name: "one side asked alone", spec: leadSpec{side: right, h00: overlap00, h01: overlap01}, sup: 5, in: 4, want: 1 << right, energies: []float64{0.2}, compressed: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fam := familyOf(t, tc.spec)
			if got, levels := partitionOf(t, fam); got != tc.sup || len(levels) != tc.in {
				t.Fatalf("partition has |S| = %d, |I| = %d; want %d and %d", got, len(levels), tc.sup, tc.in)
			}
			var compressed bool
			for _, e := range tc.energies {
				for _, eta := range []float64{1e-6, 1e-8} {
					z := complex(e, eta)
					if closeToDense(t, tc.name, fam, z, tc.want) {
						compressed = true
					}
					sig, err := fam.selfEnergies(z, tc.want)
					if err != nil {
						t.Fatal(err)
					}
					for _, s := range [2]side{left, right} {
						if sig[s] == nil {
							continue
						}
						if tc.wantZero && sparse.MaxAbs(sig[s]) != 0 {
							t.Errorf("z=%v: a lead nothing couples to has ‖Σ‖ = %g, want 0", z, sparse.MaxAbs(sig[s]))
						}
						if res := dysonResidual(t, fam, z, sig[s], s); res > 1e-9*math.Max(1, sparse.MaxAbs(sig[s])) {
							t.Errorf("z=%v %s: Dyson residual %.3g", z, sideNames[s], res)
						}
					}
				}
			}
			if compressed != tc.compressed {
				t.Errorf("ran on an eliminated interior: %v, want %v", compressed, tc.compressed)
			}
		})
	}
}

// TestSelfEnergySupport: Σ_R is the r×r block on R×R and Σ_L the c×c block
// on C×C, with R and C the row and column supports of the canon's h01 — the
// lead's own supports (Leads.Supports), on which every solver reads it.
// Outside them h·(z − h00 − Σ)⁻¹·h† is exactly zero, so the block is all of
// Σ, and Embed puts it where the Dyson equation does.
func TestSelfEnergySupport(t *testing.T) {
	z := complex(0.5, 1e-6)
	for name, leads := range suiteLeads(t) {
		fam := familyOf(t, leads.spec(left))
		supL, supR := leads.Supports()
		if !slices.Equal(supL, fam.cols) || !slices.Equal(supR, fam.rows) {
			t.Fatalf("%s: the leads' supports %v, %v are not the family's %v, %v", name, supL, supR, fam.cols, fam.rows)
		}
		sig, err := fam.selfEnergies(z, bothSides)
		if err != nil {
			t.Fatal(err)
		}
		full := [2]*linalg.Matrix{}
		full[left], full[right] = leads.Embed(sig[left], sig[right])
		for s, on := range [2][]int{left: fam.cols, right: fam.rows} {
			if k := len(on); sig[s].Rows != k || sig[s].Cols != k {
				t.Fatalf("%s Σ_%s is %d×%d, its support has %d orbitals", name, sideNames[s], sig[s].Rows, sig[s].Cols, k)
			}
			n := fam.h00.Rows
			dyson := dysonImage(t, fam, z, full[s], side(s))
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					in := slices.Contains(on, i) && slices.Contains(on, j)
					if v := dyson.At(i, j); v != 0 && !in {
						t.Fatalf("%s h·g·h†[%d,%d] = %v outside Σ_%s's support %v", name, i, j, v, sideNames[s], on)
					}
					if v := full[s].At(i, j); v != 0 && !in {
						t.Fatalf("%s embedded Σ_%s[%d,%d] = %v outside its support", name, sideNames[s], i, j, v)
					}
				}
			}
		}
	}
}

// TestSelfEnergyFlopCount is the "flop totals exact" contract of the
// self-energy kernel: a paired miss counts SelfEnergyFlops at the family's
// (n, s, |R|, |C|) — s the size of its effective layer at z, |S| or, where
// the guard keeps the layer whole, n — for a whole number of decimation
// iterations in [1, surfaceMaxIter]. The iteration count is the one input
// the kernel decides, so it is recovered from the count itself: what is left
// after the fixed part must be whole iterations. The first miss of a fresh
// SelfEnergyCache counts the same as the family's own miss: registration,
// the layer's eigendecomposition included, counts no flop.
func TestSelfEnergyFlopCount(t *testing.T) {
	suite := suiteLeads(t)
	agnr := familyOf(t, suite["AGNR-7"].spec(left))
	_, agnrLevels := partitionOf(t, agnr)
	cases := []struct {
		name     string
		fam      *blockFamily
		cold     *Leads // non-nil: the miss is the first of a fresh cache shown these leads
		energies []complex128
		whole    bool // every energy must keep the layer whole
	}{
		{name: "sinw", fam: familyOf(t, suite["SiNW-sp3s*"].spec(left)), energies: []complex128{complex(6.5, 1e-6), complex(0.5, 1e-6), complex(2.2, 1e-8)}},
		{name: "agnr7", fam: agnr, energies: []complex128{complex(1.5, 1e-6), complex(0.3, 1e-6)}},
		{name: "n = 1 chain", fam: familyOf(t, chainLeads(t, -1, 0).spec(left)), energies: []complex128{complex(-1.2, 1e-6), complex(0.3, 1e-8)}},
		{name: "agnr7 on an interior level", fam: agnr, energies: []complex128{complex(agnrLevels[0], 1e-8)}, whole: true},
		{name: "agnr7, a fresh cache", fam: agnr, cold: suite["AGNR-7"], energies: []complex128{complex(1.5, 1e-6)}},
	}
	ws := linalg.GetWorkspace()
	defer ws.Release()
	for _, tc := range cases {
		fam := tc.fam
		n, r, c := fam.h00.Rows, len(fam.rows), len(fam.cols)
		for _, z := range tc.energies {
			s := fam.layer.At(z, ws).Rows
			if whole := s == n && len(sparse.Union(fam.rows, fam.cols)) < n; whole != tc.whole {
				t.Fatalf("%s z=%v: kept the layer whole: %v, want %v", tc.name, z, whole, tc.whole)
			}
			perf.ResetFlops()
			var err error
			if tc.cold != nil {
				_, _, err = NewSelfEnergyCache().SelfEnergies(tc.cold, z)
			} else {
				_, err = fam.selfEnergies(z, bothSides)
			}
			if err != nil {
				t.Fatalf("%s z=%v: %v", tc.name, z, err)
			}
			got := perf.ResetFlops()
			fixed := SelfEnergyFlops(n, s, r, c, 0)
			per := SelfEnergyFlops(n, s, r, c, 1) - fixed
			if iters := (got - fixed) / per; (got-fixed)%per != 0 || iters < 1 || iters > surfaceMaxIter {
				t.Errorf("%s z=%v: a paired miss counted %d flops: %d fixed plus %.3f iterations of %d",
					tc.name, z, got, fixed, float64(got-fixed)/float64(per), per)
			} else {
				t.Logf("%-26s z=%v n=%d s=%d r=%d c=%d: %d flops, %d iterations", tc.name, z, n, s, r, c, got, iters)
			}
		}
	}
}

// TestConcurrentFirstVisit (run it under -race): 16 goroutines bring their
// own Leads of equal AGNR-7 blocks to a fresh cache at once. The layer is
// built inside registration, under the registry's lock, so every one
// of them resolves to the same family value — built exactly once — and
// reads its supports and gathered blocks without a lock of their own.
func TestConcurrentFirstVisit(t *testing.T) {
	base := suiteLeads(t)["AGNR-7"]
	const workers = 16
	c := NewSelfEnergyCache()
	all := make([]*Leads, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := range all {
		all[i] = &Leads{L00: base.L00.Clone(), L01: base.L01.Clone(), R00: base.R00.Clone(), R01: base.R01.Clone()}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			_, _, errs[i] = c.SelfEnergies(all[i], complex(0.1+0.01*float64(i%4), 1e-6))
		}(i)
	}
	close(start)
	wg.Wait()
	if n := len(c.families.blocks); n != 1 {
		t.Fatalf("%d block families registered, want 1", n)
	}
	fam := c.families.blocks[0]
	ws := linalg.GetWorkspace()
	defer ws.Release()
	z := complex(0.1, 1e-6)
	if s, n := fam.layer.At(z, ws).Rows, fam.layer.Whole().At(z, ws).Rows; s != 7 || n-s != 7 {
		t.Fatalf("AGNR-7 layer |S| = %d, |I| = %d; want 7 and 7", s, n-s)
	}
	for i, l := range all {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if l.fams[left] != fam || l.fams[right] != fam {
			t.Errorf("goroutine %d resolved to a family of its own", i)
		}
	}
	if st := c.Stats(); st.Decimations != 4 {
		t.Errorf("%d kernel runs for 4 distinct energies", st.Decimations)
	}
}
