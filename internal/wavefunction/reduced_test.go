package wavefunction

import (
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/device"
	"repro/internal/linalg"
	"repro/internal/negf"
	"repro/internal/perf"
	"repro/internal/sparse"
)

// interiorLevels returns the eigenvalues of every layer's interior block
// H_ii[I,I] under the partition the solver's reduced system makes: S_i the
// columns of the coupling from the left and the rows of the one to the
// right, the contacts' supports on the end layers.
func interiorLevels(t *testing.T, s *Solver) []float64 {
	t.Helper()
	h := s.H
	var levels []float64
	for i := 0; i < h.Layers(); i++ {
		sup := layerSupport(s, i)
		var in []int
		for o := 0; o < h.LayerSize(i); o++ {
			if !slices.Contains(sup, o) {
				in = append(in, o)
			}
		}
		blk := linalg.New(len(in), len(in))
		sparse.Gather(blk, h.Diag[i], in, in)
		vals, err := linalg.EigHValues(blk)
		if err != nil {
			t.Fatal(err)
		}
		levels = append(levels, vals...)
	}
	return levels
}

// layerSupport returns S_i, the kept orbitals of layer i.
func layerSupport(s *Solver, i int) []int {
	h, nl := s.H, s.H.Layers()
	lo, hi := sparse.ColumnSupport(s.Leads.L01), sparse.RowSupport(s.Leads.R01)
	if i > 0 {
		lo = sparse.ColumnSupport(h.Upper[i-1])
	}
	if i < nl-1 {
		hi = sparse.RowSupport(h.Upper[i])
	}
	return sparse.Union(lo, hi)
}

// injectionDrops returns how far the injection vectors of the two contacts
// at e fall short of rebuilding their Γ blocks, max |Γ − W·W†|: the modes
// the rank cutoff leaves out, a property of the formalism the reduction
// does not touch.
func injectionDrops(t *testing.T, s *Solver, e float64) float64 {
	t.Helper()
	sigL, sigR, err := negf.CachedSelfEnergies(s.Cache, s.Leads, complex(e, s.Eta))
	if err != nil {
		t.Fatal(err)
	}
	ws := linalg.GetWorkspace()
	defer ws.Release()
	var drop float64
	for _, sigma := range []*linalg.Matrix{sigL, sigR} {
		gam := ws.Get(sigma.Rows, sigma.Cols)
		negf.BroadeningInto(gam, sigma)
		w, err := injectionVectors(gam, ws, true)
		if err != nil {
			t.Fatal(err)
		}
		back := ws.Get(gam.Rows, gam.Cols)
		linalg.GemmInto(back, 1, w, linalg.NoTrans, w, linalg.ConjTrans, 0)
		drop = max(drop, back.Sub(gam).MaxAbs())
	}
	return drop
}

// TestReducedAdversarialEnergies parks Re z on the interior levels of the
// layers — where the reduced system divides by δ = |z − λ| and carries a
// pole of size 1/δ — and at ±1e-7 and ±1e-4 from them, at η = 1e-6 and
// 1e-8, on every T1 family under familyUnderPotential (every layer its own
// record). T, and A_L, A_R and the DOS of every layer, must stay within
// 1e-9·max(1, |x|) of negf.DenseReference, the dense inverse of the whole
// open system. An energy
// whose injection does not rebuild Γ to 1e-9 is skipped and logged, never
// compared silently: next to a pole of Σ (a surface state of the lead, |Σ|
// up to 1e9) Γ spans more decades than the injection's rank cutoff keeps,
// and the wave-function formalism drops a channel the dense inverse keeps —
// with or without the reduction (AGNR-7 under this potential has such poles
// at ±0.0388 eV, on interior levels of its end layers). The families up to
// N = 170 run every level of every layer inside [−3, 8] eV;
// the larger ones an even stride of them (a quarter of each under -short),
// as the dense oracle is O(N³). This is the test that sets
// sparse.InteriorGuard; with the guard a variable it counted, over every
// level of the families up to N = 320 and an even 24 of the larger ones'
// (2,296 energies):
//
//	guard 0     320 failures, worst relative error 1.6e-6 (SiUTB)
//	guard 1e-6    0 failures, worst 6.3e-10 (SiNW-sp3d5s*)
//	guard 1e-5    0 failures, worst 4.5e-11 (SiUTB)
//	guard 1e-4    0 failures, worst 4.5e-11
//	guard 1e-3    0 failures, worst 4.5e-11
//
// beside SiNW-2x2's 6.4e-10 at η = 1e-8 under every guard, which the solver
// without the reduction shows too (6.1e-10 at E = 0.1152 eV): the
// injection's distance from the dense inverse, not the elimination's. The
// one constant holds negf's decimation too, whose table also reads 0 from
// 1e-4 up; at 1e-4 the 400-point sinw sweep keeps 27 of its 3,600 effective
// layers (each energy's records and lead) whole, the 1,500-point agnr7 sweep
// none (DESIGN.md §11).
func TestReducedAdversarialEnergies(t *testing.T) {
	offsets := []float64{0, 1e-7, -1e-7, 1e-4, -1e-4}
	for _, d := range device.BenchmarkSuite() {
		h := familyUnderPotential(t, d)
		cache := negf.NewSelfEnergyCache()
		var worst float64
		var asked, skipped int
		for _, eta := range []float64{1e-6, 1e-8} {
			wf, err := NewSolver(h, eta)
			if err != nil {
				t.Fatal(err)
			}
			gf, err := negf.NewSolver(h, eta)
			if err != nil {
				t.Fatal(err)
			}
			wf.Cache, gf.Cache = cache, cache
			var levels []float64
			for _, l := range interiorLevels(t, wf) {
				if l >= -3 && l <= 8 {
					levels = append(levels, l)
				}
			}
			if len(levels) == 0 {
				t.Fatalf("%s: no interior level inside the window; the test is vacuous", d.Name)
			}
			keep := len(levels)
			if h.N() > 640 {
				keep = 2
			} else if h.N() > 170 {
				keep = 12
			}
			if testing.Short() {
				keep = max(1, keep/4)
			}
			stride := max(1, len(levels)/keep)
			for j := 0; j < len(levels); j += stride {
				for _, off := range offsets {
					e := levels[j] + off
					if drop := injectionDrops(t, wf, e); drop > 1e-9 {
						t.Logf("%s η=%g E=%v: SKIPPED — the injection leaves out a Γ mode of %.2g", d.Name, eta, e, drop)
						skipped++
						continue
					}
					asked++
					got, err := wf.Solve(e, true)
					if err != nil {
						t.Fatalf("%s η=%g E=%v: %v", d.Name, eta, e, err)
					}
					want, err := gf.DenseReference(e, true)
					if err != nil {
						t.Fatalf("%s η=%g E=%v, dense: %v", d.Name, eta, e, err)
					}
					rel := func(a, b float64) float64 { return math.Abs(a-b) / math.Max(1, math.Abs(b)) }
					miss := rel(got.T, want.T)
					for i := range want.SpectralL {
						miss = max(miss, rel(dos(got, i), dos(want, i)), rel(got.SpectralL[i], want.SpectralL[i]), rel(got.SpectralR[i], want.SpectralR[i]))
					}
					worst = max(worst, miss)
					if !(miss <= 1e-9) {
						t.Errorf("%s η=%g E=%v: T, or a layer's A_L, A_R or DOS, %.3g from the dense inverse (T = %.12g, dense %.12g)", d.Name, eta, e, miss, got.T, want.T)
					}
				}
			}
		}
		t.Logf("%-14s N=%-4d %4d energies on and around interior levels (%d skipped), worst relative error %.2g", d.Name, h.N(), asked, skipped, worst)
		if asked == 0 {
			t.Errorf("%s: every energy was skipped; the comparison is vacuous", d.Name)
		}
	}
}

// TestNewSolverRefusesNonHermitian: the interior elimination reads H_ii[S,I]
// as H_ii[I,S]†, so a device Hamiltonian off its adjoint by more than
// rounding is refused by name rather than solved into a plausible T — by
// both formalisms, which run on the one reduced open system. A
// rounding-sized asymmetry is not refused.
func TestNewSolverRefusesNonHermitian(t *testing.T) {
	constructors := map[string]func(*sparse.BlockTridiag) error{
		"wavefunction": func(h *sparse.BlockTridiag) error { _, err := NewSolver(h, 1e-6); return err },
		"negf":         func(h *sparse.BlockTridiag) error { _, err := negf.NewSolver(h, 1e-6); return err },
	}
	for name, build := range constructors {
		for _, tc := range []struct {
			name   string
			delta  complex128
			refuse bool
		}{{"one diagonal block off by 1e-3", 1e-3, true}, {"one diagonal block off by 1e-15", 1e-15, false}} {
			h := buildDisorderedWire(t).Clone()
			d := h.Diag[2]
			d.Set(0, 1, d.At(0, 1)+tc.delta)
			err := build(h)
			if (err != nil) != tc.refuse {
				t.Errorf("%s, %s: NewSolver returned %v, refused: want %v", name, tc.name, err, tc.refuse)
			}
			if err != nil && !strings.Contains(err.Error(), "not Hermitian") {
				t.Errorf("%s, %s: the refusal %q does not name the asymmetry", name, tc.name, err)
			}
		}
		h := buildDisorderedWire(t).Clone()
		h.Upper[1].Set(0, 0, h.Upper[1].At(0, 0)+0.25i)
		if err := build(h); err == nil {
			t.Errorf("%s: NewSolver accepted a coupling whose Lower is not its Upper's adjoint", name)
		}
	}
}

// TestConcurrentFirstSolve (run it under -race): 8 goroutines bring the
// first energies to one fresh Solver at once. The reduced open system is
// built inside openOnce, exactly once, read without a lock by every solve,
// and each result carries the bits a serial solver of its own returns.
func TestConcurrentFirstSolve(t *testing.T) {
	d := device.BenchmarkSuite()[5] // AGNR-7
	h := familyUnderPotential(t, d)
	shared, err := NewSolver(h, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	got := make([]*negf.Result, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			got[i], errs[i] = shared.Solve(0.9+0.05*float64(i%4), true)
		}(i)
	}
	close(start)
	wg.Wait()
	open := shared.open
	for i, r := range got {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		serial, err := NewSolver(h, 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		want, err := serial.Solve(0.9+0.05*float64(i%4), true)
		if err != nil {
			t.Fatal(err)
		}
		same := r.T == want.T
		for k := range want.SpectralL {
			same = same && r.SpectralL[k] == want.SpectralL[k] && r.SpectralR[k] == want.SpectralR[k]
		}
		if !same {
			t.Errorf("goroutine %d: a concurrent first solve moved bits against a serial solver", i)
		}
	}
	if _, err := shared.Solve(1.3, false); err != nil || shared.open != open {
		t.Errorf("the reduced system was rebuilt after the first solves (err %v)", err)
	}
}

// TestWFDensityFlopCount is the "flop totals exact" contract of the
// wave-function solve with density: one solve, its Σ a cache hit, counts
// the two broadenings and injection eigensolves (run here, as their QL
// iterations depend on the data), sparse.ReducedFlops for the reduced open
// system with the interior at width k_L + k_R, BlockThomasFlops on the
// reduced layers, the Caroli contraction on R_Γ, and the |·|² sums on the
// n_i rows of [x_i; y_i] of every layer — m_i kept rows and n_i − m_i
// interior ones — at 4 flops per element. AGNR-7 under the sinusoidal
// potential (records shared where layers repeat) runs at a generic energy
// and with Re z on an interior level, where a layer kept whole is counted.
func TestWFDensityFlopCount(t *testing.T) {
	d := device.BenchmarkSuite()[5] // AGNR-7
	h := familyUnderPotential(t, d)
	s, err := NewSolver(h, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	s.Cache = negf.NewSelfEnergyCache()
	levels := interiorLevels(t, s)
	ws := linalg.GetWorkspace()
	defer ws.Release()
	nl := h.Layers()
	for _, e := range []float64{0.9, levels[len(levels)/2]} {
		if _, err := s.Solve(e, true); err != nil { // warms Σ and builds the reduced system
			t.Fatal(err)
		}
		z := complex(e, s.Eta)
		sigL, sigR, err := negf.CachedSelfEnergies(s.Cache, s.Leads, z)
		if err != nil {
			t.Fatal(err)
		}
		red := s.open.At(z, sigL, sigR, ws)
		cG, rG := len(s.open.LeftContact()), len(s.open.RightContact())
		sizes, kept, shared := make([]int, nl), make([]int, nl), make([]bool, nl)
		rows, cols := make([]int, nl-1), make([]int, nl-1)
		var whole int
		for i := range sizes {
			sizes[i], kept[i] = h.LayerSize(i), red.A.LayerSize(i)
			if kept[i] > s.open.SupportSize(i) {
				whole++
			}
			for j := 0; j < i; j++ {
				shared[i] = shared[i] || slices.Equal(layerSupport(s, i), layerSupport(s, j)) && sparse.SameBits(h.Diag[i], h.Diag[j])
			}
			if i < nl-1 {
				rows[i], cols[i] = len(red.A.Coupling(i).Rows), len(red.A.Coupling(i).Cols)
			}
		}
		if e != 0.9 && whole == 0 {
			t.Fatalf("E=%v on an interior level kept no layer whole; the case is vacuous", e)
		}
		perf.ResetFlops()
		var k [2]int
		for c, sigma := range []*linalg.Matrix{sigL, sigR} {
			gam := ws.Get(sigma.Rows, sigma.Cols)
			negf.BroadeningInto(gam, sigma)
			w, err := injectionVectors(gam, ws, true)
			if err != nil {
				t.Fatal(err)
			}
			k[c] = w.Cols
		}
		width := k[0] + k[1]
		want := perf.ResetFlops() + sparse.ReducedFlops(sizes, kept, shared, cG, rG, width, true) +
			sparse.BlockThomasFlops(kept, rows, cols, nil, width) +
			perf.GemmFlops(rG, rG, k[0]) + int64(rG*k[0])*perf.FlopsCMulAdd
		for _, n := range sizes {
			want += int64(n*width) * 2 * perf.FlopsCAdd
		}
		if _, err := s.Solve(e, true); err != nil {
			t.Fatal(err)
		}
		if got := perf.ResetFlops(); got != want {
			t.Errorf("E=%v: one density solve counted %d flops, the closed form gives %d", e, got, want)
		}
	}
}

// TestWFTransmissionFlopCount is the twin of TestWFDensityFlopCount for the
// transmission solve: one solve without density, its Σ a cache hit, counts
// both broadenings and the left injection's eigensolve (run here),
// sparse.ReducedFlops without the interior at width k_L, BlockThomasFlops on
// the reduced layers with every layer's solve stopped at the first row the
// next reads (min R_i) and no back substitution, and the Caroli contraction
// on R_Γ. AGNR-7 under the sinusoidal potential runs at a generic energy and
// with Re z on an interior level, where a layer kept whole is counted.
func TestWFTransmissionFlopCount(t *testing.T) {
	d := device.BenchmarkSuite()[5] // AGNR-7
	h := familyUnderPotential(t, d)
	s, err := NewSolver(h, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	s.Cache = negf.NewSelfEnergyCache()
	levels := interiorLevels(t, s)
	ws := linalg.GetWorkspace()
	defer ws.Release()
	nl := h.Layers()
	for _, e := range []float64{0.9, levels[len(levels)/2]} {
		if _, err := s.Solve(e, false); err != nil { // warms Σ and builds the reduced system
			t.Fatal(err)
		}
		z := complex(e, s.Eta)
		sigL, sigR, err := negf.CachedSelfEnergies(s.Cache, s.Leads, z)
		if err != nil {
			t.Fatal(err)
		}
		red := s.open.At(z, sigL, sigR, ws)
		cG, rG := len(s.open.LeftContact()), len(s.open.RightContact())
		sizes, kept, shared := make([]int, nl), make([]int, nl), make([]bool, nl)
		rows, cols, floors := make([]int, nl-1), make([]int, nl-1), make([]int, nl-1)
		var whole, floored int
		for i := range sizes {
			sizes[i], kept[i] = h.LayerSize(i), red.A.LayerSize(i)
			if kept[i] > s.open.SupportSize(i) {
				whole++
			}
			for j := 0; j < i; j++ {
				shared[i] = shared[i] || slices.Equal(layerSupport(s, i), layerSupport(s, j)) && sparse.SameBits(h.Diag[i], h.Diag[j])
			}
			if i < nl-1 {
				c := red.A.Coupling(i)
				rows[i], cols[i], floors[i] = len(c.Rows), len(c.Cols), slices.Min(c.Rows)
				if floors[i] > 0 {
					floored++
				}
			}
		}
		if e != 0.9 && whole == 0 {
			t.Fatalf("E=%v on an interior level kept no layer whole; the case is vacuous", e)
		}
		if floored == 0 {
			t.Fatalf("E=%v: every layer's solve runs from row 0; the floored case is vacuous", e)
		}
		gamL := ws.Get(sigL.Rows, sigL.Cols)
		negf.BroadeningInto(gamL, sigL)
		w, err := injectionVectors(gamL, ws, true)
		if err != nil {
			t.Fatal(err)
		}
		want := transmissionFlops(sizes, kept, shared, rows, cols, floors, cG, rG, w.Cols)
		perf.ResetFlops()
		if _, err := s.Solve(e, false); err != nil {
			t.Fatal(err)
		}
		if got := perf.ResetFlops(); got != want {
			t.Errorf("E=%v: one transmission solve counted %d flops, the closed form gives %d", e, got, want)
		}
	}
}
