package transport

import (
	"context"
	"math"
	"slices"
	"testing"

	"repro/internal/lattice"
	"repro/internal/negf"
	"repro/internal/sched"
	"repro/internal/sparse"
	"repro/internal/tb"
	"repro/internal/units"
)

func chainH(t *testing.T, n int, eps0, hop float64, pot []float64) *sparse.BlockTridiag {
	t.Helper()
	s, err := lattice.NewLinearChain(0.5, n)
	if err != nil {
		t.Fatal(err)
	}
	h, err := tb.Assemble(s, tb.SingleBandChain(eps0, hop), tb.Options{Potential: pot})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// transmissions is T over grid, one density-off SolveAt per energy in grid
// order.
func transmissions(t *testing.T, eng *Engine, grid []float64) []float64 {
	t.Helper()
	ts := make([]float64, len(grid))
	for i, e := range grid {
		r, err := eng.SolveAt(context.Background(), e, false)
		if err != nil {
			t.Fatalf("E=%g: %v", e, err)
		}
		ts[i] = r.T
	}
	return ts
}

// spectra is the density solve at every energy of grid, in grid order:
// what ChargeDensity reduces.
func spectra(t *testing.T, eng *Engine, grid []float64) []*negf.Result {
	t.Helper()
	res := make([]*negf.Result, len(grid))
	for i, e := range grid {
		r, err := eng.SolveAt(context.Background(), e, true)
		if err != nil {
			t.Fatalf("E=%g: %v", e, err)
		}
		res[i] = r
	}
	return res
}

func TestEngineFormalismsAgree(t *testing.T) {
	pot := []float64{0, 0, 0.4, 0.4, 0, 0}
	h := chainH(t, 6, 0, -1, pot)
	grid := UniformGrid(-1.5, 1.5, 21)
	wf, err := NewEngine(h, Config{Formalism: WaveFunction})
	if err != nil {
		t.Fatal(err)
	}
	gf, err := NewEngine(h, Config{Formalism: NEGFRGF})
	if err != nil {
		t.Fatal(err)
	}
	tw := transmissions(t, wf, grid)
	tg := transmissions(t, gf, grid)
	for i := range tw {
		if math.Abs(tw[i]-tg[i]) > 1e-8*(1+tg[i]) {
			t.Fatalf("formalisms disagree at E=%g: %g vs %g", grid[i], tw[i], tg[i])
		}
	}
}

// TestSpectrumDeterministicUnderParallelism: one engine solved at every
// energy of a grid by eight goroutines at once — as the sweep runner's
// lane groups share it — gives the bits of a serial loop, density on and
// off: a solve keeps nothing across energies that another could touch.
func TestSpectrumDeterministicUnderParallelism(t *testing.T) {
	h := chainH(t, 8, 0, -1, []float64{0, 0.1, 0.2, 0.3, 0.3, 0.2, 0.1, 0})
	grid := UniformGrid(-1.8, 1.8, 33)
	for _, f := range []Formalism{WaveFunction, NEGFRGF} {
		eng, err := NewEngine(h, Config{Formalism: f})
		if err != nil {
			t.Fatal(err)
		}
		want := spectra(t, eng, grid)
		got := make([]*negf.Result, len(grid))
		err = sched.New(8).ForEach(context.Background(), "", len(grid), func(ctx context.Context, i int) (err error) {
			got[i], err = eng.SolveAt(ctx, grid[i], true)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i].T != want[i].T || !slices.Equal(got[i].SpectralL, want[i].SpectralL) || !slices.Equal(got[i].SpectralR, want[i].SpectralR) {
				t.Fatalf("%v: parallel evaluation changed the solve at E=%g", f, grid[i])
			}
		}
	}
}

// TestLandauerCurrentQuantized: at low temperature and small bias inside a
// region of T = 1, the conductance must be the conductance quantum.
func TestLandauerCurrentQuantized(t *testing.T) {
	h := chainH(t, 6, 0, -1, nil)
	eng, err := NewEngine(h, Config{})
	if err != nil {
		t.Fatal(err)
	}
	const vb = 0.01 // 10 mV window centered at E=0, deep inside the band
	grid := UniformGrid(-0.1, 0.1, 401)
	ts := transmissions(t, eng, grid)
	bias := Bias{MuL: vb / 2, MuR: -vb / 2, Temperature: 1} // ~0.1 meV kT
	i, err := Current(grid, ts, bias, 2)
	if err != nil {
		t.Fatal(err)
	}
	g := i / vb
	if math.Abs(g-units.ConductanceQuantum)/units.ConductanceQuantum > 0.01 {
		t.Fatalf("conductance %g S, want G0 = %g S", g, units.ConductanceQuantum)
	}
}

func TestCurrentSignAndZeroBias(t *testing.T) {
	h := chainH(t, 5, 0, -1, nil)
	eng, err := NewEngine(h, Config{})
	if err != nil {
		t.Fatal(err)
	}
	grid := UniformGrid(-1, 1, 101)
	ts := transmissions(t, eng, grid)
	i0, err := Current(grid, ts, Bias{MuL: 0.1, MuR: 0.1, Temperature: 300}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(i0) > 1e-18 {
		t.Fatalf("zero-bias current %g != 0", i0)
	}
	ip, err := Current(grid, ts, Bias{MuL: 0.2, MuR: 0.0, Temperature: 300}, 2)
	if err != nil {
		t.Fatal(err)
	}
	im, err := Current(grid, ts, Bias{MuL: 0.0, MuR: 0.2, Temperature: 300}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ip <= 0 {
		t.Fatalf("forward current %g not positive", ip)
	}
	if math.Abs(ip+im) > 1e-12*math.Abs(ip) {
		t.Fatalf("current not antisymmetric in bias: %g vs %g", ip, im)
	}
}

func TestCurrentValidation(t *testing.T) {
	if _, err := Current([]float64{0, 1}, []float64{1}, Bias{Temperature: 300}, 2); err == nil {
		t.Fatal("accepted mismatched grids")
	}
	if _, err := Current([]float64{0}, []float64{1}, Bias{Temperature: 300}, 2); err == nil {
		t.Fatal("accepted single-point grid")
	}
}

// TestChargeDensityEquilibrium: in equilibrium (equal chemical
// potentials), the occupation of a uniform chain site must match the
// analytic band filling n = ∫ dE·ρ(E)·f(E) with the 1-D DOS.
func TestChargeDensityEquilibrium(t *testing.T) {
	const hop = -1.0
	h := chainH(t, 7, 0, hop, nil)
	eng, err := NewEngine(h, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Half filling: mu at band center, low temperature → n = 0.5/site.
	// The grid bounds are chosen so no point lands exactly on the van
	// Hove singularities at E = ±2|t|, where the 1/√ divergence would
	// poison the trapezoidal rule.
	grid := UniformGrid(-2.499, 2.499, 1187)
	bias := Bias{MuL: 0, MuR: 0, Temperature: 100}
	n, _, err := ChargeDensity(grid, spectra(t, eng, grid), bias)
	if err != nil {
		t.Fatal(err)
	}
	// Interior sites of a long chain approach the bulk value 0.5.
	mid := n[len(n)/2]
	if math.Abs(mid-0.5) > 0.05 {
		t.Fatalf("half-filled chain occupation %g, want 0.5", mid)
	}
}

func TestChargeDensityBiasDependence(t *testing.T) {
	h := chainH(t, 6, 0, -1, nil)
	eng, err := NewEngine(h, Config{})
	if err != nil {
		t.Fatal(err)
	}
	grid := UniformGrid(-2.5, 2.5, 601)
	res := spectra(t, eng, grid)
	nEq, _, err := ChargeDensity(grid, res, Bias{MuL: 0, MuR: 0, Temperature: 300})
	if err != nil {
		t.Fatal(err)
	}
	nHi, _, err := ChargeDensity(grid, res, Bias{MuL: 0.5, MuR: 0.5, Temperature: 300})
	if err != nil {
		t.Fatal(err)
	}
	for i := range nEq {
		if nHi[i] <= nEq[i] {
			t.Fatalf("raising both chemical potentials did not raise occupation at site %d", i)
		}
	}
}

// TestChargeResponseIsRigidShift holds the response ChargeDensity returns
// to its definition. Shifting U by +δ is the same as shifting both contact
// potentials by −δ, so on one engine and grid the central difference
// [n(μ−δ) − n(μ+δ)]/2δ must match ∂n/∂U layer by layer; and with μ
// far below the band it must reach its Boltzmann limit −n/kT.
func TestChargeResponseIsRigidShift(t *testing.T) {
	h := chainH(t, 6, 0, -1, []float64{0, 0.05, 0.2, 0.2, 0.1, 0})
	eng, err := NewEngine(h, Config{})
	if err != nil {
		t.Fatal(err)
	}
	grid := UniformGrid(-2.5, 2.5, 601)
	bias := Bias{MuL: -0.1, MuR: -0.3, Temperature: 300}
	res := spectra(t, eng, grid)
	n, dn, err := ChargeDensity(grid, res, bias)
	if err != nil {
		t.Fatal(err)
	}
	const delta = 1e-5
	shifted := func(d float64) []float64 {
		b := bias
		b.MuL += d
		b.MuR += d
		n, _, err := ChargeDensity(grid, res, b)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	lo, hi := shifted(-delta), shifted(delta)
	for k := range n {
		fd := (lo[k] - hi[k]) / (2 * delta)
		if dn[k] >= 0 {
			t.Fatalf("layer %d: ∂n/∂U = %g, want < 0", k, dn[k])
		}
		if rel := math.Abs(fd-dn[k]) / math.Abs(dn[k]); rel > 1e-6 {
			t.Fatalf("layer %d: ∂n/∂U = %.12g, central difference %.12g (rel %g)", k, dn[k], fd, rel)
		}
	}

	// Boltzmann limit: μ 12 kT below the band edge at −2, the grid from
	// just above the edge (so every grid point sits ≥ 10 kT above μ).
	kT := bias.KT()
	mu := -2 - 12*kT
	grid = UniformGrid(-1.999, -1, 400)
	n, dn, err = ChargeDensity(grid, spectra(t, eng, grid), Bias{MuL: mu, MuR: mu, Temperature: 300})
	if err != nil {
		t.Fatal(err)
	}
	for k := range n {
		if rel := math.Abs(dn[k]+n[k]/kT) / (n[k] / kT); rel > 1e-3 {
			t.Fatalf("layer %d: ∂n/∂U = %g, Boltzmann limit −n/kT = %g (rel %g)", k, dn[k], -n[k]/kT, rel)
		}
	}
}

func TestUniformGrid(t *testing.T) {
	g := UniformGrid(-1, 1, 5)
	want := []float64{-1, -0.5, 0, 0.5, 1}
	for i := range want {
		if math.Abs(g[i]-want[i]) > 1e-15 {
			t.Fatalf("UniformGrid = %v", g)
		}
	}
}

func TestUniformGridDegenerate(t *testing.T) {
	if g := UniformGrid(-1, 1, 0); len(g) != 0 {
		t.Fatalf("UniformGrid(n=0) = %v, want empty", g)
	}
	if g := UniformGrid(-1, 1, -7); len(g) != 0 {
		t.Fatalf("UniformGrid(n=-7) = %v, want empty", g)
	}
	if g := UniformGrid(-1, 1, 1); len(g) != 1 || g[0] != -1 {
		t.Fatalf("UniformGrid(n=1) = %v, want [-1]", g)
	}
}

func TestEngineConfigValidation(t *testing.T) {
	h := chainH(t, 4, 0, -1, nil)
	if _, err := NewEngine(h, Config{Formalism: Formalism(99)}); err == nil {
		t.Fatal("accepted unknown formalism")
	}
}

func TestSplitSolveFormalismInEngine(t *testing.T) {
	h := chainH(t, 12, 0, -1, []float64{0, 0, 0, 0.3, 0.3, 0.3, 0.3, 0.3, 0, 0, 0, 0})
	ref, err := NewEngine(h, Config{Formalism: NEGFRGF})
	if err != nil {
		t.Fatal(err)
	}
	split, err := NewEngine(h, Config{Formalism: WaveFunction, Domains: 4})
	if err != nil {
		t.Fatal(err)
	}
	grid := UniformGrid(-1.5, 1.5, 11)
	tr := transmissions(t, ref, grid)
	tsp := transmissions(t, split, grid)
	for i := range tr {
		if math.Abs(tr[i]-tsp[i]) > 1e-8*(1+tr[i]) {
			t.Fatalf("SplitSolve engine disagrees at E=%g: %g vs %g", grid[i], tsp[i], tr[i])
		}
	}
}

// TestStrainedWireTransportConsistency: the full pipeline on a strained
// structure with Harrison scaling — both formalisms must still agree, and
// strain must actually move the transmission onset.
func TestStrainedWireTransportConsistency(t *testing.T) {
	build := func(strain float64) *sparse.BlockTridiag {
		s, err := lattice.NewZincblendeNanowire(0.5431, 4, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if strain != 0 {
			if err := s.ApplyStrain(strain, strain, strain); err != nil {
				t.Fatal(err)
			}
		}
		h, err := tb.Assemble(s, tb.SiliconSP3S(),
			tb.Options{PassivationShift: 12, HarrisonExponent: 2})
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	h := build(0.03)
	wf, err := NewEngine(h, Config{Formalism: WaveFunction})
	if err != nil {
		t.Fatal(err)
	}
	gf, err := NewEngine(h, Config{Formalism: NEGFRGF})
	if err != nil {
		t.Fatal(err)
	}
	grid := UniformGrid(6.0, 7.5, 7)
	tw := transmissions(t, wf, grid)
	tg := transmissions(t, gf, grid)
	for i := range tw {
		if math.Abs(tw[i]-tg[i]) > 1e-7*(1+tg[i]) {
			t.Fatalf("strained formalism mismatch at E=%g: %g vs %g", grid[i], tw[i], tg[i])
		}
	}
	// Strain moves the spectrum: the strained and unstrained transmission
	// spectra must differ somewhere on the grid.
	h0 := build(0)
	ref, err := NewEngine(h0, Config{Formalism: WaveFunction})
	if err != nil {
		t.Fatal(err)
	}
	t0 := transmissions(t, ref, grid)
	same := true
	for i := range t0 {
		if math.Abs(t0[i]-tw[i]) > 1e-6 {
			same = false
			break
		}
	}
	if same {
		t.Fatal("3% hydrostatic strain left the transmission spectrum unchanged")
	}
}
