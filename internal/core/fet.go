package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/negf"
	"repro/internal/poisson"
	"repro/internal/sched"
	"repro/internal/transport"
)

// The FET's fixed electrostatics and contact statistics: the oxide and
// channel relative permittivities, the source Fermi level relative to the
// lead conduction-band minimum (eV; positive = degenerate source), and the
// temperature (K).
const (
	epsOx       = 3.9
	epsCh       = 11.7
	muOffset    = 0.025
	temperature = 300.0
)

// FET couples a Simulator to the gate-all-around electrostatic model for
// self-consistent ballistic I-V simulation — the paper's flagship
// "atomistic device engineering" application. All potentials inside the
// loop are electron potential energies U(x) in eV (U = −e·V_electrostatic),
// so a positive gate voltage lowers the channel barrier of the n-FET.
type FET struct {
	Sim *Simulator
	// GateStart and GateEnd bound the gated window as fractions of the
	// transport length.
	GateStart, GateEnd float64
	// Lambda is the gate screening length (nm).
	Lambda float64
	// SourceDoping is the donor density of the contact extensions (1/nm³).
	SourceDoping float64
	// NE is the charge-integration grid size per iteration.
	NE int
	// Tol is the self-consistency tolerance (eV) on max|g(u) − u|, the
	// largest change the Poisson update would make to the layer potential.
	// The default, 1e-4 eV, holds the printed Id within 0.5 % of the
	// loop's own fixed point (DESIGN.md §18).
	Tol float64
	// MaxIter bounds the self-consistent loop.
	MaxIter int
	// Cache memoizes contact self-energies across the whole I-V surface:
	// every gate point, every SCF iteration, and the final dense current
	// grid share it. The FET's contacts are pinned (source at 0, drain at
	// −Vd), so each lead's blocks are the same bits at every iterate and
	// gate point, and its self-energy is a pure function of (block family,
	// z) — one decimation per such pair serves the entire sweep, and FETs
	// handed one cache share records exactly where their contacts' blocks
	// are equal. NewFET installs a fresh cache; set nil to disable. It is
	// the one cache of the engine: this FET's simulator solves
	// transmission sweeps uncached.
	Cache *negf.SelfEnergyCache
	// EStep is the spacing (eV) of the shared energy lattice every grid of
	// this FET snaps to, so the SCF grids and the final dense current grid
	// (which runs on the half lattice EStep/2) reuse each other's cached
	// self-energies. 0 lets the first GateSweep derive it from its union
	// charge window divided into NE−1 steps.
	EStep float64
	// gapWindow is fixed at construction: the energy window the transport
	// gap was located in.
	ev, ec float64
}

// NewFET builds a self-consistent FET driver around a simulator with the
// GNR-friendly electrostatics that cmd/omen and every example but
// examples/nanowirefet run with: a gate over the middle 40 % of the
// channel, a 1.2 nm screening length and doped extensions. The device
// must be semiconducting.
func NewFET(sim *Simulator) (*FET, error) {
	f := &FET{
		Sim:          sim,
		GateStart:    0.3,
		GateEnd:      0.7,
		Lambda:       1.2,
		SourceDoping: 0.1, // ≈ 1e20 cm⁻³
		NE:           180,
		Tol:          1e-4,
		MaxIter:      60,
	}
	ev, ec, err := sim.ConductionBandEdge(-5, 10)
	if err != nil {
		return nil, err
	}
	f.ev, f.ec = ev, ec
	f.Cache = negf.NewSelfEnergyCache()
	return f, nil
}

// IVPoint is one bias point of a sweep.
type IVPoint struct {
	VGate, VDrain float64
	// Current in amperes.
	Current float64
	// Iterations used by the self-consistent loop.
	Iterations int
	// Converged reports whether Tol was reached within MaxIter.
	Converged bool
	// Potential is the converged layer potential-energy profile (eV).
	Potential []float64
}

// dopingProfile returns the donor density per layer (1/nm³): doped
// extensions outside the gate window, intrinsic channel inside.
func (f *FET) dopingProfile(nl int) []float64 {
	nd := make([]float64, nl)
	for i := range nd {
		frac := (float64(i) + 0.5) / float64(nl)
		if frac < f.GateStart || frac > f.GateEnd {
			nd[i] = f.SourceDoping
		}
	}
	return nd
}

// gateMask marks the gated layers.
func (f *FET) gateMask(nl int) []bool {
	mask := make([]bool, nl)
	for i := range mask {
		frac := (float64(i) + 0.5) / float64(nl)
		mask[i] = frac >= f.GateStart && frac <= f.GateEnd
	}
	return mask
}

// sweepStep is the lattice spacing of a gate sweep: its union charge
// window, the zero-bias one included, divided into NE−1 steps. Each bias
// point's grid then holds at most NE points while every grid of the sweep
// lands on one shared lattice — all of them integer multiples of the step
// (half multiples for the final current grid), which is what lets
// different bias windows overlap on bitwise identical cache keys.
func (f *FET) sweepStep(vgs []float64, vd float64) float64 {
	lo, hi := f.chargeWindow(0, 0)
	for _, vg := range vgs {
		l, h := f.chargeWindow(vg, vd)
		lo = math.Min(lo, l)
		hi = math.Max(hi, h)
	}
	return (hi - lo) / float64(max(f.NE, 2)-1)
}

// chargeWindow is the conduction-electron integration window at one bias
// point: from just below the lowest plausible local band minimum to well
// above the hotter contact, clamped above the (shifted) valence bands.
func (f *FET) chargeWindow(vg, vd float64) (lo, hi float64) {
	kT := KT(temperature)
	muS := f.ec + muOffset
	muD := muS - vd
	uLo := math.Min(0, math.Min(-vd, -vg)) - 0.05
	uHi := math.Max(0, -vd) + 0.05
	lo = f.ec + uLo - 4*kT
	if vb := f.ev + uHi + 6*kT; lo < vb {
		lo = vb
	}
	hi = math.Max(muS, muD) + 10*kT
	if hi <= lo {
		hi = lo + 20*kT
	}
	return lo, hi
}

// chargeGrid is the SCF charge-integration grid: the bias point's window
// snapped inward onto the shared lattice.
func (f *FET) chargeGrid(vg, vd float64) []float64 {
	lo, hi := f.chargeWindow(vg, vd)
	return latticeGrid(lo, hi, f.EStep)
}

// currentGrid is the final dense transmission grid over the bias window
// at the converged potential u: twice the SCF resolution, on the half
// lattice — whose even points coincide bitwise with the SCF lattice, so
// half of the dense pass is served straight from the SCF iterations'
// cache entries.
func (f *FET) currentGrid(vd float64, u []float64) []float64 {
	kT := KT(temperature)
	muS := f.ec + muOffset
	muD := muS - vd
	eLo := math.Min(muS, muD) - 12*kT
	if vb := f.ev + maxOf(u) + 4*kT; eLo < vb {
		eLo = vb
	}
	eHi := math.Max(muS, muD) + 12*kT
	return latticeGrid(eLo, eHi, f.EStep/2)
}

// latticeGrid returns the energies k·step, k integer, covering [lo, hi]
// snapped inward (so clamps — e.g. staying above the valence band — are
// respected). Every grid built from one step lands on bitwise-identical
// energies wherever their windows overlap, because each point rounds the
// same exact product k·step.
func latticeGrid(lo, hi, step float64) []float64 {
	k0 := int(math.Ceil(lo / step))
	k1 := int(math.Floor(hi / step))
	for k1 < k0+1 {
		// Degenerate window: widen symmetrically to keep ≥ 2 points.
		k0--
		k1++
	}
	g := make([]float64, 0, k1-k0+1)
	for k := k0; k <= k1; k++ {
		g = append(g, float64(k)*step)
	}
	return g
}

// pool returns the worker pool bias points schedule on: the simulator's
// shared pool when configured, else a private GOMAXPROCS-sized one.
func (f *FET) pool() *sched.Pool {
	if p := f.Sim.Transport.Pool; p != nil {
		return p
	}
	return sched.New(0)
}

// energyPass runs solve(ctx, i) for every energy of grid as one task of
// the sweep runner on pool, the loop every sweep of the engine runs on: a
// pool job is a lane group of consecutive energies, solved in grid order
// on one goroutine. Each solve writes its own slot, so the caller reduces
// the slots in grid order and the bits do not depend on the schedule. No
// journal reads the tasks, so they return no payload. A failure names its
// energy; the first failing energy by grid order among those that ran
// wins, and it cancels the rest of the pass.
func energyPass(ctx context.Context, pool *sched.Pool, grid []float64, solve func(ctx context.Context, i int) error) error {
	_, err := cluster.RunTasksResumable(ctx, 1, 1, len(grid), cluster.SweepOptions{Pool: pool},
		func(ctx context.Context, t cluster.Task) ([]byte, error) {
			if err := solve(ctx, t.E); err != nil {
				return nil, fmt.Errorf("E=%g eV: %w", grid[t.E], err)
			}
			return nil, nil
		})
	return err
}

// solveBias runs the self-consistent loop at one (VGate, VDrain) point.
func (f *FET) solveBias(ctx context.Context, vg, vd float64, pool *sched.Pool) (*IVPoint, error) {
	s := f.Sim.Built.Structure
	nl := s.NLayers()
	atoms := s.NAtoms()
	layerVol := f.Sim.LayerVolume()
	muS := f.ec + muOffset
	muD := muS - vd
	bias := transport.Bias{MuL: muS, MuR: muD, Temperature: temperature}
	nd := f.dopingProfile(nl)
	gaa := &poisson.GateAllAround1D{
		Dx:         s.LayerPeriod,
		EpsChannel: epsCh,
		EpsOxide:   epsOx,
		Lambda:     f.Lambda,
		GateMask:   f.gateMask(nl),
		VSource:    0,
		VDrain:     -vd,
	}

	u := make([]float64, nl) // layer potential energy (eV)
	// Pin the contact layers from the start so the lead blocks — and with
	// them the cached contact self-energies — stay fixed through the loop.
	u[nl-1] = -vd
	pot := make([]float64, atoms)
	res := make([]float64, nl) // the Poisson update's residual g(u) − u
	var mix anderson
	point := &IVPoint{VGate: vg, VDrain: vd}

	// The contacts are pinned (source at 0, drain at −vd), so the
	// expensive Sancho-Rubio surface functions depend only on the energy:
	// share the FET's sweep-wide cache across all iterations and bias
	// points (the production optimization of the paper's code, extended to
	// the whole I-V surface).
	cfg := f.Sim.Transport
	cfg.Cache = f.Cache
	// All iterations (and, in a GateSweep, all bias points) draw their
	// energy- and domain-level helpers from the same pool.
	cfg.Pool = pool

	// Charge-integration grid, fixed per bias point and snapped to the
	// FET's shared energy lattice so every iteration — and every other
	// bias point whose window overlaps — reuses the same cached energies.
	grid := f.chargeGrid(vg, vd)
	spectra := make([]*negf.Result, len(grid))

	// One Hamiltonian and engine per iterate. The loop leaves eng on the
	// iterate whose residual passed or, past MaxIter, on the last mixed
	// one: the potential the current is reported at.
	var eng *transport.Engine
	for iter := 1; ; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Spread the layer potential onto atoms.
		for i, a := range s.Atoms {
			pot[i] = u[a.Layer]
		}
		h, err := f.Sim.Hamiltonian(pot, 0)
		if err != nil {
			return nil, err
		}
		if eng, err = transport.NewEngine(h, cfg); err != nil {
			return nil, err
		}
		if iter > f.MaxIter {
			break
		}
		point.Iterations = iter
		if err := energyPass(ctx, pool, grid, func(ctx context.Context, i int) (err error) {
			spectra[i], err = solveInGroup(ctx, eng, grid, cluster.Task{E: i}, true)
			return err
		}); err != nil {
			return nil, err
		}
		occ, dOcc, err := transport.ChargeDensity(grid, spectra, bias)
		if err != nil {
			return nil, err
		}
		// Poisson in potential-energy convention: charge term n − N_D and
		// gate energy −Vg (see type comment), with the charge's own
		// response ∂n/∂U (spin degeneracy included, 1/nm³/eV) on the
		// diagonal of the linearization. occ and dOcc are per layer.
		rho := make([]float64, nl)
		dRho := make([]float64, nl)
		for li := range rho {
			rho[li] = f.Sim.SpinDegeneracy()*occ[li]/layerVol - nd[li]
			dRho[li] = f.Sim.SpinDegeneracy() * dOcc[li] / layerVol
		}
		uNew, err := gaa.SolveLinearized(-vg, rho, dRho, u)
		if err != nil {
			return nil, err
		}
		// Converged: keep the iterate whose residual passed. Otherwise the
		// Anderson step; the contact layers' residual is exactly 0, so
		// they stay pinned.
		for i := range u {
			res[i] = uNew[i] - u[i]
		}
		if maxAbs(res) < f.Tol {
			point.Converged = true
			break
		}
		mix.step(u, res)
	}
	// Final current from a denser transmission grid over the bias window —
	// the half lattice, so its even points are served straight from the
	// SCF iterations' cache entries.
	iGrid := f.currentGrid(vd, u)
	ts := make([]float64, len(iGrid))
	if err := energyPass(ctx, pool, iGrid, func(ctx context.Context, i int) error {
		r, err := solveInGroup(ctx, eng, iGrid, cluster.Task{E: i}, false)
		if err != nil {
			return err
		}
		ts[i] = r.T
		return nil
	}); err != nil {
		return nil, err
	}
	i, err := f.Sim.CurrentFromSpectrum(iGrid, ts, bias)
	if err != nil {
		return nil, err
	}
	point.Current = i
	point.Potential = u
	return point, nil
}

// GateSweep runs the self-consistent loop over a gate-voltage ladder at
// fixed drain bias, on the lattice EStep (sweepStep unless preset).
// The points are independent — this is the outermost (bias) level of the
// paper's parallel scheme — so they run concurrently, sharing one worker
// pool with the momentum/energy/domain levels nested inside each point.
// Results come back in ladder order; the first failing gate voltage (by
// ladder order) cancels the in-flight siblings and is reported.
func (f *FET) GateSweep(ctx context.Context, vgs []float64, vd float64) ([]IVPoint, error) {
	if f.EStep <= 0 {
		f.EStep = f.sweepStep(vgs, vd)
	}
	out := make([]IVPoint, len(vgs))
	pool := f.pool()
	err := pool.ForEach(ctx, "bias", len(vgs), func(ctx context.Context, i int) error {
		p, err := f.solveBias(ctx, vgs[i], vd, pool)
		if err != nil {
			return err
		}
		out[i] = *p
		return nil
	})
	if te, ok := sched.AsTaskError(err); ok {
		return nil, fmt.Errorf("core: Vg=%g: %w", vgs[te.Index], te.Err)
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// SubthresholdSlope extracts the subthreshold slope (mV/decade) from two
// I-V points in the exponential regime.
func SubthresholdSlope(p1, p2 IVPoint) (float64, error) {
	if p1.Current <= 0 || p2.Current <= 0 {
		return 0, fmt.Errorf("core: non-positive currents in slope extraction")
	}
	dec := math.Log10(p2.Current) - math.Log10(p1.Current)
	if dec == 0 {
		return 0, fmt.Errorf("core: identical currents in slope extraction")
	}
	return (p2.VGate - p1.VGate) * 1000 / dec, nil
}

func minMax(v []float64) (lo, hi float64) {
	lo, hi = v[0], v[0]
	for _, x := range v {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

func maxOf(v []float64) float64 {
	_, hi := minMax(v)
	return hi
}
