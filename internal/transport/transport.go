// Package transport turns single-energy quantum solvers into device
// observables: an Engine solves one energy of one device Hamiltonian (one
// bias/momentum point) — the granule of the "energy" level of the paper's
// four-level parallelism — and Current and ChargeDensity reduce a grid of
// such solves to Landauer currents and to the energy-integrated electron
// densities the self-consistent Poisson coupling reads.
//
// The engine does not loop over energies. Every energy loop runs on the
// sweep runner (cluster.RunTasksResumable locally, the distributed
// worker's runLease in the fabric): each task solves one energy into its
// own slot, and the caller reduces the slots in grid order.
package transport

import (
	"context"
	"fmt"
	"math"

	"repro/internal/linalg"
	"repro/internal/negf"
	"repro/internal/sched"
	"repro/internal/sparse"
	"repro/internal/units"
	"repro/internal/wavefunction"
)

// NonFiniteError reports a numerical blow-up — a NaN or Inf observable —
// at one energy point. It names the offending energy and quantity so the
// fault-tolerance machinery upstream (internal/resilience,
// cluster.RunTasksResumable) can classify it: the error is Permanent
// (rerunning the same deterministic solve reproduces it), which makes the
// point a quarantine candidate rather than a retry candidate.
type NonFiniteError struct {
	// E is the energy (eV) whose solve blew up.
	E float64
	// Quantity names the non-finite observable ("T", "spectral",
	// "charge").
	Quantity string
}

// Error implements error.
func (e *NonFiniteError) Error() string {
	return fmt.Sprintf("transport: non-finite %s at E=%g eV", e.Quantity, e.E)
}

// TransientError marks the error Permanent for resilience.Classify.
func (e *NonFiniteError) TransientError() bool { return false }

// checkFinite validates the observables of one solve, returning a typed
// *NonFiniteError naming the first non-finite quantity.
func checkFinite(e float64, r *negf.Result) error {
	if math.IsNaN(r.T) || math.IsInf(r.T, 0) {
		return &NonFiniteError{E: e, Quantity: "T"}
	}
	for _, s := range [][]float64{r.SpectralL, r.SpectralR} {
		for _, v := range s {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return &NonFiniteError{E: e, Quantity: "spectral"}
			}
		}
	}
	return nil
}

// Formalism selects the single-energy solver.
type Formalism int

const (
	// WaveFunction is the scattering-state solver (block-Thomas or
	// SplitSolve) — the production path.
	WaveFunction Formalism = iota
	// NEGFRGF is the recursive Green's function solver — the baseline.
	NEGFRGF
)

// String implements fmt.Stringer.
func (f Formalism) String() string {
	switch f {
	case WaveFunction:
		return "WF"
	case NEGFRGF:
		return "NEGF-RGF"
	default:
		return fmt.Sprintf("Formalism(%d)", int(f))
	}
}

// Config selects the solver and its numerical parameters.
type Config struct {
	// Formalism picks WF or NEGF.
	Formalism Formalism
	// Eta is the energy broadening in eV (default 1e-6).
	Eta float64
	// Domains selects SplitSolve spatial decomposition for the WF
	// formalism (≤ 1 means the serial block-Thomas solve).
	Domains int
	// Pool is the budget a SplitSolve domain decomposition borrows its
	// helpers from — the pool the energy tasks calling the engine run on,
	// so the two levels share one budget. Nil: SplitSolve's private
	// GOMAXPROCS-sized pool.
	Pool *sched.Pool
	// Cache optionally shares memoized contact self-energies across
	// engines: contacts whose blocks are equal bit for bit share records,
	// within an SCF loop and across bias points. Only core.FET sets it; a
	// transmission sweep asks for each energy once and runs uncached (nil).
	Cache *negf.SelfEnergyCache
}

func (c Config) withDefaults() Config {
	if c.Eta == 0 {
		c.Eta = 1e-6
	}
	return c
}

// pointSolver is the common surface of the two formalisms.
type pointSolver interface {
	SolveCtx(ctx context.Context, e float64, density bool) (*negf.Result, error)
	SolveWithSigma(ctx context.Context, e float64, sigL, sigR *linalg.Matrix, density bool) (*negf.Result, error)
}

// Engine evaluates energy-resolved transport quantities for one device
// Hamiltonian (one bias/momentum point).
type Engine struct {
	solver pointSolver
	// leads and eta are the solver's; cached is whether it reads Σ from a
	// self-energy cache, which a lane group (SigmaGroup) would bypass.
	leads  *negf.Leads
	eta    float64
	cached bool
}

// NewEngine builds an engine for the given device Hamiltonian.
func NewEngine(h *sparse.BlockTridiag, cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	var solver pointSolver
	var leads *negf.Leads
	switch cfg.Formalism {
	case WaveFunction:
		wf, err := wavefunction.NewSolver(h, cfg.Eta)
		if err != nil {
			return nil, err
		}
		// SplitSolve borrows helpers from the same pool that runs the
		// energy level, so nested parallelism stays within one budget.
		wf.Domains, wf.Pool = cfg.Domains, cfg.Pool
		wf.Cache = cfg.Cache
		solver, leads = wf, wf.Leads
	case NEGFRGF:
		gf, err := negf.NewSolver(h, cfg.Eta)
		if err != nil {
			return nil, err
		}
		gf.Cache = cfg.Cache
		solver, leads = gf, gf.Leads
	default:
		return nil, fmt.Errorf("transport: unknown formalism %d", cfg.Formalism)
	}
	return &Engine{solver: solver, leads: leads, eta: cfg.Eta, cached: cfg.Cache != nil}, nil
}

// SolveAt exposes the single-energy solve of the configured formalism,
// quarantine-checked: a solve whose observables come back NaN/Inf fails
// with a *NonFiniteError naming the energy point.
func (e *Engine) SolveAt(ctx context.Context, energy float64, density bool) (*negf.Result, error) {
	r, err := e.solver.SolveCtx(ctx, energy, density)
	if err != nil {
		return nil, err
	}
	if err := checkFinite(energy, r); err != nil {
		return nil, err
	}
	return r, nil
}

// TransmissionAt evaluates T at a single energy — the per-(bias,k,E) task
// granule of a resumable sweep — with SolveAt's NaN/Inf quarantine check.
func (e *Engine) TransmissionAt(ctx context.Context, energy float64) (float64, error) {
	r, err := e.SolveAt(ctx, energy, false)
	if err != nil {
		return 0, err
	}
	return r.T, nil
}

// SigmaGroup computes the contact self-energies of up to linalg.Lanes
// energies in lockstep (negf.Leads.SelfEnergyGroup), for TransmissionFrom.
// An engine that reads Σ from a self-energy cache returns nil.
func (e *Engine) SigmaGroup(energies []float64) *negf.SigmaGroup {
	if e.cached {
		return nil
	}
	zs := make([]complex128, len(energies))
	for i, en := range energies {
		zs[i] = complex(en, e.eta)
	}
	return e.leads.SelfEnergyGroup(zs)
}

// TransmissionFrom is TransmissionAt at energy, which is the i-th energy of
// g, with Σ taken from g: the same value, bit for bit, and the same count.
// A nil g is TransmissionAt.
func (e *Engine) TransmissionFrom(ctx context.Context, g *negf.SigmaGroup, i int, energy float64) (float64, error) {
	if g == nil {
		return e.TransmissionAt(ctx, energy)
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	sigL, sigR, err := g.Take(i)
	if err != nil {
		return 0, err
	}
	r, err := e.solver.SolveWithSigma(ctx, energy, sigL, sigR, false)
	if err != nil {
		return 0, err
	}
	if err := checkFinite(energy, r); err != nil {
		return 0, err
	}
	return r.T, nil
}

// Bias describes the two contact reservoirs.
type Bias struct {
	// MuL and MuR are the contact electrochemical potentials in eV.
	MuL, MuR float64
	// Temperature in kelvin.
	Temperature float64
}

// KT returns k_B·T in eV.
func (b Bias) KT() float64 { return units.KT(b.Temperature) }

// Current integrates the Landauer formula over a transmission spectrum
// given on an energy grid (trapezoidal rule), returning amperes per spin
// degeneracy factor g (2 for spin-degenerate Hamiltonians, 1 for
// spin-resolved ones):
//
//	I = g·(e/h)·∫ T(E)·[f_L(E) − f_R(E)] dE.
func Current(energies, transmissions []float64, bias Bias, spinDegeneracy float64) (float64, error) {
	if len(energies) != len(transmissions) {
		return 0, fmt.Errorf("transport: %d energies vs %d transmissions", len(energies), len(transmissions))
	}
	if len(energies) < 2 {
		return 0, fmt.Errorf("transport: need at least 2 grid points")
	}
	kT := bias.KT()
	integrand := func(i int) float64 {
		f := units.Fermi(energies[i], bias.MuL, kT) - units.Fermi(energies[i], bias.MuR, kT)
		return transmissions[i] * f
	}
	var integral float64
	for i := 0; i+1 < len(energies); i++ {
		de := energies[i+1] - energies[i]
		integral += 0.5 * de * (integrand(i) + integrand(i+1))
	}
	return spinDegeneracy * units.CurrentQuantum * integral, nil
}

// ChargeDensity integrates the layer-resolved contact spectra of a grid of
// density solves (spectra[i] is SolveAt(energies[i], true)) into the
// layer-resolved electron density n (dimensionless occupation of each
// layer's orbitals, summed) and its response dn = ∂n/∂U to a rigid shift of
// the layer's potential energy:
//
//	n_i     =  ∫ dE/(2π) [A_L,i·f_L + A_R,i·f_R],
//	∂n_i/∂U = −∫ dE/(2π) [A_L,i·F_L + A_R,i·F_R],  F = −∂f/∂E,
//
// with A_L,i = Σ_{o∈layer i} [G·Γ_L·G†]_oo (negf.Result), nl values per
// energy: what Poisson reads, and nothing finer.
//
// Shifting U by +δ moves the spectra up by δ, which is the same as moving
// both contact potentials down by δ, so the response is read off the
// spectra n is built from: one grid, one set of trapezoid weights, one
// pass of solves. Its Boltzmann limit, μ far below the band, is −n/kT.
// The energy grid must span the occupied conduction window of interest.
// The reduction runs in grid order, so its bits do not depend on which
// goroutine solved which energy.
func ChargeDensity(energies []float64, spectra []*negf.Result, bias Bias) (n, dn []float64, err error) {
	if len(energies) != len(spectra) {
		return nil, nil, fmt.Errorf("transport: %d energies vs %d spectra", len(energies), len(spectra))
	}
	if len(energies) < 2 {
		return nil, nil, fmt.Errorf("transport: need at least 2 grid points")
	}
	kT := bias.KT()
	n = make([]float64, len(spectra[0].SpectralL))
	dn = make([]float64, len(n))
	for i := 0; i+1 < len(energies); i++ {
		de := energies[i+1] - energies[i]
		fL0 := units.Fermi(energies[i], bias.MuL, kT)
		fR0 := units.Fermi(energies[i], bias.MuR, kT)
		fL1 := units.Fermi(energies[i+1], bias.MuL, kT)
		fR1 := units.Fermi(energies[i+1], bias.MuR, kT)
		dL0 := units.LogisticDerivative(energies[i], bias.MuL, kT)
		dR0 := units.LogisticDerivative(energies[i], bias.MuR, kT)
		dL1 := units.LogisticDerivative(energies[i+1], bias.MuL, kT)
		dR1 := units.LogisticDerivative(energies[i+1], bias.MuR, kT)
		r0, r1 := spectra[i], spectra[i+1]
		for k := range n {
			v0 := r0.SpectralL[k]*fL0 + r0.SpectralR[k]*fR0
			v1 := r1.SpectralL[k]*fL1 + r1.SpectralR[k]*fR1
			n[k] += 0.5 * de * (v0 + v1)
			d0 := r0.SpectralL[k]*dL0 + r0.SpectralR[k]*dR0
			d1 := r1.SpectralL[k]*dL1 + r1.SpectralR[k]*dR1
			dn[k] -= 0.5 * de * (d0 + d1)
		}
	}
	inv2pi := 1 / (2 * 3.141592653589793)
	for k := range n {
		n[k] *= inv2pi
		dn[k] *= inv2pi
		if math.IsNaN(n[k]) || math.IsInf(n[k], 0) || math.IsNaN(dn[k]) || math.IsInf(dn[k], 0) {
			// The per-point spectral functions were finite (SolveAt checks
			// them), so a blow-up here came from the integration weights.
			return nil, nil, &NonFiniteError{E: energies[0], Quantity: "charge"}
		}
	}
	return n, dn, nil
}

// UniformGrid returns n energies spanning [lo, hi] inclusive. n <= 0
// yields an empty grid; n == 1 yields the single point lo (the degenerate
// one-point "span" pins to the lower edge).
func UniformGrid(lo, hi float64, n int) []float64 {
	if n <= 0 {
		return nil
	}
	if n == 1 {
		return []float64{lo}
	}
	g := make([]float64, n)
	for i := range g {
		g[i] = lo + (hi-lo)*float64(i)/float64(n-1)
	}
	return g
}
