// Package transport turns single-energy quantum solvers into device
// observables: transmission spectra evaluated in parallel over energy
// grids (the "energy" level of the paper's four-level parallelism),
// Landauer currents, and energy-integrated electron densities for the
// self-consistent Poisson coupling.
//
// All grid-level entry points take a context.Context and run on a
// sched.Pool, so energy parallelism composes with the spatial-domain
// (SplitSolve) level below it and the bias/momentum levels above it
// under one shared worker budget.
package transport

import (
	"context"
	"fmt"
	"math"

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
	// Quantity names the non-finite observable (e.g. "T", "DOS",
	// "spectral", "charge").
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
	for _, v := range r.DOS {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return &NonFiniteError{E: e, Quantity: "DOS"}
		}
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
	// Pool bounds the engine's total concurrency across the energy and
	// spatial-domain levels combined, shared with whatever other engines
	// hold it (e.g. all bias points of an I-V sweep). Nil: a private
	// GOMAXPROCS-sized pool.
	Pool *sched.Pool
	// Cache optionally shares memoized contact self-energies across
	// engines: contacts whose blocks match once the shifts below are
	// removed share records, within an SCF loop and across bias points.
	Cache *negf.SelfEnergyCache
	// ShiftL and ShiftR declare each pinned flat-band contact's rigid
	// potential-energy shift (eV) from its zero-bias band structure; they
	// become negf.Leads.ShiftL/ShiftR. Undeclared (0) is always correct —
	// a biased contact then just has records of its own.
	ShiftL, ShiftR float64
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
}

// Engine evaluates energy-resolved transport quantities for one device
// Hamiltonian (one bias/momentum point).
type Engine struct {
	solver pointSolver
	pool   *sched.Pool
}

// NewEngine builds an engine for the given device Hamiltonian.
func NewEngine(h *sparse.BlockTridiag, cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	pool := cfg.Pool
	if pool == nil {
		pool = sched.New(0)
	}
	var solver pointSolver
	switch cfg.Formalism {
	case WaveFunction:
		wf, err := wavefunction.NewSolver(h, cfg.Eta)
		if err != nil {
			return nil, err
		}
		// SplitSolve borrows helpers from the same pool that runs the
		// energy level, so nested parallelism stays within one budget.
		wf.Domains, wf.Pool = cfg.Domains, pool
		wf.Cache = cfg.Cache
		wf.Leads.ShiftL, wf.Leads.ShiftR = cfg.ShiftL, cfg.ShiftR
		solver = wf
	case NEGFRGF:
		gf, err := negf.NewSolver(h, cfg.Eta)
		if err != nil {
			return nil, err
		}
		gf.Cache = cfg.Cache
		gf.Leads.ShiftL, gf.Leads.ShiftR = cfg.ShiftL, cfg.ShiftR
		solver = gf
	default:
		return nil, fmt.Errorf("transport: unknown formalism %d", cfg.Formalism)
	}
	return &Engine{solver: solver, pool: pool}, nil
}

// Pool returns the worker pool the engine schedules on, for callers that
// want to run surrounding parallelism (bias or momentum sweeps) within
// the same budget.
func (e *Engine) Pool() *sched.Pool { return e.pool }

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
// granule of a resumable sweep — with the same NaN/Inf quarantine check
// as Spectrum.
func (e *Engine) TransmissionAt(ctx context.Context, energy float64) (float64, error) {
	r, err := e.SolveAt(ctx, energy, false)
	if err != nil {
		return 0, err
	}
	return r.T, nil
}

// Spectrum evaluates the solver at every grid energy on the engine's pool
// and returns the results in grid order (deterministic regardless of
// scheduling). density controls whether spectral functions are assembled.
// On failure the in-flight sibling energies are canceled and the error of
// the lowest-index failing grid point is returned.
func (e *Engine) Spectrum(ctx context.Context, energies []float64, density bool) ([]*negf.Result, error) {
	results, err := sched.Map(ctx, e.pool, "energy", len(energies),
		func(ctx context.Context, i int) (*negf.Result, error) {
			r, err := e.solver.SolveCtx(ctx, energies[i], density)
			if err != nil {
				return nil, err
			}
			if err := checkFinite(energies[i], r); err != nil {
				return nil, err
			}
			return r, nil
		})
	if err != nil {
		if te, ok := sched.AsTaskError(err); ok {
			return nil, fmt.Errorf("transport: E=%g: %w", energies[te.Index], te.Err)
		}
		return nil, err
	}
	return results, nil
}

// Transmissions is a convenience wrapper returning only T(E) over a grid.
func (e *Engine) Transmissions(ctx context.Context, energies []float64) ([]float64, error) {
	res, err := e.Spectrum(ctx, energies, false)
	if err != nil {
		return nil, err
	}
	t := make([]float64, len(res))
	for i, r := range res {
		t[i] = r.T
	}
	return t, nil
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

// ChargeDensity integrates the contact-resolved spectral functions into
// the orbital-resolved electron density n (dimensionless occupation per
// orbital) and its response dn = ∂n/∂U to a rigid shift of the orbital's
// potential energy:
//
//	n_i     =  ∫ dE/(2π) [A_L,ii·f_L + A_R,ii·f_R],
//	∂n_i/∂U = −∫ dE/(2π) [A_L,ii·F_L + A_R,ii·F_R],  F = −∂f/∂E.
//
// Shifting U by +δ moves the spectra up by δ, which is the same as moving
// both contact potentials down by δ, so the response is read off the
// spectra n is built from: one grid, one set of trapezoid weights, one
// Spectrum call. Its Boltzmann limit, μ far below the band, is −n/kT.
// The energy grid must span the occupied conduction window of interest.
func (e *Engine) ChargeDensity(ctx context.Context, energies []float64, bias Bias) (n, dn []float64, err error) {
	if len(energies) < 2 {
		return nil, nil, fmt.Errorf("transport: need at least 2 grid points")
	}
	res, err := e.Spectrum(ctx, energies, true)
	if err != nil {
		return nil, nil, err
	}
	kT := bias.KT()
	n = make([]float64, len(res[0].SpectralL))
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
		for k := range n {
			v0 := res[i].SpectralL[k]*fL0 + res[i].SpectralR[k]*fR0
			v1 := res[i+1].SpectralL[k]*fL1 + res[i+1].SpectralR[k]*fR1
			n[k] += 0.5 * de * (v0 + v1)
			d0 := res[i].SpectralL[k]*dL0 + res[i].SpectralR[k]*dR0
			d1 := res[i+1].SpectralL[k]*dL1 + res[i+1].SpectralR[k]*dR1
			dn[k] -= 0.5 * de * (d0 + d1)
		}
	}
	inv2pi := 1 / (2 * 3.141592653589793)
	for k := range n {
		n[k] *= inv2pi
		dn[k] *= inv2pi
		if math.IsNaN(n[k]) || math.IsInf(n[k], 0) || math.IsNaN(dn[k]) || math.IsInf(dn[k], 0) {
			// The per-point spectral functions were finite (Spectrum checks
			// them), so a blow-up here came from the integration weights.
			return nil, nil, &NonFiniteError{E: energies[0], Quantity: "charge"}
		}
	}
	return n, dn, nil
}

// DropQuarantined filters an energy grid and its per-point values down to
// the surviving points, removing every index for which bad returns true.
// It is the renormalization primitive for gracefully degraded sweeps: the
// trapezoidal integrators (Current, RenormalizedCurrent) then span each
// gap with a single wider panel, i.e. they linearly interpolate the
// integrand across the quarantined points.
func DropQuarantined(energies, values []float64, bad func(i int) bool) (es, vs []float64) {
	es = make([]float64, 0, len(energies))
	vs = make([]float64, 0, len(values))
	for i := range energies {
		if bad != nil && bad(i) {
			continue
		}
		es = append(es, energies[i])
		vs = append(vs, values[i])
	}
	return es, vs
}

// RenormalizedCurrent integrates the Landauer current over a grid from
// which some points were quarantined (lost to numerical blow-ups or
// exhausted retries). The bad points are dropped; interior gaps are
// bridged by the trapezoidal rule (linear interpolation of T·[f_L−f_R]
// across the gap, with error O(gap²·|∂²integrand|)); if quarantine clipped
// the window edges, the integral is rescaled by the full-to-surviving
// window ratio — production sweeps put cold window edges well outside the
// conducting region, so both corrections stay small for isolated losses.
// At least two points must survive.
func RenormalizedCurrent(energies, transmissions []float64, bad func(i int) bool, bias Bias, spinDegeneracy float64) (float64, error) {
	if len(energies) != len(transmissions) {
		return 0, fmt.Errorf("transport: %d energies vs %d transmissions", len(energies), len(transmissions))
	}
	es, ts := DropQuarantined(energies, transmissions, bad)
	if len(es) < 2 {
		return 0, fmt.Errorf("transport: only %d of %d grid points survive quarantine", len(es), len(energies))
	}
	cur, err := Current(es, ts, bias, spinDegeneracy)
	if err != nil {
		return 0, err
	}
	if full, kept := energies[len(energies)-1]-energies[0], es[len(es)-1]-es[0]; kept > 0 && kept < full {
		cur *= full / kept
	}
	return cur, nil
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
