// Package dephasing extends the ballistic solvers with elastic dephasing
// in the self-consistent Born approximation (SCBA) — the first step beyond
// the coherent limit of the paper (incoherent scattering was the stated
// next milestone of petascale quantum-transport simulation). The model is
// a local (orbital-diagonal) elastic scatterer of strength D (eV²):
//
//	Σ_s^r(E)  = D · diag(G^r(E))
//	Σ_s^in(E) = D · diag(G^n(E))
//
// iterated to self-consistency together with the electron correlation
// function G^n = G^r·Σ^in·G^a, Σ^in = Γ_L·f_L + Γ_R·f_R + Σ_s^in. Current
// conservation between the contacts is exact at convergence — the litmus
// test of the implementation. The solver uses dense Green's functions (the
// SCBA diagonal couples all layers), so it targets the small devices of
// the validation studies rather than the petascale workloads.
package dephasing

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/linalg"
	"repro/internal/negf"
	"repro/internal/sparse"
)

// Solver runs SCBA dephasing calculations on a fixed device Hamiltonian.
type Solver struct {
	// H is the device Hamiltonian in block-tridiagonal layer form.
	H *sparse.BlockTridiag
	// Leads are the semi-infinite contacts.
	Leads *negf.Leads
	// Eta is the contact broadening (eV).
	Eta float64
	// D is the elastic dephasing strength in eV² (0 recovers the
	// ballistic limit exactly).
	D float64
	// Tol is the SCBA convergence tolerance on the scattering self-energy
	// diagonal (eV); MaxIter bounds the iteration.
	Tol     float64
	MaxIter int
	// Cache optionally memoizes the contact self-energies across solves,
	// through the same sweep-scale cache the ballistic solvers use (the
	// SCBA iteration changes only the scattering self-energy, never the
	// contacts, so every energy pays the Sancho-Rubio cost at most once
	// even across D-strength or occupation scans).
	Cache *negf.SelfEnergyCache

	// open is the z-independent part of z − H, built by the first solve.
	openOnce sync.Once
	open     *sparse.ShiftedSystem
}

// NewSolver builds an SCBA solver with flat-band leads continued from the
// device end layers and production defaults for the iteration controls.
func NewSolver(h *sparse.BlockTridiag, eta, d float64) (*Solver, error) {
	if eta <= 0 {
		return nil, fmt.Errorf("dephasing: broadening must be positive, got %g", eta)
	}
	if d < 0 {
		return nil, fmt.Errorf("dephasing: negative dephasing strength %g", d)
	}
	leads, err := negf.LeadsFromDevice(h)
	if err != nil {
		return nil, err
	}
	return &Solver{H: h, Leads: leads, Eta: eta, D: d, Tol: 1e-9, MaxIter: 200}, nil
}

// Result is the converged single-energy output.
type Result struct {
	// E is the energy (eV).
	E float64
	// TEff is the effective transmission: the left-contact current kernel
	// divided by (f_L − f_R), equal to the Caroli transmission at D = 0.
	TEff float64
	// CurrentL and CurrentR are the contact current kernels (units of
	// transmission); conservation requires CurrentL = −CurrentR.
	CurrentL, CurrentR float64
	// DOS is the orbital-resolved density of states (1/eV).
	DOS []float64
	// Iterations used by the SCBA loop.
	Iterations int
}

// Solve computes the SCBA-converged observables at energy e with contact
// occupations fL and fR (dimensionless, typically Fermi factors).
func (s *Solver) Solve(e, fL, fR float64) (*Result, error) {
	z := complex(e, s.Eta)
	sigL, sigR, err := negf.CachedSelfEnergies(s.Cache, s.Leads, z)
	if err != nil {
		return nil, err
	}
	// The dense SCBA loop adds the contacts on whole end layers.
	sigL, sigR = s.Leads.Embed(sigL, sigR)
	ws := linalg.GetWorkspace()
	defer ws.Release()
	gamL := ws.Get(sigL.Rows, sigL.Cols)
	negf.BroadeningInto(gamL, sigL)
	gamR := ws.Get(sigR.Rows, sigR.Cols)
	negf.BroadeningInto(gamR, sigR)
	n := s.H.N()
	nl := s.H.Layers()

	// Base open-system matrix without the scattering self-energy.
	s.openOnce.Do(func() { s.open = sparse.NewShiftedSystem(s.H) })
	base := s.open.At(z, ws)
	base.AddScaledToDiagBlock(0, sigL, -1)
	base.AddScaledToDiagBlock(nl-1, sigR, -1)
	baseDense := base.Dense()

	// Contact inflow kernel Γ_L·f_L + Γ_R·f_R embedded at the contacts.
	off := s.H.Offsets()
	inflow0 := ws.Get(n, n)
	addScaledSubmatrix(inflow0, 0, 0, gamL, complex(fL, 0))
	addScaledSubmatrix(inflow0, off[nl-1], off[nl-1], gamR, complex(fR, 0))

	sigSr := make([]complex128, n) // retarded scattering self-energy diagonal
	sigSin := make([]float64, n)   // inscattering diagonal
	res := &Result{E: e}
	// Iteration buffers, reused across every self-consistency step: the
	// SCBA loop previously re-materialized A, Σ^in, G† and two products per
	// iteration — hundreds of full n×n temporaries per energy point.
	a := ws.Get(n, n)
	g := ws.Get(n, n)
	gn := ws.Get(n, n)
	sin := ws.Get(n, n)
	gs := ws.Get(n, n)
	for iter := 1; iter <= s.MaxIter; iter++ {
		res.Iterations = iter
		// G^r with the current scattering self-energy.
		a.CopyFrom(baseDense)
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)-sigSr[i])
		}
		if err := linalg.InverseInto(g, a, ws); err != nil {
			return nil, fmt.Errorf("dephasing: G inversion: %w", err)
		}
		// G^n = G·Σ^in·G† with Σ^in = inflow + diag(σ_s^in); the adjoint is
		// read in place by the fused conjugate GEMM.
		sin.CopyFrom(inflow0)
		for i := 0; i < n; i++ {
			sin.Set(i, i, sin.At(i, i)+complex(sigSin[i], 0))
		}
		linalg.MulInto(gs, g, linalg.NoTrans, sin, linalg.NoTrans)
		linalg.GemmInto(gn, 1, gs, linalg.NoTrans, g, linalg.ConjTrans, 0)
		// SCBA updates.
		var delta float64
		for i := 0; i < n; i++ {
			newR := complex(s.D, 0) * g.At(i, i)
			newIn := s.D * real(gn.At(i, i))
			delta = math.Max(delta, cAbs(newR-sigSr[i]))
			delta = math.Max(delta, math.Abs(newIn-sigSin[i]))
			sigSr[i] = newR
			sigSin[i] = newIn
		}
		if s.D == 0 || delta < s.Tol {
			break
		}
		if iter == s.MaxIter {
			return nil, fmt.Errorf("dephasing: SCBA did not converge in %d iterations (Δ = %g)", s.MaxIter, delta)
		}
	}

	// Spectral function A = i(G − G†) shares the broadening kernel (it is
	// Γ applied to G); contact currents from i_α = Tr[Γ_α·(f_α·A − G^n)]
	// (Meir-Wingreen, elastic local SCBA) via the O(n²) trace identity.
	aSpec := ws.Get(n, n)
	negf.BroadeningInto(aSpec, g)
	res.DOS = make([]float64, n)
	for i := 0; i < n; i++ {
		res.DOS[i] = real(aSpec.At(i, i)) / (2 * math.Pi)
	}
	n0 := s.H.LayerSize(0)
	nN := s.H.LayerSize(nl - 1)
	res.CurrentL = contactCurrent(gamL, aSpec, gn, 0, n0, fL, ws)
	res.CurrentR = contactCurrent(gamR, aSpec, gn, off[nl-1], nN, fR, ws)
	if df := fL - fR; df != 0 {
		res.TEff = res.CurrentL / df
	}
	return res, nil
}

// contactCurrent evaluates Tr[Γ·(f·A − G^n)] over the contact block of
// size nc anchored at global offset o, without materializing any product:
// Tr[Γ·M] = Σ_ij Γ_ij·M_ji costs O(nc²).
func contactCurrent(gam, aSpec, gn *linalg.Matrix, o, nc int, f float64, ws *linalg.Workspace) float64 {
	m := ws.Get(nc, nc)
	defer ws.Put(m)
	fc := complex(f, 0)
	for i := 0; i < nc; i++ {
		for j := 0; j < nc; j++ {
			m.Set(i, j, fc*aSpec.At(o+i, o+j)-gn.At(o+i, o+j))
		}
	}
	return real(linalg.TraceMul(gam, m))
}

// addScaledSubmatrix accumulates s·src into dst at block offset (r0, c0).
func addScaledSubmatrix(dst *linalg.Matrix, r0, c0 int, src *linalg.Matrix, s complex128) {
	for i := 0; i < src.Rows; i++ {
		for j := 0; j < src.Cols; j++ {
			dst.Set(r0+i, c0+j, dst.At(r0+i, c0+j)+s*src.At(i, j))
		}
	}
}

// EffectiveTransmission returns T_eff(e) for unit occupation difference
// (f_L = 1, f_R = 0).
func (s *Solver) EffectiveTransmission(e float64) (float64, error) {
	r, err := s.Solve(e, 1, 0)
	if err != nil {
		return 0, err
	}
	return r.TEff, nil
}

func cAbs(v complex128) float64 { return math.Hypot(real(v), imag(v)) }
