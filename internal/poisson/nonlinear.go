// Package poisson holds the electrostatics of the self-consistent transport
// loop: a gate-all-around 1-D device model, solved as one tridiagonal
// system per Gummel update.
package poisson

import (
	"fmt"

	"repro/internal/perf"
	"repro/internal/units"
)

// solveTridiag solves a real tridiagonal system by the Thomas algorithm.
// low[i] couples node i to i−1, up[i] to i+1.
func solveTridiag(low, diag, up, rhs []float64) ([]float64, error) {
	n := len(diag)
	c := make([]float64, n)
	d := make([]float64, n)
	if diag[0] == 0 {
		return nil, fmt.Errorf("poisson: zero pivot in tridiagonal solve")
	}
	c[0] = up[0] / diag[0]
	d[0] = rhs[0] / diag[0]
	for i := 1; i < n; i++ {
		den := diag[i] - low[i]*c[i-1]
		if den == 0 {
			return nil, fmt.Errorf("poisson: zero pivot in tridiagonal solve at %d", i)
		}
		c[i] = up[i] / den
		d[i] = (rhs[i] - low[i]*d[i-1]) / den
	}
	x := make([]float64, n)
	x[n-1] = d[n-1]
	for i := n - 2; i >= 0; i-- {
		x[i] = d[i] - c[i]*x[i+1]
	}
	return x, nil
}

// GateAllAround1D is the compact electrostatic model of a cylindrical
// gate-all-around FET used by the self-consistent transport loop: the
// channel potential V(x) obeys a modified 1-D Poisson equation
//
//	ε_ch·V'' − (ε_ox/λ²)·(V − V_G*) = −ρ/ε₀,
//
// where λ is the natural electrostatic length of the geometry and V_G*
// the gate potential (flat-band corrected). Outside the gated window the
// screening term is absent. Contact ends are Dirichlet-pinned.
type GateAllAround1D struct {
	// Dx is the node spacing (nm).
	Dx float64
	// EpsChannel and EpsOxide are relative permittivities.
	EpsChannel, EpsOxide float64
	// Lambda is the screening length (nm).
	Lambda float64
	// GateMask marks nodes under the gate.
	GateMask []bool
	// VSource and VDrain pin the two end nodes (V).
	VSource, VDrain float64
}

// SolveLinearized performs one Gummel-stabilized Poisson update: the
// charge is linearized around the previous potential u0 as
// ρ(u) ≈ ρ₀ + ρ'·(u − u0) with ρ' = rhoDeriv ≤ 0, the local response of
// the electron density to a rigid shift of the potential energy (the
// caller's ∂n/∂U; −n/kT only in the non-degenerate limit). That moves the
// charge response onto the matrix diagonal and makes the self-consistent
// iteration robust through the threshold region.
func (g *GateAllAround1D) SolveLinearized(vg float64, rho, rhoDeriv, u0 []float64) ([]float64, error) {
	defer perf.StartPhase("poisson")()
	n := len(g.GateMask)
	if len(rho) != n || len(rhoDeriv) != n || len(u0) != n {
		return nil, fmt.Errorf("poisson: GAA linearized solve: inconsistent vector lengths")
	}
	if n < 3 {
		return nil, fmt.Errorf("poisson: GAA model needs at least 3 nodes")
	}
	h2 := g.EpsChannel / (g.Dx * g.Dx)
	kappa := g.EpsOxide / (g.Lambda * g.Lambda)
	low := make([]float64, n)
	diag := make([]float64, n)
	up := make([]float64, n)
	rhs := make([]float64, n)
	for i := 0; i < n; i++ {
		switch {
		case i == 0:
			diag[i] = 1
			rhs[i] = g.VSource
		case i == n-1:
			diag[i] = 1
			rhs[i] = g.VDrain
		default:
			low[i] = -h2
			up[i] = -h2
			diag[i] = 2*h2 - rhoDeriv[i]/units.Eps0
			rhs[i] = rho[i]/units.Eps0 - rhoDeriv[i]*u0[i]/units.Eps0
			if g.GateMask[i] {
				diag[i] += kappa
				rhs[i] += kappa * vg
			}
		}
	}
	return solveTridiag(low, diag, up, rhs)
}
