package poisson

import (
	"fmt"
	"math"

	"repro/internal/perf"
	"repro/internal/units"
)

// Semiconductor bundles the semiclassical carrier statistics of a bulk
// material used by the non-linear Poisson solver.
type Semiconductor struct {
	// Nc and Nv are the conduction/valence effective densities of states
	// in 1/nm³ (Si at 300K: Nc = 2.8e19 cm⁻³ = 2.8e-2 nm⁻³).
	Nc, Nv float64
	// Gap is the band gap in eV.
	Gap float64
	// Temperature in kelvin.
	Temperature float64
}

// SiliconBulk returns room-temperature silicon statistics.
func SiliconBulk() Semiconductor {
	return Semiconductor{Nc: 2.8e-2, Nv: 1.04e-2, Gap: 1.12, Temperature: units.RoomTemperature}
}

// Ni returns the intrinsic carrier density (1/nm³).
func (s Semiconductor) Ni() float64 {
	kt := units.KT(s.Temperature)
	return math.Sqrt(s.Nc*s.Nv) * math.Exp(-s.Gap/(2*kt))
}

// Carriers returns the electron and hole densities (1/nm³) at local
// potential v (V) for a Fermi level pinned at 0 eV, with the intrinsic
// level at v = 0 sitting mid-gap (Boltzmann statistics).
func (s Semiconductor) Carriers(v float64) (n, p float64) {
	kt := units.KT(s.Temperature)
	ni := s.Ni()
	n = ni * math.Exp(v/kt)
	p = ni * math.Exp(-v/kt)
	return n, p
}

// Device1D is a one-dimensional semiconductor stack for the non-linear
// equilibrium Poisson problem.
type Device1D struct {
	// Dx is the node spacing (nm); Doping the net donor density N_D−N_A
	// per node (1/nm³); EpsR the relative permittivity per node.
	Dx     float64
	Doping []float64
	EpsR   []float64
	// Mat provides the carrier statistics.
	Mat Semiconductor
}

// SolveEquilibrium computes the equilibrium potential profile (V) of the
// stack by damped Newton iteration on the non-linear Poisson equation
// −d/dx(ε dV/dx) = (p − n + N_D − N_A)/ε₀ with zero-field (Neumann)
// boundaries, which for a pn junction reproduces the built-in potential
// V_bi = kT·ln(N_A·N_D/n_i²).
func (d *Device1D) SolveEquilibrium(tol float64, maxIter int) ([]float64, error) {
	n := len(d.Doping)
	if n < 3 {
		return nil, fmt.Errorf("poisson: 1-D device needs at least 3 nodes")
	}
	if len(d.EpsR) != n {
		return nil, fmt.Errorf("poisson: EpsR has %d entries for %d nodes", len(d.EpsR), n)
	}
	kt := units.KT(d.Mat.Temperature)
	ni := d.Mat.Ni()
	// Charge-neutral initial guess: v = kT·asinh(N/2ni).
	v := make([]float64, n)
	for i, nd := range d.Doping {
		v[i] = kt * math.Asinh(nd/(2*ni))
	}
	h2 := 1 / (d.Dx * d.Dx)
	// Newton loop on F(v) = A·v − q(v) = 0 where A is the (Neumann)
	// Laplacian scaled by ε_r and q(v) = (p − n + N)/ε₀.
	diag := make([]float64, n)
	lowr := make([]float64, n)
	uppr := make([]float64, n)
	rhs := make([]float64, n)
	for iter := 0; iter < maxIter; iter++ {
		var maxRes float64
		for i := 0; i < n; i++ {
			var aDiag, aOff float64
			harm := func(a, b float64) float64 { return 2 * a * b / (a + b) }
			lowr[i], uppr[i] = 0, 0
			if i > 0 {
				e := harm(d.EpsR[i], d.EpsR[i-1]) * h2
				aDiag += e
				lowr[i] = -e
				aOff += e * v[i-1]
			}
			if i < n-1 {
				e := harm(d.EpsR[i], d.EpsR[i+1]) * h2
				aDiag += e
				uppr[i] = -e
				aOff += e * v[i+1]
			}
			ne, pe := d.Mat.Carriers(v[i])
			q := (pe - ne + d.Doping[i]) / units.Eps0
			res := aDiag*v[i] - aOff - q
			// Jacobian: ∂/∂v of −q adds (n + p)/(kT·ε₀) to the diagonal.
			diag[i] = aDiag + (ne+pe)/(kt*units.Eps0)
			rhs[i] = -res
			if math.Abs(res) > maxRes {
				maxRes = math.Abs(res)
			}
		}
		dv, err := solveTridiag(lowr, diag, uppr, rhs)
		if err != nil {
			return nil, err
		}
		// Damped update: cap the per-node step at a few kT to keep the
		// exponential charge terms in their convergence basin.
		step := 1.0
		var maxDv float64
		for _, x := range dv {
			if math.Abs(x) > maxDv {
				maxDv = math.Abs(x)
			}
		}
		if maxDv > 5*kt {
			step = 5 * kt / maxDv
		}
		var maxUpd float64
		for i := range v {
			v[i] += step * dv[i]
			if math.Abs(step*dv[i]) > maxUpd {
				maxUpd = math.Abs(step * dv[i])
			}
		}
		if maxUpd < tol {
			return v, nil
		}
	}
	return nil, fmt.Errorf("poisson: Newton did not converge in %d iterations", maxIter)
}

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

// Solve returns the channel potential for gate voltage vg and the given
// charge density rho (e/nm³, negative for electrons).
func (g *GateAllAround1D) Solve(vg float64, rho []float64) ([]float64, error) {
	n := len(g.GateMask)
	if len(rho) != n {
		return nil, fmt.Errorf("poisson: GAA charge density has %d entries for %d nodes", len(rho), n)
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
			diag[i] = 2 * h2
			rhs[i] = rho[i] / units.Eps0
			if g.GateMask[i] {
				diag[i] += kappa
				rhs[i] += kappa * vg
			}
		}
	}
	return solveTridiag(low, diag, up, rhs)
}
