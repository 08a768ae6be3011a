package poisson

import (
	"math"
	"testing"

	"repro/internal/units"
)

func TestGateAllAroundPinchOff(t *testing.T) {
	n := 61
	gaa := &GateAllAround1D{
		Dx:         1,
		EpsChannel: 11.7,
		EpsOxide:   3.9,
		Lambda:     3,
		GateMask:   make([]bool, n),
		VSource:    0,
		VDrain:     0.05,
	}
	for i := 20; i < 40; i++ {
		gaa.GateMask[i] = true
	}
	// A fixed charge: zero response, so the update solves the plain model.
	rho, zero := make([]float64, n), make([]float64, n)
	vNeg, err := gaa.SolveLinearized(-0.5, rho, zero, zero)
	if err != nil {
		t.Fatal(err)
	}
	vPos, err := gaa.SolveLinearized(0.5, rho, zero, zero)
	if err != nil {
		t.Fatal(err)
	}
	// Under the gate, the channel potential must follow the gate within
	// the screening model: negative gate → barrier, positive → well.
	mid := n / 2
	if !(vNeg[mid] < -0.2 && vPos[mid] > 0.2) {
		t.Fatalf("gate control broken: V_mid(-0.5)=%g, V_mid(+0.5)=%g", vNeg[mid], vPos[mid])
	}
	// Ends pinned.
	if vNeg[0] != 0 || math.Abs(vNeg[n-1]-0.05) > 1e-12 {
		t.Fatal("contact boundary conditions not enforced")
	}
}

func TestTridiagSolver(t *testing.T) {
	low := []float64{0, -1, -1, -1}
	diag := []float64{2, 2, 2, 2}
	up := []float64{-1, -1, -1, 0}
	rhs := []float64{1, 0, 0, 1}
	x, err := solveTridiag(low, diag, up, rhs)
	if err != nil {
		t.Fatal(err)
	}
	// Verify residual.
	n := len(diag)
	for i := 0; i < n; i++ {
		r := diag[i] * x[i]
		if i > 0 {
			r += low[i] * x[i-1]
		}
		if i < n-1 {
			r += up[i] * x[i+1]
		}
		if math.Abs(r-rhs[i]) > 1e-12 {
			t.Fatalf("tridiag residual %g at row %d", r-rhs[i], i)
		}
	}
}

// ungated returns a GAA model of n nodes with no gate: the plain 1-D
// Poisson equation ε_ch·d²V/dx² = −ρ/ε₀ between the two pinned ends.
func ungated(n int, dx, vs, vd float64) *GateAllAround1D {
	return &GateAllAround1D{
		Dx: dx, EpsChannel: 1, EpsOxide: 3.9, Lambda: 3,
		GateMask: make([]bool, n), VSource: vs, VDrain: vd,
	}
}

// TestCapacitor1D: without charge or gate the potential is linear between
// the contacts.
func TestCapacitor1D(t *testing.T) {
	n := 21
	zero := make([]float64, n)
	v, err := ungated(n, 0.5, 0, 1).SolveLinearized(0, zero, zero, zero)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		want := float64(i) / float64(n-1)
		if math.Abs(v[i]-want) > 1e-9 {
			t.Fatalf("node %d: V=%g, want %g", i, v[i], want)
		}
	}
}

// TestUniformCharge1D: a uniform charge between grounded contacts gives the
// parabola ρ/(2ε₀ε_ch)·x(L−x), which the three-point stencil reproduces
// exactly.
func TestUniformCharge1D(t *testing.T) {
	n := 41
	dx := 0.25
	g := ungated(n, dx, 0, 0)
	g.EpsChannel = 11.7
	rho, zero := make([]float64, n), make([]float64, n)
	const rho0 = 1e-3
	for i := range rho {
		rho[i] = rho0
	}
	v, err := g.SolveLinearized(0, rho, zero, zero)
	if err != nil {
		t.Fatal(err)
	}
	l := float64(n-1) * dx
	for i := 1; i < n-1; i++ {
		x := float64(i) * dx
		want := rho0 / units.Eps0 / g.EpsChannel / 2 * x * (l - x)
		if math.Abs(v[i]-want) > 1e-8*(1+want) {
			t.Fatalf("node %d: V=%g, want %g", i, v[i], want)
		}
	}
}

// TestLaplaceMaximumPrinciple: without charge, and with the gate potential
// inside the range of the contact potentials, no node leaves that range,
// and the interior is strictly positive when the data are ≥ 0 and not all 0.
func TestLaplaceMaximumPrinciple(t *testing.T) {
	n := 31
	g := ungated(n, 1, 0, 1)
	g.EpsChannel = 11.7
	for i := 10; i < 20; i++ {
		g.GateMask[i] = true
	}
	zero := make([]float64, n)
	for _, vg := range []float64{0, 0.3, 1} {
		v, err := g.SolveLinearized(vg, zero, zero, zero)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < n-1; i++ {
			if v[i] < -1e-9 || v[i] > 1+1e-9 {
				t.Fatalf("V_G=%g: node %d value %g violates maximum principle", vg, i, v[i])
			}
			if v[i] <= 0 {
				t.Fatalf("V_G=%g: interior node %d not positive: %g", vg, i, v[i])
			}
		}
	}
}
