package core

import (
	"math"
	"math/rand"
	"testing"
)

// linearContraction returns g(u) = M·u + b on n unknowns, M symmetric with
// eigenvalues spread evenly over [0, ρ] in a seeded random orthogonal
// basis — the shape of a screened Poisson update, whose slow modes are
// the long-wavelength ones.
func linearContraction(n int, rho float64) func(u []float64) []float64 {
	rng := rand.New(rand.NewSource(7))
	// Q = product of two Householder reflectors: orthogonal, dense.
	q := make([][]float64, n)
	for i := range q {
		q[i] = make([]float64, n)
		q[i][i] = 1
	}
	for r := 0; r < 2; r++ {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		vv := dot(v, v)
		for _, row := range q {
			c := 2 * dot(row, v) / vv
			for j := range row {
				row[j] -= c * v[j]
			}
		}
	}
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
		for j := range m[i] {
			for k := 0; k < n; k++ {
				lambda := rho * float64(k) / float64(n-1)
				m[i][j] += q[i][k] * lambda * q[j][k]
			}
		}
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	return func(u []float64) []float64 {
		g := make([]float64, n)
		for i := range g {
			g[i] = dot(m[i], u) + b[i]
		}
		return g
	}
}

// iterate runs u ← step(u, g(u) − u) from u = 0 until max|g(u) − u| < tol
// and returns the iteration count and the trace of every iterate.
func iterate(g func([]float64) []float64, n int, tol float64, step func(u, f []float64)) (int, [][]float64) {
	u := make([]float64, n)
	f := make([]float64, n)
	var trace [][]float64
	for it := 1; it <= 5000; it++ {
		gu := g(u)
		for i := range u {
			f[i] = gu[i] - u[i]
		}
		if maxAbs(f) < tol {
			return it, trace
		}
		step(u, f)
		trace = append(trace, append([]float64(nil), u...))
	}
	return -1, trace
}

// TestAndersonLinearContraction: on a linear map of spectral radius 0.97,
// the damped iteration contracts the slowest mode by only 1 − β·0.03 per
// step; Anderson must reach 1e-10 in under a third of its iterations,
// keeping at most 3 pairs, with identical bits on a rerun.
func TestAndersonLinearContraction(t *testing.T) {
	const n, tol = 20, 1e-10
	g := linearContraction(n, 0.97)
	damped, _ := iterate(g, n, tol, func(u, f []float64) {
		for i := range u {
			u[i] += scfMixing * f[i]
		}
	})
	var a anderson
	maxHist := 0
	accel, trace := iterate(g, n, tol, func(u, f []float64) {
		a.step(u, f)
		maxHist = max(maxHist, len(a.du))
		if len(a.du) != len(a.df) {
			t.Fatalf("history holds %d Δu for %d Δf", len(a.du), len(a.df))
		}
	})
	t.Logf("damped %d iterations, Anderson %d (history ≤ %d)", damped, accel, maxHist)
	if damped < 0 || accel < 0 {
		t.Fatalf("no convergence: damped %d, Anderson %d", damped, accel)
	}
	if 3*accel >= damped {
		t.Fatalf("Anderson took %d iterations, damped %d: want fewer than a third", accel, damped)
	}
	if maxHist != 3 {
		t.Fatalf("history peaked at %d pairs, want exactly 3", maxHist)
	}

	var b anderson
	again, trace2 := iterate(g, n, tol, b.step)
	if again != accel {
		t.Fatalf("rerun took %d iterations, first run %d", again, accel)
	}
	for k := range trace {
		for i := range trace[k] {
			if math.Float64bits(trace[k][i]) != math.Float64bits(trace2[k][i]) {
				t.Fatalf("iterate %d, entry %d: %v then %v", k, i, trace[k][i], trace2[k][i])
			}
		}
	}
}

// TestAndersonRestartsOnGrowth: a residual larger (in max-norm) than the
// previous one clears the history, and that step is exactly the damped
// u + β·f.
func TestAndersonRestartsOnGrowth(t *testing.T) {
	const n = 5
	var a anderson
	u := make([]float64, n)
	f := make([]float64, n)
	// Three shrinking residuals build a history of two pairs.
	for k := 0; k < 3; k++ {
		for i := range f {
			f[i] = math.Pow(0.5, float64(k)) * math.Sin(float64(i+k+1))
		}
		a.step(u, f)
	}
	if len(a.du) != 2 {
		t.Fatalf("history holds %d pairs after three shrinking residuals, want 2", len(a.du))
	}
	grown := make([]float64, n)
	want := make([]float64, n)
	for i := range grown {
		grown[i] = 3 * math.Cos(float64(i))
		want[i] = u[i] + scfMixing*grown[i]
	}
	a.step(u, grown)
	if len(a.du) != 0 || len(a.df) != 0 {
		t.Fatalf("a grown residual left %d pairs in the history", len(a.du))
	}
	for i := range u {
		if math.Float64bits(u[i]) != math.Float64bits(want[i]) {
			t.Fatalf("entry %d: restart step gave %v, damped step %v", i, u[i], want[i])
		}
	}
}

// TestAndersonDropsDependentPairs: a residual equal to the previous one
// (no growth, so no restart) adds a zero Δf column; the least-squares
// problem would be singular, so the pair is dropped and the step is the
// damped one, finite and bit for bit.
func TestAndersonDropsDependentPairs(t *testing.T) {
	var a anderson
	u := []float64{0, 0.1, 0.2}
	f := []float64{0.3, -0.2, 0.1}
	a.step(u, f)
	want := make([]float64, len(u))
	for i := range u {
		want[i] = u[i] + scfMixing*f[i]
	}
	a.step(u, f)
	if len(a.du) != 0 {
		t.Fatalf("a zero Δf column stayed in the history (%d pairs)", len(a.du))
	}
	for i := range u {
		if math.Float64bits(u[i]) != math.Float64bits(want[i]) {
			t.Fatalf("entry %d: %v, want the damped step %v", i, u[i], want[i])
		}
	}
}
