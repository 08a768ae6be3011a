package core

import "math"

// The self-consistent loop's mixing rule (DESIGN.md §18). Depth 3 and
// β = 0.7 with the restart below are the recipe that held on every gate
// ladder tried: with β = 1 or without the restart the Si nanowire FET's
// off-state point does not converge, and depth 5 wins on no whole ladder.
const (
	// scfMixing is β, the weight of the residual in every step; with no
	// history the step is the damped u + β·f.
	scfMixing = 0.7
	// andersonDepth is the most (Δu, Δf) pairs the mixer keeps.
	andersonDepth = 3
)

// anderson is type-II Anderson acceleration (Walker & Ni) of the fixed
// point u = g(u), driven by the residual f = g(u) − u of each iterate:
//
//	γ       = argmin ‖f_k − ΔF·γ‖₂
//	u_{k+1} = u_k + β·f_k − (ΔU + β·ΔF)·γ
//
// where the columns of ΔU and ΔF are the differences of the last
// andersonDepth consecutive iterates and residuals. The safeguard: a
// residual whose max-norm exceeds the previous one clears the history, so
// that step is exactly the damped one and the extrapolation restarts from
// there. The zero value is ready to use; every step is deterministic.
type anderson struct {
	du, df [][]float64 // history pairs, oldest first
	u, f   []float64   // the previous iterate and its residual
	fMax   float64     // max|f| of the previous residual
}

// step overwrites u, the iterate u_k, with u_{k+1}, given its residual f.
func (a *anderson) step(u, f []float64) {
	fMax := maxAbs(f)
	switch {
	case a.u == nil:
		a.u, a.f = make([]float64, len(u)), make([]float64, len(f))
	case fMax > a.fMax:
		a.du, a.df = a.du[:0], a.df[:0]
	default:
		var du, df []float64
		if len(a.du) == andersonDepth {
			// Recycle the oldest pair's storage for the newest.
			du, df = a.du[0], a.df[0]
			a.du, a.df = append(a.du[:0], a.du[1:]...), append(a.df[:0], a.df[1:]...)
		} else {
			du, df = make([]float64, len(u)), make([]float64, len(f))
		}
		for i := range u {
			du[i] = u[i] - a.u[i]
			df[i] = f[i] - a.f[i]
		}
		a.du, a.df = append(a.du, du), append(a.df, df)
	}
	copy(a.u, u)
	copy(a.f, f)
	a.fMax = fMax

	gamma := a.coefficients(f)
	for i := range u {
		v := u[i] + scfMixing*f[i]
		for j, g := range gamma {
			v -= (a.du[j][i] + scfMixing*a.df[j][i]) * g
		}
		u[i] = v
	}
}

// coefficients solves min‖f − ΔF·γ‖₂ by modified Gram–Schmidt QR of ΔF.
// A column that is (numerically) a combination of the ones before it
// makes the problem rank-deficient; the oldest pair is then dropped and
// the factorization redone, so γ always comes from a well-posed system.
func (a *anderson) coefficients(f []float64) []float64 {
	for len(a.df) > 0 {
		m := len(a.df)
		q := make([][]float64, m)
		r := make([]float64, m*m)
		ok := true
		for j := 0; j < m; j++ {
			v := append([]float64(nil), a.df[j]...)
			for i := 0; i < j; i++ {
				r[i*m+j] = dot(q[i], v)
				for k := range v {
					v[k] -= r[i*m+j] * q[i][k]
				}
			}
			nrm := math.Sqrt(dot(v, v))
			if nrm <= 1e-12*math.Sqrt(dot(a.df[j], a.df[j])) {
				ok = false
				break
			}
			r[j*m+j] = nrm
			for k := range v {
				v[k] /= nrm
			}
			q[j] = v
		}
		if !ok {
			a.du, a.df = a.du[1:], a.df[1:]
			continue
		}
		// γ = R⁻¹·Qᵀf by back substitution.
		gamma := make([]float64, m)
		for j := m - 1; j >= 0; j-- {
			s := dot(q[j], f)
			for i := j + 1; i < m; i++ {
				s -= r[j*m+i] * gamma[i]
			}
			gamma[j] = s / r[j*m+j]
		}
		return gamma
	}
	return nil
}

func dot(x, y []float64) float64 {
	var s float64
	for i := range x {
		s += x[i] * y[i]
	}
	return s
}

func maxAbs(v []float64) float64 {
	var m float64
	for _, x := range v {
		m = math.Max(m, math.Abs(x))
	}
	return m
}
