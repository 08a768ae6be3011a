package wavefunction

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/linalg"
)

// The complex band structure of a periodic lead is the dense oracle of the
// solver's tests: the quadratic Bloch eigenproblem
// U†φ + λ(D−E)φ + λ²Uφ = 0, solved through a shifted companion
// linearization, yields the propagating modes and their group velocities,
// which the mode tests hold to the band structure and against which
// TestComplexBandsGNRGapMatchesTunneling holds the solver's tunneling.

// propagatingTol classifies a Bloch factor as propagating when its modulus
// is within this distance of 1.
const propagatingTol = 1e-6

// LeadModes holds the propagating Bloch modes of a periodic lead at one
// energy, split by direction of travel.
type LeadModes struct {
	// Lambdas are the Bloch factors λ = e^{ik·a} of the propagating modes.
	Lambdas []complex128
	// Phis is the layer-sized mode-vector matrix; column j is the
	// (normalized) cell wave function of mode j.
	Phis *linalg.Matrix
	// Velocities are the group velocities in eV·nm/ħ; positive values
	// travel toward +x.
	Velocities []float64
}

// NumRight returns the number of right-moving (v > 0) modes.
func (m *LeadModes) NumRight() int {
	n := 0
	for _, v := range m.Velocities {
		if v > 0 {
			n++
		}
	}
	return n
}

// NumLeft returns the number of left-moving (v < 0) modes.
func (m *LeadModes) NumLeft() int { return len(m.Velocities) - m.NumRight() }

// Modes solves the lead Bloch problem at energy e for a lead with
// principal-layer block h00, forward coupling h01 (toward +x) and layer
// period a (nm). The quadratic eigenproblem is linearized into the pencil
//
//	A·x = λ·B·x,  A = ⎡ 0    I   ⎤  B = ⎡ I  0 ⎤   x = ⎡ φ  ⎤
//	              ⎣ −U†  −(D−E)⎦      ⎣ 0  U ⎦       ⎣ λφ ⎦
//
// and solved via a spectral transform with a generic complex shift σ:
// eig((A−σB)⁻¹B) = μ, λ = σ + 1/μ, which tolerates singular U (evanescent
// modes at λ → ∞ map to μ → 0).
func Modes(h00, h01 *linalg.Matrix, e float64, a float64) (*LeadModes, error) {
	eig, sigma, err := pencilEig(h00, h01, e)
	if err != nil {
		return nil, err
	}
	return modesFromEig(eig, sigma, h01, h00.Rows, a)
}

// pencilEig builds the companion pencil of the lead Bloch problem at
// energy e, applies the σ-shifted spectral transform, and returns its
// eigendecomposition together with the shift used. Pencil eigenvalues
// recover as λ = σ + 1/μ.
func pencilEig(h00, h01 *linalg.Matrix, e float64) (*Eigen, complex128, error) {
	n := h00.Rows
	if h00.Cols != n || h01.Rows != n || h01.Cols != n {
		return nil, 0, fmt.Errorf("wavefunction: lead blocks must be square and same-sized")
	}
	bigA := linalg.New(2*n, 2*n)
	bigB := linalg.New(2*n, 2*n)
	for i := 0; i < n; i++ {
		bigA.Set(i, n+i, 1)
		bigB.Set(i, i, 1)
	}
	u := h01
	ud := h01.ConjTranspose()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			bigA.Set(n+i, j, -ud.At(i, j))
			d := -h00.At(i, j)
			if i == j {
				d += complex(e, 0)
			}
			bigA.Set(n+i, n+j, d) // −(D−E) = E−D
			bigB.Set(n+i, n+j, u.At(i, j))
		}
	}
	// Generic complex shifts: any σ off the pencil spectrum works; they
	// are fixed for reproducibility, with one retry on collision.
	for _, sigma := range []complex128{0.5718 + 0.8391i, 1.3141 - 0.2718i} {
		shifted := bigA.Sub(bigB.Scale(sigma))
		f, err := linalg.FactorInPlace(shifted, make([]int, shifted.Rows))
		if err != nil {
			continue
		}
		sb := bigB.Clone()
		f.SolveInPlace(sb)
		eig, err := Eig(sb)
		if err != nil {
			return nil, 0, fmt.Errorf("wavefunction: mode eigenproblem failed: %w", err)
		}
		return eig, sigma, nil
	}
	return nil, 0, fmt.Errorf("wavefunction: spectral transform singular for all shifts")
}

// allLambdas returns every finite Bloch factor of the lead at energy e
// (propagating and evanescent in both directions).
func allLambdas(h00, h01 *linalg.Matrix, e float64) ([]complex128, error) {
	eig, sigma, err := pencilEig(h00, h01, e)
	if err != nil {
		return nil, err
	}
	out := make([]complex128, 0, len(eig.Values))
	for _, mu := range eig.Values {
		if cmplx.Abs(mu) < 1e-12 {
			continue // λ → ∞
		}
		out = append(out, sigma+1/mu)
	}
	return out, nil
}

func modesFromEig(eig *Eigen, sigma complex128, u *linalg.Matrix, n int, a float64) (*LeadModes, error) {
	modes := &LeadModes{}
	var phiCols [][]complex128
	for j, mu := range eig.Values {
		if cmplx.Abs(mu) < 1e-12 {
			continue // λ → ∞: strongly evanescent
		}
		lambda := sigma + 1/mu
		if math.Abs(cmplx.Abs(lambda)-1) > propagatingTol {
			continue // evanescent
		}
		// Extract and normalize φ = x[:n].
		phi := make([]complex128, n)
		var norm float64
		for i := 0; i < n; i++ {
			phi[i] = eig.Vectors.At(i, j)
			norm += real(phi[i])*real(phi[i]) + imag(phi[i])*imag(phi[i])
		}
		norm = math.Sqrt(norm)
		if norm < 1e-12 {
			continue
		}
		for i := range phi {
			phi[i] /= complex(norm, 0)
		}
		// Group velocity: v = −(2a/ħ)·Im(λ·φ†Uφ).
		var phiU complex128
		for i := 0; i < n; i++ {
			var s complex128
			for k := 0; k < n; k++ {
				s += u.At(i, k) * phi[k]
			}
			phiU += cmplx.Conj(phi[i]) * s
		}
		v := -2 * a * imag(lambda*phiU)
		modes.Lambdas = append(modes.Lambdas, lambda)
		modes.Velocities = append(modes.Velocities, v)
		phiCols = append(phiCols, phi)
	}
	modes.Phis = linalg.New(n, len(phiCols))
	for j, col := range phiCols {
		for i := 0; i < n; i++ {
			modes.Phis.Set(i, j, col[i])
		}
	}
	return modes, nil
}
