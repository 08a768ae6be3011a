package linalg

import (
	"errors"
	"math"
	"math/cmplx"
	"sort"

	"repro/internal/perf"
)

// EigenH holds the spectral decomposition of a Hermitian matrix:
// A = V·diag(Values)·V†, with Values ascending and V unitary
// (eigenvectors in columns).
type EigenH struct {
	Values  []float64
	Vectors *Matrix
}

// maxQLIterations bounds the implicit-QL sweeps per eigenvalue.
const maxQLIterations = 64

// ErrNoConvergence is returned by EigH when the QL iteration exhausts
// maxQLIterations sweeps on one eigenvalue.
var ErrNoConvergence = errors.New("linalg: QL iteration failed to converge")

// EigH computes all eigenvalues and eigenvectors of the Hermitian matrix a.
// Only the lower triangle is referenced; the input is not modified.
// The algorithm is Householder reduction to real symmetric tridiagonal form
// followed by the implicit-shift QL iteration, accumulating the complex
// unitary transformation throughout. The transformation is accumulated
// transposed (row j of qt is column j of Q), so every Householder update
// and every QL plane rotation streams contiguous rows; one transpose,
// fused with the eigenvalue sort, produces the column eigenvectors.
func EigH(a *Matrix) (*EigenH, error) { return eigH(a, perf.AddFlops) }

// EigHSetup is EigH for a solver's one-time set-up: the same bits, and no
// flop counted. The flop counter measures the work of the tasks a sweep
// journals; set-up that every process repeats once, inside whichever task
// first builds its solver, would otherwise make a run's total depend on how
// many processes ran it.
func EigHSetup(a *Matrix) (*EigenH, error) { return eigH(a, func(int64) {}) }

// eigH is EigH reporting its flops to count.
func eigH(a *Matrix, count func(int64)) (*EigenH, error) {
	if a.Rows != a.Cols {
		return nil, errors.New("linalg: EigH requires a square matrix")
	}
	n := a.Rows
	if n == 0 {
		return &EigenH{Values: nil, Vectors: New(0, 0)}, nil
	}
	w := a.Clone() // working copy, reduced in place
	wd := w.Data
	qt := Identity(n)

	// Householder reduction to Hermitian tridiagonal form.
	v := make([]complex128, n)
	hv := make([]complex128, n)
	qv := make([]complex128, n) // Q·v of the accumulation step
	for k := 0; k < n-2; k++ {
		// Vector to eliminate: w[k+1:n, k].
		var norm float64
		for i := k + 1; i < n; i++ {
			x := wd[i*n+k]
			norm += real(x)*real(x) + imag(x)*imag(x)
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			continue
		}
		x0 := wd[(k+1)*n+k]
		var alpha complex128
		if x0 == 0 {
			alpha = complex(-norm, 0)
		} else {
			alpha = -x0 / complex(cmplx.Abs(x0), 0) * complex(norm, 0)
		}
		// v = x − alpha·e1, normalized.
		var vnorm float64
		for i := k + 1; i < n; i++ {
			vi := wd[i*n+k]
			if i == k+1 {
				vi -= alpha
			}
			v[i] = vi
			vnorm += real(vi)*real(vi) + imag(vi)*imag(vi)
		}
		vnorm = math.Sqrt(vnorm)
		if vnorm == 0 {
			continue
		}
		for i := k + 1; i < n; i++ {
			v[i] /= complex(vnorm, 0)
		}
		// Two-sided update on the trailing block, rows/cols k..n-1:
		// H = I − 2vv†;  w ← H·w·H = w − 2vw† − 2wv† + 4(v†w)vv†
		// where wv = w·v restricted to the active block.
		for i := k; i < n; i++ {
			wRow := wd[i*n : (i+1)*n]
			var s complex128
			for j := k + 1; j < n; j++ {
				s += wRow[j] * v[j]
			}
			hv[i] = s
		}
		var c complex128 // v†·(w·v)
		for i := k + 1; i < n; i++ {
			c += cmplx.Conj(v[i]) * hv[i]
		}
		for i := k; i < n; i++ {
			vi := complex128(0)
			if i > k {
				vi = v[i]
			}
			wRow := wd[i*n : (i+1)*n]
			for j := k; j < n; j++ {
				vj := complex128(0)
				if j > k {
					vj = v[j]
				}
				d := -2*vi*cmplx.Conj(hv[j]) - 2*hv[i]*cmplx.Conj(vj) + 4*c*vi*cmplx.Conj(vj)
				wRow[j] = wRow[j] + d
			}
		}
		// Accumulate Q ← Q·H = Q − 2(Q·v)v† on the transposed storage:
		// qv[i] sums over j in the same ascending order as a row dot.
		for i := range qv {
			qv[i] = 0
		}
		for j := k + 1; j < n; j++ {
			vj := v[j]
			for i, x := range qt.Data[j*n : (j+1)*n] {
				qv[i] += x * vj
			}
		}
		for j := k + 1; j < n; j++ {
			cj := cmplx.Conj(v[j])
			qRow := qt.Data[j*n : (j+1)*n]
			for i, x := range qRow {
				qRow[i] = x - 2*qv[i]*cj
			}
		}
	}
	count(16 * int64(n) * int64(n) * int64(n) / 3) // reduction + accumulation, leading order

	// Extract the tridiagonal and phase-rotate it real.
	d := make([]float64, n)
	e := make([]float64, n)
	phase := make([]complex128, n)
	phase[0] = 1
	for i := 0; i < n; i++ {
		d[i] = real(wd[i*n+i])
	}
	for i := 0; i < n-1; i++ {
		t := wd[(i+1)*n+i]
		at := cmplx.Abs(t)
		e[i] = at
		if at > 0 {
			phase[i+1] = phase[i] * t / complex(at, 0)
		} else {
			phase[i+1] = phase[i]
		}
	}
	for j := 0; j < n; j++ {
		if phase[j] == 1 {
			continue
		}
		qRow := qt.Data[j*n : (j+1)*n]
		for i, x := range qRow {
			qRow[i] = x * phase[j]
		}
	}

	if err := tql2(d, e, qt); err != nil {
		return nil, err
	}
	count(6 * int64(n) * int64(n) * int64(n)) // QL vector accumulation, leading order

	// Sort ascending; row p of qt becomes eigenvector column j.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return d[idx[a]] < d[idx[b]] })
	vals := make([]float64, n)
	vecs := New(n, n)
	for j, p := range idx {
		vals[j] = d[p]
		for i, x := range qt.Data[p*n : (p+1)*n] {
			vecs.Data[i*n+j] = x
		}
	}
	return &EigenH{Values: vals, Vectors: vecs}, nil
}

// EigHValues computes only the eigenvalues of the Hermitian matrix a.
func EigHValues(a *Matrix) ([]float64, error) {
	eig, err := EigH(a)
	if err != nil {
		return nil, err
	}
	return eig.Values, nil
}

// tql2 runs the implicit-shift QL iteration on the real symmetric
// tridiagonal matrix (diagonal d, subdiagonal e with e[i] coupling i and
// i+1), applying every plane rotation to rows i and i+1 of zt, the
// transposed eigenvector matrix. ErrNoConvergence reports an eigenvalue
// that did not settle within maxQLIterations sweeps.
func tql2(d, e []float64, zt *Matrix) error {
	n := len(d)
	if n <= 1 {
		return nil
	}
	e[n-1] = 0
	for l := 0; l < n; l++ {
		iter := 0
		for {
			// Look for a negligible subdiagonal element to split at.
			m := l
			for ; m < n-1; m++ {
				dd := math.Abs(d[m]) + math.Abs(d[m+1])
				if math.Abs(e[m]) <= machEps*dd {
					break
				}
			}
			if m == l {
				break
			}
			iter++
			if iter > maxQLIterations {
				return ErrNoConvergence
			}
			// Wilkinson shift from the leading 2×2.
			g := (d[l+1] - d[l]) / (2 * e[l])
			r := math.Hypot(g, 1)
			g = d[m] - d[l] + e[l]/(g+math.Copysign(r, g))
			s, c := 1.0, 1.0
			p := 0.0
			deflated := false
			for i := m - 1; i >= l; i-- {
				f := s * e[i]
				b := c * e[i]
				r = math.Hypot(f, g)
				e[i+1] = r
				if r == 0 {
					d[i+1] -= p
					e[m] = 0
					deflated = true
					break
				}
				s = f / r
				c = g / r
				g = d[i+1] - p
				r = (d[i]-g)*s + 2*c*b
				p = s * r
				d[i+1] = g + p
				g = c*r - b
				// Rotate eigenvectors i and i+1.
				zi := zt.Data[i*n : (i+1)*n]
				zi1 := zt.Data[(i+1)*n : (i+2)*n]
				zi = zi[:len(zi1)]
				for k, fk := range zi1 {
					zi1[k] = complex(s, 0)*zi[k] + complex(c, 0)*fk
					zi[k] = complex(c, 0)*zi[k] - complex(s, 0)*fk
				}
			}
			// A zero rotation radius split the block mid-sweep: restart on it.
			// The sweep's last r is not that test — (d_l − g)·s + 2cb can be
			// exactly 0 on a completed sweep (a spectrum symmetric about the
			// shift), and skipping the update below then returns eigenvalues
			// off by O(‖A‖).
			if deflated {
				continue
			}
			d[l] -= p
			e[l] = g
			e[m] = 0
		}
	}
	return nil
}

// machEps is the double-precision unit roundoff used by convergence tests.
const machEps = 2.220446049250313e-16
