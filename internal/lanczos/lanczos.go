// Package lanczos implements the iterative sparse eigensolver of the
// paper's electronic-structure lineage: NEMO-3D-style Lanczos iteration
// with full reorthogonalization over matrix-free operators, plus the
// folded-spectrum transform (H−σ)² that extracts interior states — band-
// edge states of multimillion-atom quantum dots — using nothing but
// sparse matrix-vector products.
package lanczos

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"sort"

	"repro/internal/linalg"
	"repro/internal/perf"
	"repro/internal/sparse"
)

// Operator is a Hermitian linear operator given by its action.
type Operator interface {
	// Apply computes y = A·x. len(x) == len(y) == Dim().
	Apply(x, y []complex128)
	// Dim returns the operator dimension.
	Dim() int
}

// CSROperator adapts a Hermitian CSR matrix.
type CSROperator struct{ M *sparse.CSR }

// Apply implements Operator.
func (o CSROperator) Apply(x, y []complex128) {
	m := o.M
	for i := 0; i < m.Rows; i++ {
		var s complex128
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			s += m.Values[k] * x[m.ColIdx[k]]
		}
		y[i] = s
	}
	perf.AddFlops(int64(m.NNZ()) * perf.FlopsCMulAdd)
}

// Dim implements Operator.
func (o CSROperator) Dim() int { return o.M.Rows }

// Folded wraps an operator with the folded-spectrum transform
// (A − σ)²: its lowest eigenstates are the states of A closest to σ.
type Folded struct {
	Op    Operator
	Sigma float64
	tmp   []complex128
}

// NewFolded builds the folded operator around target σ.
func NewFolded(op Operator, sigma float64) *Folded {
	return &Folded{Op: op, Sigma: sigma, tmp: make([]complex128, op.Dim())}
}

// Apply implements Operator: y = (A−σ)(A−σ)·x.
func (f *Folded) Apply(x, y []complex128) {
	f.Op.Apply(x, f.tmp)
	s := complex(f.Sigma, 0)
	for i := range f.tmp {
		f.tmp[i] -= s * x[i]
	}
	f.Op.Apply(f.tmp, y)
	for i := range y {
		y[i] -= s * f.tmp[i]
	}
	perf.AddFlops(int64(4 * len(x)))
}

// Dim implements Operator.
func (f *Folded) Dim() int { return f.Op.Dim() }

// Result holds converged eigenpairs sorted ascending by eigenvalue.
type Result struct {
	Values  []float64
	Vectors [][]complex128
	// Iterations is the Krylov dimension reached.
	Iterations int
}

// Lowest computes the k smallest eigenvalues (and eigenvectors) of the
// Hermitian operator op by Lanczos iteration with full
// reorthogonalization, the robust (if memory-hungry) variant production
// electronic-structure codes use at these problem sizes. rng seeds the
// start vector; tol is the Ritz-residual target relative to the spectral
// scale; maxIter bounds the Krylov dimension (0: min(4k+40, n)).
func Lowest(op Operator, k int, tol float64, maxIter int, rng *rand.Rand) (*Result, error) {
	return run(op, k, tol, maxIter, rng, func(vals []float64) []int {
		idx := make([]int, k)
		for i := range idx {
			idx[i] = i
		}
		return idx
	})
}

// LargestMagnitude computes the k eigenvalues of largest modulus — the
// selection rule of shift-invert spectral transforms, where the states
// nearest the shift dominate the inverse operator's spectrum.
func LargestMagnitude(op Operator, k int, tol float64, maxIter int, rng *rand.Rand) (*Result, error) {
	return run(op, k, tol, maxIter, rng, func(vals []float64) []int {
		idx := make([]int, len(vals))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool {
			return math.Abs(vals[idx[a]]) > math.Abs(vals[idx[b]])
		})
		return idx[:k]
	})
}

// run is the shared Lanczos driver; pick selects which k Ritz pairs (by
// index into the ascending Ritz values) must converge and be returned.
func run(op Operator, k int, tol float64, maxIter int, rng *rand.Rand, pick func([]float64) []int) (*Result, error) {
	n := op.Dim()
	if k < 1 || k > n {
		return nil, fmt.Errorf("lanczos: k = %d outside [1, %d]", k, n)
	}
	if tol <= 0 {
		tol = 1e-10
	}
	if maxIter <= 0 {
		maxIter = 12*k + 150
	}
	if maxIter > n {
		maxIter = n
	}
	if maxIter < k {
		maxIter = k
	}
	// Krylov basis (full reorthogonalization keeps it numerically
	// orthonormal).
	basis := make([][]complex128, 0, maxIter)
	alpha := make([]float64, 0, maxIter)
	beta := make([]float64, 0, maxIter)

	v := randomUnit(n, rng)
	w := make([]complex128, n)
	var spectralScale float64

	for iter := 0; iter < maxIter; iter++ {
		basis = append(basis, v)
		op.Apply(v, w)
		// α_j = ⟨v|A|v⟩ (real for Hermitian A).
		a := realDot(v, w)
		alpha = append(alpha, a)
		// w ← A·v − α·v − β·v_{j-1}, then full reorthogonalization.
		for i := range w {
			w[i] -= complex(a, 0) * v[i]
		}
		if iter > 0 {
			b := beta[iter-1]
			prev := basis[iter-1]
			for i := range w {
				w[i] -= complex(b, 0) * prev[i]
			}
		}
		for _, u := range basis {
			c := dot(u, w)
			for i := range w {
				w[i] -= c * u[i]
			}
		}
		perf.AddFlops(int64(len(basis)) * int64(n) * 8)
		b := norm(w)
		if math.Abs(a) > spectralScale {
			spectralScale = math.Abs(a)
		}
		if b > spectralScale {
			spectralScale = b
		}

		// Convergence: diagonalize the tridiagonal T_j and check the
		// residual bound |β_j · s_{j,i}| for the selected Ritz pairs.
		if iter+1 >= k {
			vals, vecs, err := tridiagEig(alpha, beta[:iter])
			if err != nil {
				return nil, err
			}
			selected := pick(vals)
			converged := true
			for _, i := range selected {
				res := b * math.Abs(vecs[iter][i])
				if res > tol*(1+spectralScale) {
					converged = false
					break
				}
			}
			if converged || b < 1e-14*(1+spectralScale) || iter == maxIter-1 {
				if !converged && iter == maxIter-1 && b >= 1e-14*(1+spectralScale) {
					return nil, fmt.Errorf("lanczos: %d requested eigenpairs not converged in %d iterations", k, maxIter)
				}
				return assemble(basis, vals, vecs, selected, iter+1), nil
			}
		}
		beta = append(beta, b)
		next := make([]complex128, n)
		inv := complex(1/b, 0)
		for i := range w {
			next[i] = w[i] * inv
		}
		v = next
	}
	return nil, fmt.Errorf("lanczos: iteration did not terminate")
}

// Interior computes the k eigenstates of op closest to the target energy
// σ via the folded spectrum, returning true eigenvalues of op (Rayleigh
// quotients of the folded eigenvectors).
func Interior(op Operator, sigma float64, k int, tol float64, maxIter int, rng *rand.Rand) (*Result, error) {
	folded := NewFolded(op, sigma)
	res, err := Lowest(folded, k, tol, maxIter, rng)
	if err != nil {
		return nil, err
	}
	n := op.Dim()
	tmp := make([]complex128, n)
	for i, vec := range res.Vectors {
		op.Apply(vec, tmp)
		res.Values[i] = realDot(vec, tmp)
	}
	// Re-sort by true eigenvalue.
	for i := 1; i < len(res.Values); i++ {
		for j := i; j > 0 && res.Values[j] < res.Values[j-1]; j-- {
			res.Values[j], res.Values[j-1] = res.Values[j-1], res.Values[j]
			res.Vectors[j], res.Vectors[j-1] = res.Vectors[j-1], res.Vectors[j]
		}
	}
	return res, nil
}

// assemble builds Ritz vectors for the selected Ritz indices.
func assemble(basis [][]complex128, vals []float64, vecs [][]float64, selected []int, m int) *Result {
	n := len(basis[0])
	k := len(selected)
	out := &Result{
		Values:     make([]float64, k),
		Vectors:    make([][]complex128, k),
		Iterations: m,
	}
	for i, sel := range selected {
		out.Values[i] = vals[sel]
		v := make([]complex128, n)
		for j := 0; j < m; j++ {
			c := complex(vecs[j][sel], 0)
			if c == 0 {
				continue
			}
			bj := basis[j]
			for t := 0; t < n; t++ {
				v[t] += c * bj[t]
			}
		}
		// Normalize (roundoff guard).
		nv := norm(v)
		if nv > 0 {
			inv := complex(1/nv, 0)
			for t := range v {
				v[t] *= inv
			}
		}
		out.Vectors[i] = v
	}
	return out
}

// tridiagEig diagonalizes the symmetric tridiagonal (alpha, beta) matrix,
// returning eigenvalues ascending and eigenvectors as columns
// (vecs[row][col]).
func tridiagEig(alpha, beta []float64) ([]float64, [][]float64, error) {
	m := len(alpha)
	t := linalg.New(m, m)
	for i := 0; i < m; i++ {
		t.Set(i, i, complex(alpha[i], 0))
		if i < len(beta) && i+1 < m {
			t.Set(i, i+1, complex(beta[i], 0))
			t.Set(i+1, i, complex(beta[i], 0))
		}
	}
	eig, err := linalg.EigH(t)
	if err != nil {
		return nil, nil, fmt.Errorf("lanczos: tridiagonal solve: %w", err)
	}
	vecs := make([][]float64, m)
	for i := 0; i < m; i++ {
		vecs[i] = make([]float64, m)
		for j := 0; j < m; j++ {
			vecs[i][j] = real(eig.Vectors.At(i, j))
		}
	}
	return eig.Values, vecs, nil
}

func randomUnit(n int, rng *rand.Rand) []complex128 {
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	inv := complex(1/norm(v), 0)
	for i := range v {
		v[i] *= inv
	}
	return v
}

func dot(a, b []complex128) complex128 {
	var s complex128
	for i := range a {
		s += cmplx.Conj(a[i]) * b[i]
	}
	return s
}

func realDot(a, b []complex128) float64 { return real(dot(a, b)) }

func norm(v []complex128) float64 {
	var s float64
	for _, x := range v {
		s += real(x)*real(x) + imag(x)*imag(x)
	}
	return math.Sqrt(s)
}

// NearTarget computes the k eigenstates of the Hermitian block-tridiagonal
// matrix h closest to the target energy σ by shift-invert Lanczos: the
// block-Thomas factorization of (σ·I − H) is computed once, each Lanczos
// step costs one banded solve, and the eigenvalues nearest σ dominate the
// transformed spectrum — converging in a few dozen iterations where the
// folded-spectrum transform needs thousands. This is the production path
// for band-edge states of large confined structures (NEMO-3D-style
// quantum dots).
func NearTarget(h *sparse.BlockTridiag, sigma float64, k int, tol float64, maxIter int, rng *rand.Rand) (*Result, error) {
	// The factor and every solve live on one workspace for the whole run.
	ws := linalg.GetWorkspace()
	defer ws.Release()
	sys := sparse.NewShiftedSystem(h)
	op, err := newShiftInvertOp(sys.At(complex(sigma, 0), ws), ws) // σ·I − H
	if err != nil {
		// σ sits (numerically) on an eigenvalue; nudge and retry once.
		op, err = newShiftInvertOp(sys.At(complex(sigma*(1+1e-9)+1e-12, 0), ws), ws)
		if err != nil {
			return nil, fmt.Errorf("lanczos: shift-invert factorization: %w", err)
		}
	}
	res, err := LargestMagnitude(op, k, tol, maxIter, rng)
	if err != nil {
		return nil, err
	}
	// Convert μ (eigenvalue of (σ−H)⁻¹) back to E = σ − 1/μ, then replace
	// by the Rayleigh quotient of H for full accuracy.
	tmp := h.MulVec
	for i, vec := range res.Vectors {
		hv := tmp(vec)
		res.Values[i] = realDot(vec, hv)
	}
	sortByValue(res)
	return res, nil
}

// shiftInvertOp applies (σ·I − H)⁻¹ through the cached factorization. The
// factor, the per-layer right-hand side and every solution are scratch of
// ws, which the caller holds for the operator's life.
type shiftInvertOp struct {
	fac *sparse.BTDFactor
	rhs []*linalg.Matrix // one column per layer
	ws  *linalg.Workspace
	n   int
}

// newShiftInvertOp factors a on ws.
func newShiftInvertOp(a *sparse.BlockTridiag, ws *linalg.Workspace) (*shiftInvertOp, error) {
	fac, err := a.Factor(ws)
	if err != nil {
		return nil, err
	}
	rhs := make([]*linalg.Matrix, a.Layers())
	for i := range rhs {
		rhs[i] = ws.Get(a.LayerSize(i), 1)
	}
	return &shiftInvertOp{fac: fac, rhs: rhs, ws: ws, n: a.N()}, nil
}

// Apply implements Operator: x is copied into the layer columns in order,
// solved, and the solution copied out to y the same way.
func (o *shiftInvertOp) Apply(x, y []complex128) {
	off := 0
	for _, b := range o.rhs {
		off += copy(b.Data, x[off:])
	}
	sol, err := o.fac.Solve(o.rhs, o.ws)
	if err != nil {
		// The factorization was validated at construction and the
		// right-hand side is built to its shapes.
		panic(err)
	}
	off = 0
	for _, blk := range sol {
		off += copy(y[off:], blk.Data)
		o.ws.Put(blk)
	}
}

// Dim implements Operator.
func (o *shiftInvertOp) Dim() int { return o.n }

// sortByValue orders eigenpairs ascending.
func sortByValue(r *Result) {
	idx := make([]int, len(r.Values))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return r.Values[idx[a]] < r.Values[idx[b]] })
	vals := make([]float64, len(idx))
	vecs := make([][]complex128, len(idx))
	for i, p := range idx {
		vals[i] = r.Values[p]
		vecs[i] = r.Vectors[p]
	}
	r.Values = vals
	r.Vectors = vecs
}
