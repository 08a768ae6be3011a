package wavefunction

import (
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/linalg"
	"repro/internal/perf"
)

// Eigen holds the eigendecomposition of a general complex matrix:
// A·Vectors[:,j] = Values[j]·Vectors[:,j]. Vectors columns are normalized to
// unit Euclidean length but are not mutually orthogonal in general.
type Eigen struct {
	Values  []complex128
	Vectors *linalg.Matrix
}

// maxQRIterations bounds the shifted-QR sweeps per eigenvalue.
const maxQRIterations = 80

// machEps is the double-precision unit roundoff used by convergence tests.
const machEps = 2.220446049250313e-16

// Eig computes all eigenvalues and right eigenvectors of a general complex
// matrix. The algorithm is the dense non-Hermitian standard: unitary
// reduction to upper Hessenberg form, explicit single-shift (Wilkinson) QR
// iteration with Givens rotations to Schur form, and triangular
// back-substitution for the eigenvectors. It is the kernel behind Modes and
// ComplexBands, the dense Bloch-mode oracle of the lead.
func Eig(a *linalg.Matrix) (*Eigen, error) {
	if a.Rows != a.Cols {
		return nil, errors.New("wavefunction: Eig requires a square matrix")
	}
	n := a.Rows
	if n == 0 {
		return &Eigen{Values: nil, Vectors: linalg.New(0, 0)}, nil
	}
	h := a.Clone()
	z := linalg.Identity(n)
	hessenberg(h, z)
	if err := schurQR(h, z); err != nil {
		return nil, err
	}
	perf.AddFlops(25 * int64(n) * int64(n) * int64(n)) // typical cost of QR to Schur with vectors

	values := make([]complex128, n)
	for i := 0; i < n; i++ {
		values[i] = h.At(i, i)
	}
	vectors := triangularEigenvectors(h, z)
	return &Eigen{Values: values, Vectors: vectors}, nil
}

// EigValues computes only the eigenvalues of a general complex matrix.
func EigValues(a *linalg.Matrix) ([]complex128, error) {
	if a.Rows != a.Cols {
		return nil, errors.New("wavefunction: EigValues requires a square matrix")
	}
	n := a.Rows
	h := a.Clone()
	hessenberg(h, nil)
	if err := schurQR(h, nil); err != nil {
		return nil, err
	}
	values := make([]complex128, n)
	for i := 0; i < n; i++ {
		values[i] = h.At(i, i)
	}
	return values, nil
}

// hessenberg reduces h to upper Hessenberg form in place by complex
// Householder reflections. If z is non-nil, the accumulated unitary
// similarity is multiplied into it (z ← z·Q).
func hessenberg(h, z *linalg.Matrix) {
	n := h.Rows
	v := make([]complex128, n)
	for k := 0; k < n-2; k++ {
		var norm float64
		for i := k + 1; i < n; i++ {
			norm += real(h.At(i, k))*real(h.At(i, k)) + imag(h.At(i, k))*imag(h.At(i, k))
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			continue
		}
		x0 := h.At(k+1, k)
		var alpha complex128
		if x0 == 0 {
			alpha = complex(-norm, 0)
		} else {
			alpha = -x0 / complex(cmplx.Abs(x0), 0) * complex(norm, 0)
		}
		var vnorm float64
		for i := k + 1; i < n; i++ {
			vi := h.At(i, k)
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
		// Left update: h ← (I − 2vv†)·h on rows k+1..n-1.
		for j := k; j < n; j++ {
			var s complex128
			for i := k + 1; i < n; i++ {
				s += cmplx.Conj(v[i]) * h.At(i, j)
			}
			s *= 2
			for i := k + 1; i < n; i++ {
				h.Set(i, j, h.At(i, j)-s*v[i])
			}
		}
		// Right update: h ← h·(I − 2vv†) on cols k+1..n-1.
		for i := 0; i < n; i++ {
			var s complex128
			for j := k + 1; j < n; j++ {
				s += h.At(i, j) * v[j]
			}
			s *= 2
			for j := k + 1; j < n; j++ {
				h.Set(i, j, h.At(i, j)-s*cmplx.Conj(v[j]))
			}
		}
		if z != nil {
			for i := 0; i < n; i++ {
				var s complex128
				for j := k + 1; j < n; j++ {
					s += z.At(i, j) * v[j]
				}
				s *= 2
				for j := k + 1; j < n; j++ {
					z.Set(i, j, z.At(i, j)-s*cmplx.Conj(v[j]))
				}
			}
		}
	}
	perf.AddFlops(40 * int64(n) * int64(n) * int64(n) / 3)
}

// givens computes a complex plane rotation with real cosine c ≥ 0 and
// complex sine s such that
//
//	[  c   s ] [a]   [r]
//	[ −s̄   c ] [b] = [0].
func givens(a, b complex128) (c float64, s complex128) {
	if b == 0 {
		return 1, 0
	}
	if a == 0 {
		return 0, cmplx.Conj(b) / complex(cmplx.Abs(b), 0)
	}
	aa, ab := cmplx.Abs(a), cmplx.Abs(b)
	t := math.Hypot(aa, ab)
	c = aa / t
	s = a / complex(aa, 0) * cmplx.Conj(b) / complex(t, 0)
	return c, s
}

// schurQR drives h (upper Hessenberg) to upper triangular Schur form by
// explicit single-shift QR with deflation, accumulating rotations into z
// when z is non-nil.
func schurQR(h, z *linalg.Matrix) error {
	n := h.Rows
	cs := make([]float64, n)
	sn := make([]complex128, n)
	hnorm := h.FrobeniusNorm()
	if hnorm == 0 {
		return nil
	}
	m := n - 1 // active block is rows/cols l..m
	iter := 0
	for m > 0 {
		// Deflate: find the start l of the active unreduced block.
		l := m
		for l > 0 {
			sub := cmplx.Abs(h.At(l, l-1))
			if sub <= machEps*(cmplx.Abs(h.At(l-1, l-1))+cmplx.Abs(h.At(l, l))+machEps*hnorm) {
				h.Set(l, l-1, 0)
				break
			}
			l--
		}
		if l == m {
			m--
			iter = 0
			continue
		}
		iter++
		if iter > maxQRIterations {
			return errors.New("wavefunction: QR iteration failed to converge")
		}
		// Wilkinson shift from the trailing 2×2 of the active block; every
		// few stalled sweeps take an exceptional ad-hoc shift to break
		// symmetry-induced cycling.
		var mu complex128
		if iter%12 == 0 {
			mu = h.At(m, m) + complex(cmplx.Abs(h.At(m, m-1)), 0)*complex(1.0, 0.5)
		} else {
			a := h.At(m-1, m-1)
			b := h.At(m-1, m)
			c := h.At(m, m-1)
			d := h.At(m, m)
			tr2 := (a + d) / 2
			disc := cmplx.Sqrt(tr2*tr2 - (a*d - b*c))
			mu1 := tr2 + disc
			mu2 := tr2 - disc
			if cmplx.Abs(mu1-d) < cmplx.Abs(mu2-d) {
				mu = mu1
			} else {
				mu = mu2
			}
		}
		// Explicit QR step on the active block: factor (H − μI) = Q·R with
		// Givens rotations, then form R·Q† + μI block-wise.
		for i := l; i <= m; i++ {
			h.Set(i, i, h.At(i, i)-mu)
		}
		for i := l; i < m; i++ {
			c, s := givens(h.At(i, i), h.At(i+1, i))
			cs[i], sn[i] = c, s
			// Apply the rotation to rows i, i+1 over columns i..n-1.
			for j := i; j < h.Cols; j++ {
				t1 := h.At(i, j)
				t2 := h.At(i+1, j)
				h.Set(i, j, complex(c, 0)*t1+s*t2)
				h.Set(i+1, j, -cmplx.Conj(s)*t1+complex(c, 0)*t2)
			}
		}
		for i := l; i < m; i++ {
			c, s := cs[i], sn[i]
			// Apply the adjoint rotation to columns i, i+1 over rows 0..i+1.
			top := i + 2
			if top > h.Rows {
				top = h.Rows
			}
			for r := 0; r < top; r++ {
				t1 := h.At(r, i)
				t2 := h.At(r, i+1)
				h.Set(r, i, complex(c, 0)*t1+cmplx.Conj(s)*t2)
				h.Set(r, i+1, -s*t1+complex(c, 0)*t2)
			}
			if z != nil {
				for r := 0; r < z.Rows; r++ {
					t1 := z.At(r, i)
					t2 := z.At(r, i+1)
					z.Set(r, i, complex(c, 0)*t1+cmplx.Conj(s)*t2)
					z.Set(r, i+1, -s*t1+complex(c, 0)*t2)
				}
			}
		}
		for i := l; i <= m; i++ {
			h.Set(i, i, h.At(i, i)+mu)
		}
	}
	// Clean the strictly-lower part, which holds converged rotations' noise.
	for i := 1; i < n; i++ {
		for j := 0; j < i; j++ {
			h.Set(i, j, 0)
		}
	}
	return nil
}

// triangularEigenvectors back-substitutes on the upper triangular Schur
// factor t to obtain its eigenvectors, then rotates them back with z.
func triangularEigenvectors(t, z *linalg.Matrix) *linalg.Matrix {
	n := t.Rows
	small := machEps * (1 + t.FrobeniusNorm())
	vecs := linalg.New(n, n)
	x := make([]complex128, n)
	for j := 0; j < n; j++ {
		lambda := t.At(j, j)
		for i := range x {
			x[i] = 0
		}
		x[j] = 1
		for i := j - 1; i >= 0; i-- {
			var s complex128
			for k := i + 1; k <= j; k++ {
				s += t.At(i, k) * x[k]
			}
			den := t.At(i, i) - lambda
			if cmplx.Abs(den) < small {
				// Perturb repeated eigenvalues just enough to keep the
				// back-substitution bounded (LAPACK ztrevc convention).
				den = complex(small, 0)
			}
			x[i] = -s / den
		}
		// v = Z·x, normalized.
		var norm float64
		for i := 0; i < n; i++ {
			var s complex128
			for k := 0; k <= j; k++ {
				s += z.At(i, k) * x[k]
			}
			vecs.Set(i, j, s)
			norm += real(s)*real(s) + imag(s)*imag(s)
		}
		norm = math.Sqrt(norm)
		if norm > 0 {
			inv := complex(1/norm, 0)
			for i := 0; i < n; i++ {
				vecs.Set(i, j, vecs.At(i, j)*inv)
			}
		}
	}
	perf.AddFlops(4 * int64(n) * int64(n) * int64(n))
	return vecs
}

// randMatrix returns an n×m matrix with entries uniform in the unit square,
// using the provided source for reproducibility.
func randMatrix(rng *rand.Rand, n, m int) *linalg.Matrix {
	a := linalg.New(n, m)
	for i := range a.Data {
		a.Data[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	return a
}

// randHermitian returns a random n×n Hermitian matrix.
func randHermitian(rng *rand.Rand, n int) *linalg.Matrix {
	a := randMatrix(rng, n, n)
	h := a.Add(a.ConjTranspose())
	h.ScaleInPlace(0.5)
	return h
}

func TestEigGeneralDiagonal(t *testing.T) {
	a := linalg.New(3, 3)
	a.Set(0, 0, 1+1i)
	a.Set(1, 1, -2)
	a.Set(2, 2, 3i)
	eig, err := Eig(a)
	if err != nil {
		t.Fatal(err)
	}
	found := map[complex128]bool{}
	for _, v := range eig.Values {
		for _, w := range []complex128{1 + 1i, -2, 3i} {
			if cmplx.Abs(v-w) < 1e-10 {
				found[w] = true
			}
		}
	}
	if len(found) != 3 {
		t.Fatalf("diagonal eigenvalues not recovered: %v", eig.Values)
	}
}

func TestEigGeneralKnown2x2(t *testing.T) {
	// [[0,1],[1,0]] has eigenvalues ±1.
	a := linalg.FromRows([][]complex128{{0, 1}, {1, 0}})
	vals, err := EigValues(a)
	if err != nil {
		t.Fatal(err)
	}
	sorted := []float64{real(vals[0]), real(vals[1])}
	sort.Float64s(sorted)
	if math.Abs(sorted[0]+1) > 1e-10 || math.Abs(sorted[1]-1) > 1e-10 {
		t.Fatalf("eigenvalues = %v", vals)
	}
}

func TestEigGeneralNonDiagonalizableSafe(t *testing.T) {
	// A Jordan block: defective, but the solver must still return finite
	// output with both eigenvalues ≈ 2.
	a := linalg.FromRows([][]complex128{{2, 1}, {0, 2}})
	eig, err := Eig(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range eig.Values {
		if cmplx.Abs(v-2) > 1e-7 {
			t.Fatalf("Jordan block eigenvalue = %v", v)
		}
	}
	for _, v := range eig.Vectors.Data {
		if cmplx.IsNaN(v) || cmplx.IsInf(v) {
			t.Fatal("non-finite eigenvector entries for defective matrix")
		}
	}
}

func TestEigGeneralRandomResiduals(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, n := range []int{2, 3, 6, 15, 30} {
		a := randMatrix(rng, n, n)
		eig, err := Eig(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		scale := 1 + a.MaxAbs()
		for j := 0; j < n; j++ {
			v := make([]complex128, n)
			var vn float64
			for i := 0; i < n; i++ {
				v[i] = eig.Vectors.At(i, j)
				vn += real(v[i])*real(v[i]) + imag(v[i])*imag(v[i])
			}
			if math.Sqrt(vn) < 0.5 {
				t.Fatalf("n=%d: eigenvector %d not normalized", n, j)
			}
			av := a.MulVec(v)
			var res float64
			for i := 0; i < n; i++ {
				res += cmplx.Abs(av[i] - eig.Values[j]*v[i])
			}
			if res > 1e-8*scale*float64(n) {
				t.Fatalf("n=%d: eigenpair %d residual %g", n, j, res)
			}
		}
	}
}

func TestEigGeneralMatchesHermitian(t *testing.T) {
	// On a Hermitian input the general solver must reproduce EigH values.
	rng := rand.New(rand.NewSource(23))
	n := 10
	a := randHermitian(rng, n)
	hv, err := linalg.EigH(a)
	if err != nil {
		t.Fatal(err)
	}
	gv, err := EigValues(a)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, n)
	for i, v := range gv {
		if math.Abs(imag(v)) > 1e-8 {
			t.Fatalf("Hermitian matrix produced complex eigenvalue %v", v)
		}
		got[i] = real(v)
	}
	sort.Float64s(got)
	for i := range got {
		if math.Abs(got[i]-hv.Values[i]) > 1e-8 {
			t.Fatalf("general vs Hermitian eigenvalue %d: %v vs %v", i, got[i], hv.Values[i])
		}
	}
}

func TestEigGeneralUnitCircle(t *testing.T) {
	// A circulant shift matrix has eigenvalues that are the n-th roots of
	// unity — a stress test for complex shifts and deflation.
	n := 8
	a := linalg.New(n, n)
	for i := 0; i < n; i++ {
		a.Set(i, (i+1)%n, 1)
	}
	vals, err := EigValues(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vals {
		if math.Abs(cmplx.Abs(v)-1) > 1e-8 {
			t.Fatalf("circulant eigenvalue %v not on unit circle", v)
		}
	}
	// They must also be distinct n-th roots of unity.
	for _, v := range vals {
		w := cmplx.Pow(v, complex(float64(n), 0))
		if cmplx.Abs(w-1) > 1e-6 {
			t.Fatalf("eigenvalue %v is not an %d-th root of unity", v, n)
		}
	}
}
