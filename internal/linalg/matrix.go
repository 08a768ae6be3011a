// Package linalg implements the dense complex linear algebra used by the
// quantum-transport kernels: matrix arithmetic, blocked GEMM, LU
// factorization with partial pivoting, and a Hermitian eigensolver
// (Householder tridiagonalization + implicit QL).
//
// All kernels report exact real-flop counts to internal/perf so the
// simulated cluster can reproduce the paper's sustained-performance figures.
// Matrices are stored row-major in a single []complex128 backing slice.
package linalg

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/perf"
)

// Matrix is a dense complex matrix stored in row-major order.
// The zero value is an empty (0×0) matrix.
type Matrix struct {
	Rows, Cols int
	// Data holds the entries; element (i,j) lives at Data[i*Cols+j].
	Data []complex128
	// slot is i+1 while the matrix is checked out of a Workspace as its
	// out[i], and 0 otherwise.
	slot int
}

// New returns a zero-initialized rows×cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("linalg: negative matrix dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]complex128, rows*cols)}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]complex128) *Matrix {
	r := len(rows)
	if r == 0 {
		return New(0, 0)
	}
	c := len(rows[0])
	m := New(r, c)
	for i, row := range rows {
		if len(row) != c {
			panic("linalg: ragged rows in FromRows")
		}
		copy(m.Data[i*c:(i+1)*c], row)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) complex128 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v complex128) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// CopyFrom overwrites m with the contents of src; dimensions must match.
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic("linalg: dimension mismatch in CopyFrom")
	}
	copy(m.Data, src.Data)
}

// Zero sets every entry of m to zero in place.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Add returns m + b as a new matrix.
func (m *Matrix) Add(b *Matrix) *Matrix {
	checkSameShape(m, b, "Add")
	out := New(m.Rows, m.Cols)
	for i := range m.Data {
		out.Data[i] = m.Data[i] + b.Data[i]
	}
	perf.AddFlops(int64(len(m.Data)) * perf.FlopsCAdd)
	return out
}

// Sub returns m − b as a new matrix.
func (m *Matrix) Sub(b *Matrix) *Matrix {
	checkSameShape(m, b, "Sub")
	out := New(m.Rows, m.Cols)
	for i := range m.Data {
		out.Data[i] = m.Data[i] - b.Data[i]
	}
	perf.AddFlops(int64(len(m.Data)) * perf.FlopsCAdd)
	return out
}

// AddInPlace sets m = m + b.
func (m *Matrix) AddInPlace(b *Matrix) {
	checkSameShape(m, b, "AddInPlace")
	for i := range m.Data {
		m.Data[i] += b.Data[i]
	}
	perf.AddFlops(int64(len(m.Data)) * perf.FlopsCAdd)
}

// Scale returns s·m as a new matrix.
func (m *Matrix) Scale(s complex128) *Matrix {
	out := New(m.Rows, m.Cols)
	for i := range m.Data {
		out.Data[i] = s * m.Data[i]
	}
	perf.AddFlops(int64(len(m.Data)) * perf.FlopsCMul)
	return out
}

// ScaleInPlace sets m = s·m.
func (m *Matrix) ScaleInPlace(s complex128) {
	for i := range m.Data {
		m.Data[i] *= s
	}
	perf.AddFlops(int64(len(m.Data)) * perf.FlopsCMul)
}

// ConjTranspose returns the Hermitian adjoint m† as a new matrix.
func (m *Matrix) ConjTranspose() *Matrix {
	out := New(m.Cols, m.Rows)
	ConjTransposeInto(out, m)
	return out
}

// Trace returns the sum of the diagonal entries of a square matrix.
func (m *Matrix) Trace() complex128 {
	if m.Rows != m.Cols {
		panic("linalg: Trace of non-square matrix")
	}
	var t complex128
	for i := 0; i < m.Rows; i++ {
		t += m.Data[i*m.Cols+i]
	}
	return t
}

// Diag returns the diagonal of a square matrix as a slice.
func (m *Matrix) Diag() []complex128 {
	if m.Rows != m.Cols {
		panic("linalg: Diag of non-square matrix")
	}
	d := make([]complex128, m.Rows)
	for i := range d {
		d[i] = m.Data[i*m.Cols+i]
	}
	return d
}

// Submatrix returns a copy of the block m[r0:r0+nr, c0:c0+nc].
func (m *Matrix) Submatrix(r0, c0, nr, nc int) *Matrix {
	if r0 < 0 || c0 < 0 || r0+nr > m.Rows || c0+nc > m.Cols {
		panic("linalg: Submatrix out of range")
	}
	out := New(nr, nc)
	for i := 0; i < nr; i++ {
		copy(out.Data[i*nc:(i+1)*nc], m.Data[(r0+i)*m.Cols+c0:(r0+i)*m.Cols+c0+nc])
	}
	return out
}

// SetSubmatrix writes block b into m starting at (r0, c0).
func (m *Matrix) SetSubmatrix(r0, c0 int, b *Matrix) {
	if r0 < 0 || c0 < 0 || r0+b.Rows > m.Rows || c0+b.Cols > m.Cols {
		panic("linalg: SetSubmatrix out of range")
	}
	for i := 0; i < b.Rows; i++ {
		copy(m.Data[(r0+i)*m.Cols+c0:(r0+i)*m.Cols+c0+b.Cols], b.Data[i*b.Cols:(i+1)*b.Cols])
	}
}

// IsHermitian reports whether m is Hermitian to within tol entrywise.
func (m *Matrix) IsHermitian(tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		for j := i; j < m.Cols; j++ {
			if !near(m.Data[i*m.Cols+j], cmplx.Conj(m.Data[j*m.Cols+i]), tol) {
				return false
			}
		}
	}
	return true
}

// near reports whether |a − b| ≤ tol, on |a − b|² so that no Hypot runs:
// Hermiticity is checked on every entry of a device Hamiltonian.
func near(a, b complex128, tol float64) bool {
	d := a - b
	return !(real(d)*real(d)+imag(d)*imag(d) > tol*tol)
}

// IsAdjoint reports whether l is the adjoint of u to within tol entrywise,
// without materializing either.
func (l *Matrix) IsAdjoint(u *Matrix, tol float64) bool {
	if l.Rows != u.Cols || l.Cols != u.Rows {
		return false
	}
	for i := 0; i < u.Rows; i++ {
		for j, v := range u.Data[i*u.Cols : (i+1)*u.Cols] {
			if !near(l.Data[j*l.Cols+i], cmplx.Conj(v), tol) {
				return false
			}
		}
	}
	return true
}

// MaxAbs returns the largest entrywise modulus of m. It propagates NaN: a
// matrix with a NaN element has no largest modulus, and reporting the
// largest of the rest would let a convergence test pass on garbage.
func (m *Matrix) MaxAbs() float64 {
	var mx float64
	for _, v := range m.Data {
		if a := cmplx.Abs(v); a > mx || a != a {
			mx = a
		}
	}
	return mx
}

// FrobeniusNorm returns ‖m‖_F.
func (m *Matrix) FrobeniusNorm() float64 {
	var s float64
	for _, v := range m.Data {
		s += real(v)*real(v) + imag(v)*imag(v)
	}
	return math.Sqrt(s)
}

// MulVec returns m·x for a vector x of length m.Cols.
func (m *Matrix) MulVec(x []complex128) []complex128 {
	if len(x) != m.Cols {
		panic("linalg: dimension mismatch in MulVec")
	}
	y := make([]complex128, m.Rows)
	for i := 0; i < m.Rows; i++ {
		var s complex128
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
	perf.AddFlops(int64(m.Rows) * int64(m.Cols) * perf.FlopsCMulAdd)
	return y
}

// Equal reports whether m and b agree entrywise to within tol.
func (m *Matrix) Equal(b *Matrix, tol float64) bool {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		return false
	}
	for i := range m.Data {
		if cmplx.Abs(m.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders a small matrix for debugging; large matrices are abbreviated.
func (m *Matrix) String() string {
	if m.Rows > 8 || m.Cols > 8 {
		return fmt.Sprintf("Matrix(%dx%d)", m.Rows, m.Cols)
	}
	s := ""
	for i := 0; i < m.Rows; i++ {
		s += "["
		for j := 0; j < m.Cols; j++ {
			v := m.At(i, j)
			s += fmt.Sprintf(" %.4g%+.4gi", real(v), imag(v))
		}
		s += " ]\n"
	}
	return s
}

func checkSameShape(a, b *Matrix, op string) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("linalg: dimension mismatch in %s: %dx%d vs %dx%d",
			op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}
