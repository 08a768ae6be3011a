package linalg

import (
	"math/cmplx"

	"repro/internal/perf"
)

// This file holds the flop-minimal fused kernels of the transport hot
// paths: O(n²) replacements for trace/diagonal observables that the naive
// formulas compute via full O(n³) products, and in-place elementwise
// helpers that kill scaled temporaries (Scale(-1) copies). Adjoints are
// materialized with ConjTransposeInto where a solver reuses them.

// TraceMulConj returns Tr[a·b†] in O(rows·cols) via
// Σ_ij a_ij·conj(b_ij), instead of forming the O(n³) product. a and b
// must have the same shape (a·b† is then square). This is the Caroli
// transmission kernel: T = Tr[(Γ_L·G·Γ_R)·G†].
func TraceMulConj(a, b *Matrix) complex128 {
	checkSameShape(a, b, "TraceMulConj")
	var s complex128
	for i, v := range a.Data {
		s += v * cmplx.Conj(b.Data[i])
	}
	perf.AddFlops(int64(len(a.Data)) * perf.FlopsCMulAdd)
	return s
}

// DiagMulConj returns diag(x·g·x†), real for a Hermitian g (m×m), of an
// n×m x as a fresh slice, using one m×m·m×n product with x† — as wide as x
// is tall — and a streaming pass of real parts: O(n·m²) instead of the
// O(n²·m) of materializing x·g·x†. Entry i is Re Σ_a x[i,a]·(g·x†)[a,i].
// This is the dense oracle's spectral diagonal [G·Γ·G†]_ii.
func DiagMulConj(x, g *Matrix) []float64 {
	if g.Rows != x.Cols || g.Cols != x.Cols {
		panic("linalg: dimension mismatch in DiagMulConj")
	}
	ws := GetWorkspace()
	defer ws.Release()
	m, n := x.Cols, x.Rows
	xt, yt := ws.Get(m, n), ws.Get(m, n)
	ConjTransposeInto(xt, x)
	GemmInto(yt, 1, g, NoTrans, xt, NoTrans, 0)
	dst := make([]float64, n)
	for a := 0; a < m; a++ {
		xa, ya := xt.Data[a*n:(a+1)*n], yt.Data[a*n:(a+1)*n]
		for i, v := range ya {
			dst[i] += real(v)*real(xa[i]) + imag(v)*imag(xa[i])
		}
	}
	// Two products and two sums per term.
	perf.AddFlops(int64(len(xt.Data)) * 2 * perf.FlopsCAdd)
	return dst
}

// ScaleRowsInto sets dst = diag(d)·src: row i of src scaled by d[i]. dst
// and src have the same shape, len(d) = src.Rows, and dst may alias src.
func ScaleRowsInto(dst *Matrix, d []complex128, src *Matrix) {
	checkSameShape(dst, src, "ScaleRowsInto")
	if len(d) != src.Rows {
		panic("linalg: scale length mismatch in ScaleRowsInto")
	}
	c := src.Cols
	for i, di := range d {
		row := dst.Data[i*c : (i+1)*c]
		copy(row, src.Data[i*c:(i+1)*c])
		scaleTo(row, di)
	}
	perf.AddFlops(int64(len(src.Data)) * perf.FlopsCMul)
}

// AddScaled sets m = m + s·b without materializing the scaled copy: the
// self-energy subtraction of the dense oracle's open-system assembly.
// There is no short-circuit on s: 0·x is not a no-op in IEEE arithmetic.
func (m *Matrix) AddScaled(b *Matrix, s complex128) {
	checkSameShape(m, b, "AddScaled")
	for i, v := range b.Data {
		m.Data[i] += s * v
	}
	perf.AddFlops(int64(len(m.Data)) * perf.FlopsCMulAdd)
}

// ConjTransposeInto writes m† into dst, which must be m.Cols×m.Rows and
// must not alias m.
func ConjTransposeInto(dst, m *Matrix) {
	if dst == m {
		panic("linalg: ConjTransposeInto output aliases its input")
	}
	if dst.Rows != m.Cols || dst.Cols != m.Rows {
		panic("linalg: dimension mismatch in ConjTransposeInto")
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, v := range row {
			dst.Data[j*dst.Cols+i] = cmplx.Conj(v)
		}
	}
}

// ShiftedNegInto writes dst = z·I − m for a square m. dst may alias m.
// This is the resolvent assembly step (z − H) of every open-system layer,
// fused so no identity or scaled copy is materialized.
func ShiftedNegInto(dst, m *Matrix, z complex128) {
	if m.Rows != m.Cols {
		panic("linalg: ShiftedNegInto requires a square matrix")
	}
	checkSameShape(dst, m, "ShiftedNegInto")
	n := m.Rows
	negTo(dst.Data, m.Data)
	for i := 0; i < n; i++ {
		dst.Data[i*n+i] += z
	}
	perf.AddFlops(int64(n) * int64(n) * perf.FlopsCAdd)
}
