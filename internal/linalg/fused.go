package linalg

import (
	"math/cmplx"

	"repro/internal/perf"
)

// This file holds the flop-minimal fused kernels of the transport hot
// paths: O(n²) replacements for trace/diagonal observables that the naive
// formulas compute via full O(n³) products, and in-place elementwise
// helpers that kill scaled temporaries (Scale(-1) copies, materialized
// adjoints).

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

// TraceMul returns Tr[a·b] in O(n²) via Σ_ij a_ij·b_ji. a must be m×n and
// b n×m.
func TraceMul(a, b *Matrix) complex128 {
	if a.Cols != b.Rows || a.Rows != b.Cols {
		panic("linalg: dimension mismatch in TraceMul")
	}
	var s complex128
	for i := 0; i < a.Rows; i++ {
		aRow := a.Data[i*a.Cols : (i+1)*a.Cols]
		for j, v := range aRow {
			s += v * b.Data[j*b.Cols+i]
		}
	}
	perf.AddFlops(int64(len(a.Data)) * perf.FlopsCMulAdd)
	return s
}

// DiagMulConjInto writes diag(x·g·x†), real for a Hermitian g, into dst
// from xt = x† (m×n) and g (m×m), using one m×m·m×n product — as wide as x
// is tall — and a streaming pass of real parts: O(n·m²) instead of the
// O(n²·m) of materializing x·g·x†. dst has length n. This is the
// spectral-function assembly kernel: the contact-resolved density needs
// only [G·Γ·G†]_ii, and entry i is Re Σ_a x[i,a]·(g·x†)[a,i].
func DiagMulConjInto(dst []float64, xt, g *Matrix, ws *Workspace) {
	if g.Rows != xt.Rows || g.Cols != xt.Rows {
		panic("linalg: dimension mismatch in DiagMulConjInto")
	}
	if len(dst) != xt.Cols {
		panic("linalg: output length mismatch in DiagMulConjInto")
	}
	n := xt.Cols
	yt := ws.Get(xt.Rows, n)
	GemmInto(yt, 1, g, NoTrans, xt, NoTrans, 0)
	clear(dst)
	for a := 0; a < xt.Rows; a++ {
		x, y := xt.Data[a*n:(a+1)*n], yt.Data[a*n:(a+1)*n]
		for i, v := range y {
			dst[i] += real(v)*real(x[i]) + imag(v)*imag(x[i])
		}
	}
	ws.Put(yt)
	// Two products and two sums per term.
	perf.AddFlops(int64(len(xt.Data)) * 2 * perf.FlopsCAdd)
}

// DiagMulConj returns diag(x·g·x†) as a fresh slice, from x itself; see
// DiagMulConjInto.
func DiagMulConj(x, g *Matrix) []float64 {
	ws := GetWorkspace()
	defer ws.Release()
	xt := ws.Get(x.Cols, x.Rows)
	ConjTransposeInto(xt, x)
	dst := make([]float64, x.Rows)
	DiagMulConjInto(dst, xt, g, ws)
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

// AddScaled sets m = m + s·b without materializing the scaled copy.
// There is no short-circuit on s: 0·x is not a no-op in IEEE arithmetic.
func (m *Matrix) AddScaled(b *Matrix, s complex128) {
	checkSameShape(m, b, "AddScaled")
	axpyAddTo(m.Data, b.Data, s)
	perf.AddFlops(int64(len(m.Data)) * perf.FlopsCMulAdd)
}

// AddInto sets dst = a + b. dst may alias a or b (pure elementwise).
func AddInto(dst, a, b *Matrix) {
	checkSameShape(a, b, "AddInto")
	checkSameShape(dst, a, "AddInto")
	for i, v := range a.Data {
		dst.Data[i] = v + b.Data[i]
	}
	perf.AddFlops(int64(len(a.Data)) * perf.FlopsCAdd)
}

// SubInto sets dst = a − b. dst may alias a or b (pure elementwise).
func SubInto(dst, a, b *Matrix) {
	checkSameShape(a, b, "SubInto")
	checkSameShape(dst, a, "SubInto")
	subTo(dst.Data, a.Data, b.Data)
	perf.AddFlops(int64(len(a.Data)) * perf.FlopsCAdd)
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
// This is the resolvent assembly step (z − H) of the decimation and SCBA
// loops, fused so no identity or scaled copy is materialized.
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
