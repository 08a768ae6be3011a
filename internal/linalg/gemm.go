package linalg

import "repro/internal/perf"

// gemmBlock is the cache-blocking tile edge used by the matrix-product
// kernels. 64 complex128 values per row segment keep the working set of a
// tile pair within L1/L2 on commodity cores.
const gemmBlock = 64

// Op selects how a GEMM operand enters the product.
type Op int

const (
	// NoTrans uses the operand as stored.
	NoTrans Op = iota
	// ConjTrans uses the Hermitian adjoint of the operand, which
	// GemmInto copies into workspace scratch for the one call. A solver
	// that reuses an adjoint materializes it once itself and passes
	// NoTrans.
	ConjTrans
)

// opDims returns the shape of op(m).
func opDims(m *Matrix, op Op) (rows, cols int) {
	if op == ConjTrans {
		return m.Cols, m.Rows
	}
	return m.Rows, m.Cols
}

// Mul returns the matrix product m·b.
func (m *Matrix) Mul(b *Matrix) *Matrix {
	out := New(m.Rows, b.Cols)
	GemmInto(out, 1, m, NoTrans, b, NoTrans, 0)
	return out
}

// MulInto sets dst = opA(a)·opB(b), overwriting dst.
func MulInto(dst *Matrix, a *Matrix, opA Op, b *Matrix, opB Op) {
	GemmInto(dst, 1, a, opA, b, opB, 0)
}

// GemmInto is the general fused product kernel:
//
//	dst = alpha·opA(a)·opB(b) + beta·dst
//
// There is one loop nest, NoTrans·NoTrans: a ConjTrans operand is first
// copied into workspace scratch with ConjTransposeInto (a transpose counts
// no flops), so opA(a)·opB(b) computes the bits of the same product on the
// materialized adjoints. dst must not alias a or b. Flop accounting and
// cache blocking live here so every product routine reports identically.
//
// The inner loop runs the fused AVX tile avxGemmTileNN where the CPU has
// it and the row segment is at least fusedMinWidth wide; the scalar loop
// next to the dispatch is the fallback and computes the same bits.
func GemmInto(dst *Matrix, alpha complex128, a *Matrix, opA Op, b *Matrix, opB Op, beta complex128) {
	if dst == a || dst == b {
		panic("linalg: GemmInto output aliases an operand")
	}
	ra, ca := opDims(a, opA)
	rb, cb := opDims(b, opB)
	if ca != rb {
		panic("linalg: inner dimension mismatch in GemmInto")
	}
	if dst.Rows != ra || dst.Cols != cb {
		panic("linalg: output dimension mismatch in GemmInto")
	}
	var ws *Workspace
	if opA == ConjTrans || opB == ConjTrans {
		ws = GetWorkspace()
		a, b = asStored(a, opA, ws), asStored(b, opB, ws)
	}
	if beta == 0 {
		dst.Zero()
	} else if beta != 1 {
		scaleTo(dst.Data, beta)
		perf.AddFlops(int64(len(dst.Data)) * perf.FlopsCMul)
	}
	n, k, p := ra, ca, cb
	// i-k-j loop order with row-slice inner loops: the innermost loop
	// streams contiguously through b and dst. Blocked over k and j for
	// cache reuse on large operands; unrolled two-deep over k so each
	// dst row segment is read and written half as often. The zero skips
	// test the unscaled multipliers, before alpha — 0·x is not a no-op
	// in IEEE arithmetic — and avxGemmTileNN keeps them there. The
	// vector/scalar choice is hoisted out of the inner loops: the
	// row-segment width is fixed per column block.
	for jj := 0; jj < p; jj += gemmBlock {
		jEnd := min(jj+gemmBlock, p)
		vec := hasAVX && n > 0 && jEnd-jj >= fusedMinWidth
		for kk := 0; kk < k; kk += gemmBlock {
			kEnd := min(kk+gemmBlock, k)
			if vec {
				// One fused call runs the whole tile: every row's
				// l-loop, pair skips, alpha scaling, updates, tail.
				avxGemmTileNN(&dst.Data[jj], &a.Data[kk], &b.Data[kk*p+jj], n, k, kEnd-kk, p, jEnd-jj, alpha)
				continue
			}
			for i := 0; i < n; i++ {
				dstRow := dst.Data[i*p+jj : i*p+jEnd]
				aRow := a.Data[i*k : (i+1)*k]
				l := kk
				for ; l+1 < kEnd; l += 2 {
					av0 := aRow[l]
					av1 := aRow[l+1]
					if av0 == 0 && av1 == 0 {
						continue
					}
					av0 *= alpha
					av1 *= alpha
					b0 := b.Data[l*p+jj : l*p+jEnd]
					b1 := b.Data[(l+1)*p+jj : (l+1)*p+jEnd]
					b1 = b1[:len(dstRow)]
					b0 = b0[:len(dstRow)]
					for j := range dstRow {
						dstRow[j] += av0*b0[j] + av1*b1[j]
					}
				}
				for ; l < kEnd; l++ {
					av := aRow[l]
					if av == 0 {
						continue
					}
					av *= alpha
					bRow := b.Data[l*p+jj : l*p+jEnd]
					bRow = bRow[:len(dstRow)]
					for j := range dstRow {
						dstRow[j] += av * bRow[j]
					}
				}
			}
		}
	}
	if ws != nil {
		ws.Release()
	}
	perf.AddFlops(perf.GemmFlops(n, k, p))
}

// asStored returns op(m) as a stored matrix: m itself for NoTrans, m† in ws
// scratch for ConjTrans.
func asStored(m *Matrix, op Op, ws *Workspace) *Matrix {
	if op == NoTrans {
		return m
	}
	t := ws.Get(m.Cols, m.Rows)
	ConjTransposeInto(t, m)
	return t
}

// Mul3Into sets dst = opA(a)·opB(b)·opC(c), associating to minimize work.
// Both associations run through GemmInto with a single workspace
// temporary, so the flops of the chosen order are reported through one
// code path. dst must not alias any operand.
func Mul3Into(dst *Matrix, a *Matrix, opA Op, b *Matrix, opB Op, c *Matrix, opC Op, ws *Workspace) {
	ra, ca := opDims(a, opA)
	rb, cb := opDims(b, opB)
	rc, cc := opDims(c, opC)
	if ca != rb || cb != rc {
		panic("linalg: inner dimension mismatch in Mul3Into")
	}
	if dst.Rows != ra || dst.Cols != cc {
		panic("linalg: output dimension mismatch in Mul3Into")
	}
	// Cost of (a·b)·c versus a·(b·c).
	left := int64(ra)*int64(ca)*int64(cb) + int64(ra)*int64(cb)*int64(cc)
	right := int64(rb)*int64(cb)*int64(cc) + int64(ra)*int64(ca)*int64(cc)
	if left <= right {
		tmp := ws.Get(ra, cb)
		GemmInto(tmp, 1, a, opA, b, opB, 0)
		GemmInto(dst, 1, tmp, NoTrans, c, opC, 0)
		ws.Put(tmp)
	} else {
		tmp := ws.Get(rb, cc)
		GemmInto(tmp, 1, b, opB, c, opC, 0)
		GemmInto(dst, 1, a, opA, tmp, NoTrans, 0)
		ws.Put(tmp)
	}
}
