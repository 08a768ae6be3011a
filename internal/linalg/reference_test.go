package linalg

import "math/cmplx"

// This file is the test-only scalar oracle of the kernel set: the plain
// Go loops the production kernels (and their AVX microkernels) are built
// from, operation for operation, with no dispatch and no flop accounting.
// bitwise_test.go holds GemmInto, factorInPlace, luSolveInPlace and the
// elementwise kernels to these loops bit for bit, with hasAVX on and off.

// refAdjoint returns op(m) as a stored matrix, transposing and conjugating
// with a loop of its own: GemmInto materializes adjoints with
// ConjTransposeInto, and a broken ConjTransposeInto must not hide here.
func refAdjoint(m *Matrix, op Op) *Matrix {
	if op == NoTrans {
		return m
	}
	t := &Matrix{Rows: m.Cols, Cols: m.Rows, Data: make([]complex128, len(m.Data))}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Data[j*m.Rows+i] = cmplx.Conj(m.Data[i*m.Cols+j])
		}
	}
	return t
}

// refGemmInto computes dst = alpha·opA(a)·opB(b) + beta·dst on the stored
// adjoints.
func refGemmInto(dst *Matrix, alpha complex128, a *Matrix, opA Op, b *Matrix, opB Op, beta complex128) {
	a, b = refAdjoint(a, opA), refAdjoint(b, opB)
	n, k, p := a.Rows, a.Cols, b.Cols
	if beta == 0 {
		dst.Zero()
	} else if beta != 1 {
		for i := range dst.Data {
			dst.Data[i] *= beta
		}
	}
	for jj := 0; jj < p; jj += gemmBlock {
		jEnd := min(jj+gemmBlock, p)
		for kk := 0; kk < k; kk += gemmBlock {
			kEnd := min(kk+gemmBlock, k)
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
					for j := range dstRow {
						dstRow[j] += av * bRow[j]
					}
				}
			}
		}
	}
}

// refMul3Into is Mul3Into's association rule over refGemmInto.
func refMul3Into(dst *Matrix, a *Matrix, opA Op, b *Matrix, opB Op, c *Matrix, opC Op) {
	ra, ca := opDims(a, opA)
	rb, cb := opDims(b, opB)
	_, cc := opDims(c, opC)
	left := int64(ra)*int64(ca)*int64(cb) + int64(ra)*int64(cb)*int64(cc)
	right := int64(rb)*int64(cb)*int64(cc) + int64(ra)*int64(ca)*int64(cc)
	if left <= right {
		tmp := New(ra, cb)
		refGemmInto(tmp, 1, a, opA, b, opB, 0)
		refGemmInto(dst, 1, tmp, NoTrans, c, opC, 0)
	} else {
		tmp := New(rb, cc)
		refGemmInto(tmp, 1, b, opB, c, opC, 0)
		refGemmInto(dst, 1, a, opA, tmp, NoTrans, 0)
	}
}

// refPivotScan is partial pivoting by cmplx.Abs: the row, at or below k,
// of column k's largest modulus (the first on a tie), and that modulus.
// pivotSearch must pick the same row.
func refPivotScan(lu []complex128, n, k int) (int, float64) {
	p, maxAbs := k, cmplx.Abs(lu[k*n+k])
	for i := k + 1; i < n; i++ {
		if a := cmplx.Abs(lu[i*n+k]); a > maxAbs {
			p, maxAbs = i, a
		}
	}
	return p, maxAbs
}

// refFactorInPlace is the partial-pivoting LU loop, leaving the reciprocal
// pivots 1/u_kk on the diagonal.
func refFactorInPlace(m *Matrix, piv []int) error {
	n := m.Rows
	lu := m.Data
	for k := 0; k < n; k++ {
		p, maxAbs := refPivotScan(lu, n, k)
		piv[k] = p
		if maxAbs == 0 {
			return ErrSingular
		}
		if p != k {
			rowK := lu[k*n : (k+1)*n]
			rowP := lu[p*n : (p+1)*n]
			for j := range rowK {
				rowK[j], rowP[j] = rowP[j], rowK[j]
			}
		}
		pivInv := 1 / lu[k*n+k]
		lu[k*n+k] = pivInv
		for i := k + 1; i < n; i++ {
			m := lu[i*n+k] * pivInv
			lu[i*n+k] = m
			if m == 0 {
				continue
			}
			rowI := lu[i*n+k+1 : (i+1)*n]
			rowK := lu[k*n+k+1 : (k+1)*n]
			for j := range rowK {
				rowI[j] -= m * rowK[j]
			}
		}
	}
	return nil
}

// refSubstRow applies rowI[j] -= Σ_k ms[k]·rows[k][j], k paired two-deep
// with the pair skipped only when both multipliers are zero.
func refSubstRow(rowI []complex128, ms []complex128, rows []complex128, nrhs int) {
	k := 0
	for ; k+1 < len(ms); k += 2 {
		m0, m1 := ms[k], ms[k+1]
		if m0 == 0 && m1 == 0 {
			continue
		}
		r0 := rows[k*nrhs : (k+1)*nrhs]
		r1 := rows[(k+1)*nrhs : (k+2)*nrhs]
		for j := range rowI {
			rowI[j] -= m0*r0[j] + m1*r1[j]
		}
	}
	for ; k < len(ms); k++ {
		m := ms[k]
		if m == 0 {
			continue
		}
		rowK := rows[k*nrhs : (k+1)*nrhs]
		for j := range rowI {
			rowI[j] -= m * rowK[j]
		}
	}
}

// refLuSolveInPlace applies P, L⁻¹, then U⁻¹ of a packed factorization,
// scaling by the stored reciprocal pivots; U⁻¹'s sweep runs on rows
// floor…n−1 only.
func refLuSolveInPlace(f *Matrix, piv []int, b *Matrix, floor int) {
	n := f.Rows
	nrhs := b.Cols
	lu := f.Data
	for k := 0; k < n; k++ {
		if p := piv[k]; p != k {
			rowK := b.Data[k*nrhs : (k+1)*nrhs]
			rowP := b.Data[p*nrhs : (p+1)*nrhs]
			for j := range rowK {
				rowK[j], rowP[j] = rowP[j], rowK[j]
			}
		}
	}
	for i := 1; i < n; i++ {
		refSubstRow(b.Data[i*nrhs:(i+1)*nrhs], lu[i*n:i*n+i], b.Data, nrhs)
	}
	for i := n - 1; i >= floor; i-- {
		rowI := b.Data[i*nrhs : (i+1)*nrhs]
		refSubstRow(rowI, lu[i*n+i+1:(i+1)*n], b.Data[(i+1)*nrhs:], nrhs)
		dInv := lu[i*n+i]
		for j := range rowI {
			rowI[j] *= dInv
		}
	}
}

// refInverseInto is factor-then-solve-against-identity.
func refInverseInto(dst, a *Matrix) error {
	n := a.Rows
	lu := a.Clone()
	piv := make([]int, n)
	if err := refFactorInPlace(lu, piv); err != nil {
		return err
	}
	dst.Zero()
	for i := 0; i < n; i++ {
		dst.Data[i*n+i] = 1
	}
	refLuSolveInPlace(lu, piv, dst, 0)
	return nil
}

// refAddScaled computes m += s·b.
func refAddScaled(m, b *Matrix, s complex128) {
	for i, v := range b.Data {
		m.Data[i] += s * v
	}
}

// refShiftedNegInto computes dst = z·I − m.
func refShiftedNegInto(dst, m *Matrix, z complex128) {
	n := m.Rows
	for i := 0; i < n; i++ {
		dstRow := dst.Data[i*n : (i+1)*n]
		for j, v := range m.Data[i*n : (i+1)*n] {
			dstRow[j] = -v
		}
		dstRow[i] += z
	}
}
