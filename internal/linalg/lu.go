package linalg

import (
	"errors"
	"math"
	"math/cmplx"

	"repro/internal/perf"
)

// ErrSingular is returned when a factorization encounters an exactly zero
// pivot, i.e. the matrix is singular to working precision.
var ErrSingular = errors.New("linalg: matrix is singular")

// LU holds an LU factorization with partial (row) pivoting: P·A = L·U.
// L is unit lower triangular and U upper triangular, packed together in lu:
// below the diagonal the multipliers of L, above it U, and on it the
// reciprocal pivots 1/u_kk — the factor computes each for its column update
// and stores it, so every solve multiplies by it instead of dividing.
type LU struct {
	lu  *Matrix
	piv []int // piv[k] is the row swapped with row k at step k
}

// FactorInPlace computes the LU factorization of the square matrix a in
// caller-owned storage: a becomes the packed factors (it is destroyed) and
// piv, of length a.Rows, receives the row swaps. Nothing is allocated, so a
// per-energy solve can keep its factors in Workspace blocks and its pivots
// in Workspace.GetInts scratch; the returned LU is valid for as long as
// both are.
func FactorInPlace(a *Matrix, piv []int) (LU, error) {
	if a.Rows != a.Cols {
		return LU{}, errors.New("linalg: FactorInPlace requires a square matrix")
	}
	if len(piv) != a.Rows {
		return LU{}, errors.New("linalg: FactorInPlace pivot slice length does not match the matrix order")
	}
	if err := factorInPlace(a, piv); err != nil {
		return LU{}, err
	}
	return LU{lu: a, piv: piv}, nil
}

// factorInPlace runs the partial-pivoting LU loop on lu's storage,
// recording row swaps in piv (len n) and leaving 1/u_kk on the diagonal.
// This is the single factorization code path shared by FactorInPlace and
// InverseInto, so flop accounting lives in one place. Trailing
// blocks at least fusedMinWidth wide eliminate through avxFactorColUpdate;
// the scalar loop is the fallback and computes the same bits.
func factorInPlace(m *Matrix, piv []int) error {
	n := m.Rows
	lu := m.Data
	for k := 0; k < n; k++ {
		p := pivotSearch(lu, n, k)
		piv[k] = p
		if lu[p*n+k] == 0 { // the largest modulus is 0; a NaN pivot is not
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
		lu[k*n+k] = pivInv // no later step reads u_kk itself
		if rl := n - k - 1; hasAVX && rl >= fusedMinWidth {
			// One fused call scales the whole column by pivInv and
			// applies every surviving row update (zero skips included).
			avxFactorColUpdate(&lu[(k+1)*n+k], &lu[k*n+k+1], rl, n, pivInv)
			continue
		}
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
	perf.AddFlops(perf.LUFlops(n))
	return nil
}

// pivotSearch ranks on re²+im² while its best so far is 0 or has re²+im²
// in [sqLo, sqHi]: there the sum is within a few ulps of |best|², as Hypot
// — what cmplx.Abs computes — is of |best|. An entry's re²+im² is as
// accurate wherever it falls outside the best's band of relative width
// sqBand (an underflowed sum is off by at most 2⁻¹⁰⁷³, an overflowed one
// is +Inf only past the float64 range), so outside the band the two
// rankings agree.
const (
	sqLo, sqHi = 1e-280, 1e280
	sqBand     = 1e-12
)

// pivotSearch returns the partial-pivoting row of column k of the n×n
// row-major lu: the row, at or below k, of the largest-modulus entry, the
// first such row on a tie (pivotScan).
func pivotSearch(lu []complex128, n, k int) int {
	return k + pivotScan(lu[k*n+k:], n, n-k)
}

// pivotScan returns the index i < count of the largest-modulus entry
// x[i·stride], the first such index on a tie. It picks exactly the entry a
// scan comparing cmplx.Abs picks, but ranks on |z|² and calls Hypot only
// where |z|² cannot decide: a NaN entry, a best whose modulus is beyond
// 1e±140 (Inf and subnormals included), and a near-tie between entries that
// are not the same pair {|re|, |im|}. Equal pairs have bitwise-equal Hypots,
// so the first index keeps that tie.
func pivotScan(x []complex128, stride, count int) int {
	p, best := 0, x[0]
	bs := real(best)*real(best) + imag(best)*imag(best)
	fast := best == 0 || bs >= sqLo && bs <= sqHi
	lo, hi := bs*(1-sqBand), bs*(1+sqBand)
	for i := 1; i < count; i++ {
		if fast {
			if i = firstNotBelow(x, stride, i, count, lo); i == count {
				break
			}
		}
		z := x[i*stride]
		s := real(z)*real(z) + imag(z)*imag(z)
		if fast && s <= hi && samePair(z, best) {
			continue // the same modulus (zeros included): the earlier index keeps it
		}
		if fast && s > hi || cmplx.Abs(z) > cmplx.Abs(best) {
			p, best = i, z
			fast = s >= sqLo && s <= sqHi
			lo, hi = s*(1-sqBand), s*(1+sqBand)
		}
	}
	return p
}

// firstNotBelow returns the first index i ≥ from whose entry x[i·stride]
// has re²+im² not below lo (a NaN is not), or count: pivotScan's common
// case, an entry that loses outright, in a loop without calls, so nothing
// in it spills.
func firstNotBelow(x []complex128, stride, from, count int, lo float64) int {
	for i := from; i < count; i++ {
		z := x[i*stride]
		if !(real(z)*real(z)+imag(z)*imag(z) < lo) {
			return i
		}
	}
	return count
}

// samePair reports whether a and b have the same pair {|re|, |im|}, and
// so the same Hypot to the bit: it takes both moduli and orders them.
func samePair(a, b complex128) bool {
	ar, ai := math.Abs(real(a)), math.Abs(imag(a))
	br, bi := math.Abs(real(b)), math.Abs(imag(b))
	return ar == br && ai == bi || ar == bi && ai == br
}

// SolveInPlace overwrites b with the solution of A·X = B.
func (f *LU) SolveInPlace(b *Matrix) {
	luSolveInPlace(f.lu, f.piv, b, 0)
}

// SolveFromRow overwrites rows r0…n−1 of b with those of the solution of
// A·X = B, 0 ≤ r0 ≤ n, bit for bit what SolveInPlace leaves there: the
// forward sweep runs whole and the back sweep, whose row i reads only rows
// i+1…n−1, stops after row r0. Rows 0…r0−1 keep the forward sweep's values,
// so a caller passes the first row it reads.
func (f *LU) SolveFromRow(b *Matrix, r0 int) {
	luSolveInPlace(f.lu, f.piv, b, r0)
}

// luSolveInPlace applies P, L⁻¹, then U⁻¹ of a packed factorization to a
// block right-hand side, U⁻¹ on rows r0…n−1 only. Right-hand sides at
// least fusedMinWidth wide substitute through avxLuSolve; the scalar loops
// below are the fallback and compute the same bits. Every column of b goes
// through the same operations whatever the other columns hold — the zero
// skips test only the multipliers of L and U — so a solve against some
// columns of the identity returns those columns of the inverse, bit for bit.
func luSolveInPlace(f *Matrix, piv []int, b *Matrix, r0 int) {
	n := f.Rows
	if b.Rows != n {
		panic("linalg: RHS row count mismatch in Solve")
	}
	if r0 < 0 || r0 > n {
		panic("linalg: solve floor outside [0, n]")
	}
	nrhs := b.Cols
	lu := f.Data
	// Apply the row permutation to b.
	for k := 0; k < n; k++ {
		if p := piv[k]; p != k {
			rowK := b.Data[k*nrhs : (k+1)*nrhs]
			rowP := b.Data[p*nrhs : (p+1)*nrhs]
			for j := range rowK {
				rowK[j], rowP[j] = rowP[j], rowK[j]
			}
		}
	}
	if hasAVX && nrhs >= fusedMinWidth && n > 0 {
		// Both sweeps — every row's update, k paired two-deep with the
		// zero skips, and the back sweep's reciprocal-pivot scaling — are
		// one assembly call.
		avxLuSolve(&b.Data[0], &lu[0], n, nrhs, r0)
		perf.AddFlops(perf.SolveFromRowFlops(n, r0, nrhs))
		return
	}
	// Forward substitution with unit lower triangular L, i-outer so the
	// multipliers of row i are read contiguously, unrolled two-deep over k
	// so each target row is updated half as often.
	for i := 1; i < n; i++ {
		luRow := lu[i*n : i*n+i]
		rowI := b.Data[i*nrhs : (i+1)*nrhs]
		k := 0
		for ; k+1 < i; k += 2 {
			m0 := luRow[k]
			m1 := luRow[k+1]
			if m0 == 0 && m1 == 0 {
				continue
			}
			r0 := b.Data[k*nrhs : (k+1)*nrhs]
			r1 := b.Data[(k+1)*nrhs : (k+2)*nrhs]
			r0 = r0[:len(rowI)]
			r1 = r1[:len(rowI)]
			for j := range rowI {
				rowI[j] -= m0*r0[j] + m1*r1[j]
			}
		}
		for ; k < i; k++ {
			m := luRow[k]
			if m == 0 {
				continue
			}
			rowK := b.Data[k*nrhs : (k+1)*nrhs]
			rowK = rowK[:len(rowI)]
			for j := range rowI {
				rowI[j] -= m * rowK[j]
			}
		}
	}
	// Back substitution with U, same access pattern from the bottom up.
	for i := n - 1; i >= r0; i-- {
		luRow := lu[i*n : (i+1)*n]
		rowI := b.Data[i*nrhs : (i+1)*nrhs]
		k := i + 1
		for ; k+1 < n; k += 2 {
			m0 := luRow[k]
			m1 := luRow[k+1]
			if m0 == 0 && m1 == 0 {
				continue
			}
			r0 := b.Data[k*nrhs : (k+1)*nrhs]
			r1 := b.Data[(k+1)*nrhs : (k+2)*nrhs]
			r0 = r0[:len(rowI)]
			r1 = r1[:len(rowI)]
			for j := range rowI {
				rowI[j] -= m0*r0[j] + m1*r1[j]
			}
		}
		for ; k < n; k++ {
			m := luRow[k]
			if m == 0 {
				continue
			}
			rowK := b.Data[k*nrhs : (k+1)*nrhs]
			rowK = rowK[:len(rowI)]
			for j := range rowI {
				rowI[j] -= m * rowK[j]
			}
		}
		dInv := luRow[i]
		for j := range rowI {
			rowI[j] *= dInv
		}
	}
	perf.AddFlops(perf.SolveFromRowFlops(n, r0, nrhs))
}

// InverseInto writes a⁻¹ into dst, factoring into workspace scratch so
// the whole inversion allocates nothing. a is not modified; dst must be
// square like a and must not alias it.
func InverseInto(dst, a *Matrix, ws *Workspace) error {
	if a.Rows != a.Cols {
		return errors.New("linalg: InverseInto requires a square matrix")
	}
	if dst == a {
		return errors.New("linalg: InverseInto output aliases its input")
	}
	if dst.Rows != a.Rows || dst.Cols != a.Cols {
		return errors.New("linalg: output dimension mismatch in InverseInto")
	}
	n := a.Rows
	lu := ws.Get(n, n)
	defer ws.Put(lu)
	lu.CopyFrom(a)
	piv := ws.GetInts(n)
	defer ws.PutInts(piv)
	if err := factorInPlace(lu, piv); err != nil {
		return err
	}
	dst.Zero()
	for i := 0; i < n; i++ {
		dst.Data[i*n+i] = 1
	}
	luSolveInPlace(lu, piv, dst, 0)
	return nil
}
