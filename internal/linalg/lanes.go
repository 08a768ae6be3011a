package linalg

// Lane kernels: one complex kernel run for Lanes independent operand sets
// at once, one float64 lane of a ymm register per set. A LaneMatrix keeps
// the real parts of one element's Lanes values in one vector and the
// imaginary parts in the next, so a complex product is the scalar
// reference's tree — ar·br − ai·bi, ar·bi + ai·br, no fused multiply-add —
// in every lane, and no lane ever moves across the register. Each kernel
// leaves in lane l the bits its solo counterpart (GemmInto, factorInPlace,
// luSolveInPlace) leaves on lane l's operands:
//
//   - pivot search, row swaps and the reciprocal pivot 1/u_kk run per lane
//     in Go, as the solo factor runs them;
//   - wherever the solo loop skips an update (a zero multiplier, a zero
//     pair, a zero unscaled GEMM pair), that lane keeps its old value
//     through a blend — it never adds a computed 0·x, which is not a no-op
//     in IEEE arithmetic.
//
// The lane kernels count no flop: their caller counts what the solo runs
// of each lane would have (the self-energy lanes of internal/negf count
// at take). Without AVX (purego, or a CPU without it) the scalar loops
// below run the same trees lane by lane.

// Lanes is the width of the lane kernels: float64 lanes of a ymm register.
const Lanes = 4

// laneStride is the float64s one element of a LaneMatrix occupies.
const laneStride = 2 * Lanes

// LaneKernels reports whether the lane kernels run on AVX. Elsewhere they
// run their scalar loops, which are slower than Lanes solo calls.
func LaneKernels() bool { return hasAVX }

// LaneMask is a set of lanes, bit l for lane l.
type LaneMask uint8

// Has reports whether lane l is in the set.
func (m LaneMask) Has(l int) bool { return m&(1<<l) != 0 }

// LaneMatrix holds Lanes complex matrices of one shape, interleaved by
// element: element (i, j) of lane l has its real part at
// Data[8·(i·Cols+j)+l] and its imaginary part at Data[8·(i·Cols+j)+4+l].
type LaneMatrix struct {
	Rows, Cols int
	Data       []float64
}

// NewLaneMatrix returns a zero rows×cols lane matrix.
func NewLaneMatrix(rows, cols int) *LaneMatrix {
	return &LaneMatrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols*laneStride)}
}

// At returns element (i, j) of lane l.
func (m *LaneMatrix) At(l, i, j int) complex128 {
	o := (i*m.Cols+j)*laneStride + l
	return complex(m.Data[o], m.Data[o+Lanes])
}

// Set sets element (i, j) of lane l to v.
func (m *LaneMatrix) Set(l, i, j int, v complex128) {
	o := (i*m.Cols+j)*laneStride + l
	m.Data[o], m.Data[o+Lanes] = real(v), imag(v)
}

// LaneInto copies lane l into dst, which has m's shape.
func (m *LaneMatrix) LaneInto(dst *Matrix, l int) {
	checkLaneShape(m, dst.Rows, dst.Cols, "LaneInto")
	for e := range dst.Data {
		o := e*laneStride + l
		dst.Data[e] = complex(m.Data[o], m.Data[o+Lanes])
	}
}

// Broadcast copies src, which has m's shape, into every lane.
func (m *LaneMatrix) Broadcast(src *Matrix) {
	checkLaneShape(m, src.Rows, src.Cols, "Broadcast")
	for e, v := range src.Data {
		re, im := m.Data[e*laneStride:e*laneStride+Lanes], m.Data[e*laneStride+Lanes:(e+1)*laneStride]
		for l := range re {
			re[l], im[l] = real(v), imag(v)
		}
	}
}

// CopyFrom copies src, which has m's shape, into m.
func (m *LaneMatrix) CopyFrom(src *LaneMatrix) {
	checkLaneShape(m, src.Rows, src.Cols, "CopyFrom")
	copy(m.Data, src.Data)
}

// Zero sets every element of every lane to +0.
func (m *LaneMatrix) Zero() { clear(m.Data) }

func checkLaneShape(m *LaneMatrix, rows, cols int, op string) {
	if m.Rows != rows || m.Cols != cols {
		panic("linalg: dimension mismatch in LaneMatrix." + op)
	}
}

// LaneGemmInto sets dst = alpha·a·b + beta·dst in every lane, beta 0 or 1:
// lane l holds what GemmInto(dst_l, alpha, a_l, NoTrans, b_l, NoTrans,
// beta) leaves, bit for bit. It counts no flop. dst must not alias a or b.
func LaneGemmInto(dst *LaneMatrix, alpha complex128, a, b *LaneMatrix, beta complex128) {
	if dst == a || dst == b {
		panic("linalg: LaneGemmInto output aliases an operand")
	}
	if a.Cols != b.Rows {
		panic("linalg: inner dimension mismatch in LaneGemmInto")
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic("linalg: output dimension mismatch in LaneGemmInto")
	}
	switch beta {
	case 0:
		dst.Zero()
	case 1:
	default:
		panic("linalg: LaneGemmInto takes beta 0 or 1")
	}
	n, k, p := a.Rows, a.Cols, b.Cols
	if n == 0 {
		return
	}
	// GemmInto's blocking: the k blocks are even-sized, so pairing l
	// two-deep from each block start pairs it as one pass would.
	for jj := 0; jj < p; jj += gemmBlock {
		jEnd := min(jj+gemmBlock, p)
		for kk := 0; kk < k; kk += gemmBlock {
			kEnd := min(kk+gemmBlock, k)
			d, av, bv := dst.Data[jj*laneStride:], a.Data[kk*laneStride:], b.Data[(kk*p+jj)*laneStride:]
			if hasAVX {
				avxLaneGemmTile(&d[0], &av[0], &bv[0], n, k, kEnd-kk, p, jEnd-jj, alpha)
				continue
			}
			laneGemmTile(d, av, bv, n, k, kEnd-kk, p, jEnd-jj, alpha)
		}
	}
}

// laneGemmTile is avxLaneGemmTile's scalar loop: for each row i < rows,
// dst[i·p : i·p+w] += Σ_{l<kLen} (alpha·a[i·lda+l])·b[l·p : l·p+w] in
// every lane, l paired two-deep, a lane skipping a pair whose unscaled
// multipliers are both zero.
func laneGemmTile(dst, a, b []float64, rows, lda, kLen, p, w int, alpha complex128) {
	for i := 0; i < rows; i++ {
		d, ar := dst[i*p*laneStride:], a[i*lda*laneStride:]
		for ln := 0; ln < Lanes; ln++ {
			l := 0
			for ; l+1 < kLen; l += 2 {
				av0, av1 := laneAt(ar, l, ln), laneAt(ar, l+1, ln)
				if av0 == 0 && av1 == 0 {
					continue
				}
				av0 *= alpha
				av1 *= alpha
				b0, b1 := b[l*p*laneStride:], b[(l+1)*p*laneStride:]
				for j := 0; j < w; j++ {
					laneSet(d, j, ln, laneAt(d, j, ln)+(av0*laneAt(b0, j, ln)+av1*laneAt(b1, j, ln)))
				}
			}
			if l < kLen {
				av := laneAt(ar, l, ln)
				if av == 0 {
					continue
				}
				av *= alpha
				b0 := b[l*p*laneStride:]
				for j := 0; j < w; j++ {
					laneSet(d, j, ln, laneAt(d, j, ln)+av*laneAt(b0, j, ln))
				}
			}
		}
	}
}

func laneAt(d []float64, e, l int) complex128 {
	o := e*laneStride + l
	return complex(d[o], d[o+Lanes])
}

func laneSet(d []float64, e, l int, v complex128) {
	o := e*laneStride + l
	d[o], d[o+Lanes] = real(v), imag(v)
}

// LaneLU is the scratch LaneInverseInto factors in: the packed lanes, each
// lane's row swaps, one lane's column for the pivot search and one lane's
// row permutation. The zero value is ready; it grows to the largest order
// it is asked for.
type LaneLU struct {
	lu   LaneMatrix
	piv  []int // lane l's swaps at piv[l·n : (l+1)·n]
	col  []complex128
	perm []int
}

func (f *LaneLU) reserve(n int) {
	if cap(f.lu.Data) < n*n*laneStride {
		f.lu.Data = make([]float64, n*n*laneStride)
	}
	if cap(f.piv) < Lanes*n {
		f.piv, f.col, f.perm = make([]int, Lanes*n), make([]complex128, n), make([]int, n)
	}
	f.lu = LaneMatrix{Rows: n, Cols: n, Data: f.lu.Data[:n*n*laneStride]}
	f.piv, f.col, f.perm = f.piv[:Lanes*n], f.col[:n], f.perm[:n]
}

// LaneInverseInto writes a⁻¹ into dst in every lane of live: lane l holds
// what InverseInto(dst_l, a_l, ws) leaves. It returns the lanes of live
// whose factorization met a zero pivot — InverseInto's ErrSingular — and
// leaves garbage in them and in every lane outside live. It counts no
// flop; a is not modified, and dst must be a's shape and not alias it.
func LaneInverseInto(dst, a *LaneMatrix, live LaneMask, f *LaneLU) (singular LaneMask) {
	if a.Rows != a.Cols || dst.Rows != a.Rows || dst.Cols != a.Cols {
		panic("linalg: dimension mismatch in LaneInverseInto")
	}
	if dst == a {
		panic("linalg: LaneInverseInto output aliases its input")
	}
	n := a.Rows
	f.reserve(n)
	f.lu.CopyFrom(a)
	singular = laneFactorInPlace(&f.lu, f.piv, f.col, live)
	// The solve's row swaps move the identity's 1s and 0s: set the
	// permuted identity directly.
	dst.Zero()
	for l := 0; l < Lanes; l++ {
		at := f.perm
		for i := range at {
			at[i] = i
		}
		if (live &^ singular).Has(l) {
			for k, p := range f.piv[l*n : (l+1)*n] {
				at[k], at[p] = at[p], at[k]
			}
		}
		for i, j := range at {
			dst.Data[(i*n+j)*laneStride+l] = 1
		}
	}
	if n > 0 {
		laneSweeps(&f.lu, dst)
	}
	return singular
}

// laneFactorInPlace is factorInPlace in every lane of live: per lane the
// pivot search, the row swap, ErrSingular and 1/u_kk, then one column
// update for all lanes. A lane that meets a zero pivot stops there, as the
// solo factor returns there; it and every lane outside live take a zero
// reciprocal pivot, so their updates skip and their storage stays tame.
// piv holds lane l's swaps at piv[l·n : (l+1)·n]; col is n long.
func laneFactorInPlace(m *LaneMatrix, piv []int, col []complex128, live LaneMask) (singular LaneMask) {
	n, d := m.Rows, m.Data
	var pivInv [laneStride]float64 // real parts, then imaginary parts
	for k := 0; k < n; k++ {
		fast := lanePivots(d, n, k)
		for ln, p := range fast {
			pivInv[ln], pivInv[ln+Lanes] = 0, 0
			piv[ln*n+k] = k
			if !live.Has(ln) {
				continue
			}
			if p < 0 {
				for i := k; i < n; i++ {
					col[i-k] = laneAt(d, i*n+k, ln)
				}
				p = pivotScan(col, 1, n-k)
			}
			pv := laneAt(d, (k+p)*n+k, ln)
			piv[ln*n+k] = k + p
			if pv == 0 { // the largest modulus is 0; a NaN pivot is not
				live &^= 1 << ln
				singular |= 1 << ln
				continue
			}
			if p > 0 {
				swapLaneRows(d, n, k, k+p, ln)
			}
			inv := 1 / pv
			laneSet(d, k*n+k, ln, inv) // no later step reads u_kk itself
			pivInv[ln], pivInv[ln+Lanes] = real(inv), imag(inv)
		}
		if rl := n - k - 1; rl > 0 {
			if hasAVX {
				avxLaneFactorCol(&d[((k+1)*n+k)*laneStride], &d[(k*n+k+1)*laneStride], rl, n, &pivInv[0])
				continue
			}
			laneFactorCol(d[((k+1)*n+k)*laneStride:], d[(k*n+k+1)*laneStride:], rl, n, &pivInv)
		}
	}
	return singular
}

// lanePivots returns, per lane, pivotScan's verdict on column k, rows
// k…n−1, as an offset from k, where |z|² alone decides it: the largest
// re²+im² is in pivotScan's safe range and every other entry's is below it
// by more than the band, so the Hypot scan picks the same row. Anything
// else — a zero column, a tie or near-tie, a NaN, an extreme modulus — is
// −1, and the caller runs pivotScan itself.
func lanePivots(d []float64, n, k int) (p [Lanes]int) {
	var best, second [Lanes]float64
	var nan [Lanes]bool
	for l := range p {
		p[l], best[l], second[l] = -1, -1, -1
	}
	for i := k; i < n; i++ {
		e := (*[laneStride]float64)(d[(i*n+k)*laneStride : (i*n+k+1)*laneStride])
		for l := range p {
			re, im := e[l], e[l+Lanes]
			s := re*re + im*im
			switch {
			case s > best[l]:
				p[l], best[l], second[l] = i-k, s, best[l]
			case s > second[l]:
				second[l] = s
			case !(s <= second[l]):
				nan[l] = true
			}
		}
	}
	for l := range p {
		if nan[l] || !(best[l] >= sqLo && best[l] <= sqHi && second[l] < best[l]*(1-sqBand)) {
			p[l] = -1
		}
	}
	return p
}

// swapLaneRows swaps rows a and b of lane l of a row-major matrix of
// width cols.
func swapLaneRows(d []float64, cols, a, b, l int) {
	ra, rb := d[a*cols*laneStride+l:(a+1)*cols*laneStride], d[b*cols*laneStride+l:(b+1)*cols*laneStride]
	rb = rb[:len(ra)]
	for o := 0; o < len(ra); o += Lanes {
		ra[o], rb[o] = rb[o], ra[o] // the real part, then the imaginary
	}
}

// laneFactorCol is avxLaneFactorCol's scalar loop: for each of rows
// trailing rows, m = col·pivInv stored back, and where m ≠ 0 the row's
// segment of length rows one element past the column gets −= m·rowK.
// col advances by stride elements per row.
func laneFactorCol(col, rowK []float64, rows, stride int, pivInv *[laneStride]float64) {
	for i := 0; i < rows; i++ {
		c := col[i*stride*laneStride:]
		for ln := 0; ln < Lanes; ln++ {
			m := laneAt(c, 0, ln) * complex(pivInv[ln], pivInv[ln+Lanes])
			laneSet(c, 0, ln, m)
			if m == 0 {
				continue
			}
			for j := 0; j < rows; j++ {
				laneSet(c, j+1, ln, laneAt(c, j+1, ln)-m*laneAt(rowK, j, ln))
			}
		}
	}
}

// laneSweeps runs both substitution sweeps of a nonempty b against the
// factor f in every lane, the row swaps already applied.
func laneSweeps(f, b *LaneMatrix) {
	if hasAVX {
		avxLaneLuSolve(&b.Data[0], &f.Data[0], f.Rows, b.Cols)
		return
	}
	laneLuSolve(b.Data, f.Data, f.Rows, b.Cols)
}

// laneLuSolve is avxLaneLuSolve's scalar loop: luSolveInPlace's sweeps,
// k paired two-deep with its zero skips, in every lane.
func laneLuSolve(b, lu []float64, n, nrhs int) {
	// update sets row i −= Σ_k lu[i,k]·row k over k in [from, to).
	update := func(i, from, to, ln int) {
		rowI := b[i*nrhs*laneStride:]
		k := from
		for ; k+1 < to; k += 2 {
			m0, m1 := laneAt(lu, i*n+k, ln), laneAt(lu, i*n+k+1, ln)
			if m0 == 0 && m1 == 0 {
				continue
			}
			r0, r1 := b[k*nrhs*laneStride:], b[(k+1)*nrhs*laneStride:]
			for j := 0; j < nrhs; j++ {
				laneSet(rowI, j, ln, laneAt(rowI, j, ln)-(m0*laneAt(r0, j, ln)+m1*laneAt(r1, j, ln)))
			}
		}
		for ; k < to; k++ {
			m := laneAt(lu, i*n+k, ln)
			if m == 0 {
				continue
			}
			rk := b[k*nrhs*laneStride:]
			for j := 0; j < nrhs; j++ {
				laneSet(rowI, j, ln, laneAt(rowI, j, ln)-m*laneAt(rk, j, ln))
			}
		}
	}
	for ln := 0; ln < Lanes; ln++ {
		for i := 1; i < n; i++ {
			update(i, 0, i, ln)
		}
		for i := n - 1; i >= 0; i-- {
			update(i, i+1, n, ln)
			dInv := laneAt(lu, i*n+i, ln)
			rowI := b[i*nrhs*laneStride:]
			for j := 0; j < nrhs; j++ {
				laneSet(rowI, j, ln, laneAt(rowI, j, ln)*dInv)
			}
		}
	}
}
