//go:build amd64 && !purego

package linalg

// hasAVX reports whether the CPU and OS support AVX ymm arithmetic
// (CPUID OSXSAVE+AVX and XCR0 xmm+ymm state). The probe runs once at
// package init; tests flip the variable to run both engines in-process,
// and the purego build tag (veckernels_other.go) pins it false.
var hasAVX = cpuHasAVX()

// cpuHasAVX is the CPUID/XGETBV feature probe (veckernels_amd64.s).
func cpuHasAVX() bool

// The assembly kernels require n even and >= 2; the dispatch wrappers
// in veckernels.go guarantee it and handle the odd tail element.

//go:noescape
func avxScale(y *complex128, n int, d complex128)

//go:noescape
func avxNeg(dst, src *complex128, n int)

// The fused kernels below move a whole solver loop nest — zero checks,
// multiplier scaling, row updates, odd tails — into one assembly call,
// amortizing the ABI0 call overhead over a whole solve, column update or
// GEMM tile instead of one row segment. They require the row length >=
// fusedMinWidth; odd lengths are handled inside.

// avxLuSolve runs both substitution sweeps of the n×nrhs block b against
// the packed n×n factor lu (reciprocal pivots on its diagonal), the row
// permutation already applied: forward b[i] -= Σ_{k<i} lu[i,k]·b[k], then
// back, for i = n−1 down to floor, b[i] -= Σ_{k>i} lu[i,k]·b[k] and
// b[i] *= lu[i,i], every row update pairing k two-deep with the reference
// kernel's zero skips. n >= 1, 0 <= floor <= n.
//
//go:noescape
func avxLuSolve(b, lu *complex128, n, nrhs, floor int)

// avxFactorColUpdate runs the pivot-k elimination: for each of rows
// trailing rows it scales the column entry by pivInv (storing the
// multiplier back), skips zero multipliers, and subtracts m·rowK from
// the trailing row segment of length rows. col walks down the column
// with the given stride (in elements).
//
//go:noescape
func avxFactorColUpdate(col, rowK *complex128, rows, stride int, pivInv complex128)

// avxGemmTileNN accumulates dst[i·p+j] += Σ_l (alpha·a[i·lda+l])·b[l·p+j]
// for i in [0,rows), l in [0,kLen), j in [0,w) — one (column-block,
// k-block) tile of the NoTrans GEMM, every row of it — pairing l two-deep
// with the reference kernel's unscaled zero skips.
//
//go:noescape
func avxGemmTileNN(dst, a, b *complex128, rows, lda, kLen, p, w int, alpha complex128)

// The lane kernels (lanes.go) run one loop nest for Lanes operand sets,
// a LaneMatrix element being its lanes' real parts in one ymm vector and
// their imaginary parts in the next. Where the solo loop skips a row
// update, a lane keeps its old value through VBLENDVPD.

// avxLaneGemmTile is avxGemmTileNN on lane matrices: for each row i <
// rows, dst[i·p : i·p+w] += Σ_{l<kLen} (alpha·a[i·lda+l])·b[l·p : l·p+w]
// in every lane, l paired two-deep, a lane keeping its row where both
// unscaled multipliers of a pair (or the odd tail's one) are zero.
// Strides are in elements.
//
//go:noescape
func avxLaneGemmTile(dst, a, b *float64, rows, lda, kLen, p, w int, alpha complex128)

// avxLaneFactor runs laneFactorInPlace's columns from k on while |z|²
// decides the pivot of every lane of live: per column and live lane the
// pivot search into piv, the row swap, 1/u_kk as runtime.complex128div
// forms it, and the column update; a lane outside live takes piv = k and
// a zero reciprocal pivot. c is laneFactorConsts. It returns the first
// column whose pivot is Go's — or n. A non-nil pivInv (Lanes real parts,
// then Lanes imaginary parts) starts it at the update of column k, whose
// pivots Go has set.
//
//go:noescape
func avxLaneFactor(d *float64, n, k int, piv *int, live int, c, pivInv *float64) int

// avxLaneLuSolve is luSolveInPlace on lane matrices: each lane of live
// swaps its rows of b as piv[l·n : (l+1)·n] says, then both substitution
// sweeps of the n×nrhs b against the packed n×n factor lu run, the back
// sweep stopped after row floor, k paired two-deep with the reference's
// zero skips per lane. n, nrhs >= 1, 0 <= floor <= n.
//
//go:noescape
func avxLaneLuSolve(b, lu *float64, n, nrhs, floor int, piv *int, live int)

// avxLaneMaxAbs sets mx[l] to lane l's largest |re| or |im| over elems
// lane-matrix elements and returns the mask of lanes where a part is NaN.
//
//go:noescape
func avxLaneMaxAbs(d *float64, elems int, mx *float64) int
