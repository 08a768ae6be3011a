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

// avxLaneFactorCol is avxFactorColUpdate on a lane matrix: for each of
// rows trailing rows, m = col·pivInv (pivInv: Lanes real parts, then Lanes
// imaginary parts) stored back, and the row's segment of length rows one
// element past the column −= m·rowK in the lanes where m ≠ 0. col
// advances by stride elements per row.
//
//go:noescape
func avxLaneFactorCol(col, rowK *float64, rows, stride int, pivInv *float64)

// avxLaneLuSolve is avxLuSolve (floor 0) on lane matrices: both
// substitution sweeps of the n×nrhs b against the packed n×n factor lu,
// the row swaps already applied, k paired two-deep with the reference's
// zero skips per lane.
//
//go:noescape
func avxLaneLuSolve(b, lu *float64, n, nrhs int)
