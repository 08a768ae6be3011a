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
func avxAxpyAdd(y, x *complex128, n int, m complex128)

//go:noescape
func avxScale(y *complex128, n int, d complex128)

//go:noescape
func avxNeg(dst, src *complex128, n int)

//go:noescape
func avxSub(dst, a, b *complex128, n int)

// The fused kernels below move a whole solver inner loop — zero checks,
// multiplier scaling, row updates, odd tails — into one assembly call,
// amortizing the ABI0 call overhead over O(n·nrhs) work instead of one
// row segment. They require the row length >= fusedMinWidth; odd lengths are
// handled inside.

// avxLuRowUpdate applies y[j] -= Σ_k ms[k]·rows[k·nrhs+j] for k in
// [0,cnt), j in [0,nrhs) — the forward/backward substitution update of
// one RHS row against cnt earlier rows — pairing k two-deep with the
// reference kernel's zero skips.
//
//go:noescape
func avxLuRowUpdate(y, rows, ms *complex128, cnt, nrhs int)

// avxFactorColUpdate runs the pivot-k elimination: for each of rows
// trailing rows it scales the column entry by pivInv (storing the
// multiplier back), skips zero multipliers, and subtracts m·rowK from
// the trailing row segment of length rows. col walks down the column
// with the given stride (in elements).
//
//go:noescape
func avxFactorColUpdate(col, rowK *complex128, rows, stride int, pivInv complex128)

// avxGemmTileNN accumulates dst[j] += Σ_l (alpha·aRow[l])·b[l·p+j] for
// l in [0,kLen), j in [0,w) — one (i, k-block) tile of the NoTrans GEMM
// — pairing l two-deep with the reference kernel's unscaled zero skips.
//
//go:noescape
func avxGemmTileNN(dst, aRow, b *complex128, kLen, p, w int, alpha complex128)
