package linalg

// Elementwise microkernel dispatch for the linalg kernels. Each helper
// computes exactly the expression tree of the scalar loop next to it —
// one correctly-rounded multiply or add per scalar operation, no fused
// multiply-add — so the AVX path is bitwise-identical to the portable
// loop on every element, and every kernel built on top produces the same
// bits whichever engine runs it (the property tests in bitwise_test.go
// hold both engines to the scalar loops of reference_test.go).
//
// hasAVX is set once at init by a CPUID probe (amd64 without the purego
// build tag). The two helpers below, scaleTo and negTo, pay one
// non-inlinable assembly call per row segment (avxScale, avxNeg) and serve
// GemmInto's beta scaling, ScaleRowsInto and ShiftedNegInto; GemmInto,
// factorInPlace and luSolveInPlace call the fused kernels, which run a
// whole loop nest per call — a GEMM tile, a pivot's column update, both
// substitution sweeps. Each kind has its own dispatch floor. These five,
// and the three lane kernels of lanes.go, are the whole assembly set.

// vecMinLen is the slice length below which the scalar loop beats the
// assembly call overhead of the helpers below.
const vecMinLen = 6

// fusedMinWidth is the row-segment width from which luSolveInPlace,
// GemmInto's NoTrans·NoTrans tile and factorInPlace dispatch to the fused
// kernels (avxLuSolve, avxGemmTileNN, avxFactorColUpdate): the minimum
// their assembly documents. A fused call is amortised over a whole solve,
// tile or column update, and since the transport solvers moved into the
// couplings' support space most operands are 2 to 10 wide. Measured (ns per
// call, scalar loop → fused kernel, median of 3, one core of a shared
// 2-core x86-64 host; go test -run '^$' -bench Narrow -cpu 1 regenerates
// it):
//
//	LU solve, n×n factor, k columns     k=2          k=3          k=4          k=5
//	  n = 6                           143 → 104    186 → 115    244 → 120    286 → 133
//	  n = 14                          706 → 384    912 → 429   1037 → 433   1322 → 527
//	  n = 40                         5963 → 2382  7273 → 2996  9664 → 3051  10546 → 3812
//	GEMM n×k·k×w   14×3×4 345 → 124   14×4×2 299 → 133   3×4×4 94 → 39
//	               40×5×3 1328 → 684  40×10×5 3573 → 1658  40×40×2 6772 → 2925
//	LU factor, every trailing block narrower than 6:  n = 5  189 → 166   n = 6  283 → 213
//
// Width 1 and everything at n ≤ 4 are ties; width 1 stays scalar.
const fusedMinWidth = 2

// scaleTo computes y[j] *= d.
func scaleTo(y []complex128, d complex128) {
	if hasAVX && len(y) >= vecMinLen {
		n := len(y) &^ 1
		avxScale(&y[0], n, d)
		if n < len(y) {
			y[n] *= d
		}
		return
	}
	for j := range y {
		y[j] *= d
	}
}

// negTo computes dst[j] = -src[j] (an exact IEEE sign flip, matching the
// scalar unary minus bit for bit).
func negTo(dst, src []complex128) {
	if hasAVX && len(dst) >= vecMinLen {
		n := len(dst) &^ 1
		avxNeg(&dst[0], &src[0], n)
		if n < len(dst) {
			dst[n] = -src[n]
		}
		return
	}
	src = src[:len(dst)]
	for j := range dst {
		dst[j] = -src[j]
	}
}
