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
// build tag); every helper falls back to the scalar loop below a small
// length threshold, where the call overhead of a non-inlinable assembly
// routine exceeds the vector win. The helpers are not inlinable, so
// they serve whole-matrix calls; GemmInto, factorInPlace and
// luSolveInPlace hoist the same dispatch out of their inner loops and
// call the assembly kernels directly.

// vecMinLen is the slice length below which the scalar loop beats the
// assembly call overhead.
const vecMinLen = 6

// axpyAddTo computes y[j] += m*x[j]. Note there is deliberately no
// m==0 short-circuit here: the reference kernels skip on the *unscaled*
// multiplier, and 0·x is not a no-op for IEEE signed zeros, infinities
// and NaNs — so the skip is a semantic that must live at the call site,
// exactly where the scalar kernel has it.
func axpyAddTo(y, x []complex128, m complex128) {
	if hasAVX && len(y) >= vecMinLen {
		n := len(y) &^ 1
		avxAxpyAdd(&y[0], &x[0], n, m)
		if n < len(y) {
			y[n] += m * x[n]
		}
		return
	}
	x = x[:len(y)]
	for j := range y {
		y[j] += m * x[j]
	}
}

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

// subTo computes dst[j] = a[j] - b[j].
func subTo(dst, a, b []complex128) {
	if hasAVX && len(dst) >= vecMinLen {
		n := len(dst) &^ 1
		avxSub(&dst[0], &a[0], &b[0], n)
		if n < len(dst) {
			dst[n] = a[n] - b[n]
		}
		return
	}
	a = a[:len(dst)]
	b = b[:len(dst)]
	for j := range dst {
		dst[j] = a[j] - b[j]
	}
}
