//go:build !amd64 || purego

package linalg

// Builds without the assembly (non-amd64, or any build with the purego
// tag) always take the scalar loops; the stubs below are never reached
// (hasAVX stays false) but keep the dispatch code building unmodified.

var hasAVX = false

func avxScale(y *complex128, n int, d complex128) { panic("linalg: no vector kernel") }
func avxNeg(dst, src *complex128, n int)          { panic("linalg: no vector kernel") }

func avxLuSolve(b, lu *complex128, n, nrhs, floor int) { panic("linalg: no vector kernel") }
func avxFactorColUpdate(col, rowK *complex128, rows, stride int, pivInv complex128) {
	panic("linalg: no vector kernel")
}
func avxGemmTileNN(dst, a, b *complex128, rows, lda, kLen, p, w int, alpha complex128) {
	panic("linalg: no vector kernel")
}

func avxLaneGemmTile(dst, a, b *float64, rows, lda, kLen, p, w int, alpha complex128) {
	panic("linalg: no vector kernel")
}
func avxLaneFactor(d *float64, n, k int, piv *int, live int, c, pivInv *float64) int {
	panic("linalg: no vector kernel")
}
func avxLaneLuSolve(b, lu *float64, n, nrhs, floor int, piv *int, live int) {
	panic("linalg: no vector kernel")
}
func avxLaneMaxAbs(d *float64, elems int, mx *float64) int { panic("linalg: no vector kernel") }
