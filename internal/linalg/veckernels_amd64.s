//go:build amd64 && !purego

// AVX microkernels of the linalg kernel set. Every lane computes
// the exact scalar expression tree of the portable loops in
// veckernels.go: a complex product m*x is one VMULPD against the
// broadcast real part, one VMULPD of the lane-swapped input against the
// broadcast imaginary part, and one VADDSUBPD — the same three
// correctly-rounded operations (mr*xr - mi*xi, mr*xi + mi*xr) the Go
// compiler emits for a scalar complex128 multiply. No FMA contraction
// anywhere, so results are bitwise-identical to the scalar kernels.
//
// All kernels require n even and >= 2 (two complex128 per ymm register);
// the Go wrappers peel the odd tail. The main loops are unrolled to two
// ymm registers (four complex128) per iteration — the solver row lengths
// sit around 14-64 elements, where loop overhead is a real fraction of
// the work — with a single two-element step for the remainder.

#include "textflag.h"

// func cpuHasAVX() bool
// CPUID leaf 1: OSXSAVE (ECX bit 27) and AVX (ECX bit 28), then XGETBV
// XCR0 bits 1-2 for OS-enabled xmm+ymm state.
TEXT ·cpuHasAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	MOVL $0, CX
	CPUID
	MOVL CX, AX
	ANDL $(1<<27 | 1<<28), AX
	CMPL AX, $(1<<27 | 1<<28)
	JNE  novec
	MOVL $0, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  novec
	MOVB $1, ret+0(FP)
	RET

novec:
	MOVB $0, ret+0(FP)
	RET

// func avxScale(y *complex128, n int, d complex128)
// y[0:n] *= d
TEXT ·avxScale(SB), NOSPLIT, $0-32
	MOVQ         y+0(FP), DI
	MOVQ         n+8(FP), CX
	VBROADCASTSD d_real+16(FP), Y0
	VBROADCASTSD d_imag+24(FP), Y1

scale4:
	CMPQ      CX, $4
	JL        scale2
	VMOVUPD   (DI), Y2
	VMOVUPD   32(DI), Y4
	VPERMILPD $0x5, Y2, Y3
	VPERMILPD $0x5, Y4, Y5
	VMULPD    Y0, Y2, Y2
	VMULPD    Y0, Y4, Y4
	VMULPD    Y1, Y3, Y3
	VMULPD    Y1, Y5, Y5
	VADDSUBPD Y3, Y2, Y2
	VADDSUBPD Y5, Y4, Y4
	VMOVUPD   Y2, (DI)
	VMOVUPD   Y4, 32(DI)
	ADDQ      $64, DI
	SUBQ      $4, CX
	JMP       scale4

scale2:
	TESTQ     CX, CX
	JLE       scaledone
	VMOVUPD   (DI), Y2
	VPERMILPD $0x5, Y2, Y3
	VMULPD    Y0, Y2, Y2
	VMULPD    Y1, Y3, Y3
	VADDSUBPD Y3, Y2, Y2
	VMOVUPD   Y2, (DI)

scaledone:
	VZEROUPPER
	RET

// negZero is the sign-bit mask for IEEE negation by XOR.
DATA negZero<>+0(SB)/8, $0x8000000000000000
GLOBL negZero<>(SB), RODATA, $8

// func avxNeg(dst, src *complex128, n int)
// dst[0:n] = -src[0:n] (exact IEEE sign flip, like the scalar unary minus)
TEXT ·avxNeg(SB), NOSPLIT, $0-24
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSD negZero<>(SB), Y0

neg4:
	CMPQ    CX, $4
	JL      neg2
	VMOVUPD (SI), Y1
	VMOVUPD 32(SI), Y2
	VXORPD  Y0, Y1, Y1
	VXORPD  Y0, Y2, Y2
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $4, CX
	JMP     neg4

neg2:
	TESTQ   CX, CX
	JLE     negdone
	VMOVUPD (SI), Y1
	VXORPD  Y0, Y1, Y1
	VMOVUPD Y1, (DI)

negdone:
	VZEROUPPER
	RET

// ---------------------------------------------------------------------
// Fused solver-loop kernels. Each call runs a whole reference inner loop
// — zero checks on unscaled multipliers, exact complex scaling, row
// updates, odd tails — so the per-call overhead is amortized over
// O(rows·width) work. A scalar complex product a·b is computed with the
// exact Go operand order: s1 = [ar·br, ar·bi], s2 = [ai·bi, ai·br],
// ADDSUBPD — identical trees, identical bits.
// ---------------------------------------------------------------------

// func avxLuSolve(b, lu *complex128, n, nrhs, floor int)
// Both substitution sweeps of the n×nrhs block b (row-major, the row
// permutation already applied) against the packed n×n factor lu, whose
// diagonal holds the reciprocal pivots:
//
//	forward, i = 1…n−1:      b[i] -= Σ_{k<i} lu[i,k]·b[k]
//	back, i = n−1…floor:     b[i] -= Σ_{k>i} lu[i,k]·b[k];  b[i] *= lu[i,i]
//
// Every row update pairs k two-deep with the reference zero skips (a pair
// is skipped iff both multipliers are zero, a lone trailing k iff its
// multiplier is zero) and runs an xmm tail for odd nrhs. The two sweeps
// share one update block; phase names the sweep it returns to. Requires
// n >= 1, nrhs >= 2 and 0 <= floor <= n.
TEXT ·avxLuSolve(SB), NOSPLIT, $16-40
	MOVQ nrhs+24(FP), R10
	MOVQ R10, R11
	ANDQ $-2, R11 // wEven
	MOVQ R10, R9
	SHLQ $4, R9   // row stride of b in bytes
	MOVQ R11, R8
	SHLQ $4, R8   // tail byte offset
	MOVQ $0, phase-16(SP)
	MOVQ $1, i-8(SP)

lsfwd:
	// y = b[i], rows = b[0], ms = lu[i, 0:i], cnt = i
	MOVQ  i-8(SP), CX
	CMPQ  CX, n+16(FP)
	JGE   lsbackinit
	MOVQ  b+0(FP), SI
	MOVQ  CX, DI
	IMULQ R9, DI
	ADDQ  SI, DI
	MOVQ  n+16(FP), BX
	IMULQ CX, BX
	SHLQ  $4, BX
	ADDQ  lu+8(FP), BX
	JMP   lsupdate

lsfwdnext:
	INCQ i-8(SP)
	JMP  lsfwd

lsbackinit:
	MOVQ $1, phase-16(SP)
	MOVQ n+16(FP), CX
	DECQ CX
	MOVQ CX, i-8(SP)

lsback:
	// y = b[i], rows = b[i+1], ms = lu[i, i+1:n], cnt = n − 1 − i
	MOVQ  i-8(SP), CX
	CMPQ  CX, floor+32(FP)
	JL    lsdone
	MOVQ  CX, DI
	IMULQ R9, DI
	ADDQ  b+0(FP), DI
	LEAQ  (DI)(R9*1), SI
	MOVQ  n+16(FP), BX
	IMULQ CX, BX
	ADDQ  CX, BX
	INCQ  BX
	SHLQ  $4, BX
	ADDQ  lu+8(FP), BX
	NEGQ  CX
	ADDQ  n+16(FP), CX
	DECQ  CX
	JMP   lsupdate

lsbacknext:
	// y *= lu[i,i], the stored reciprocal pivot: the exact Go tree of
	// y·d, as in avxScale. The update left DI at y.
	MOVQ         i-8(SP), CX
	MOVQ         n+16(FP), BX
	IMULQ        CX, BX
	ADDQ         CX, BX
	SHLQ         $4, BX
	ADDQ         lu+8(FP), BX
	VBROADCASTSD (BX), Y0
	VBROADCASTSD 8(BX), Y1
	MOVQ         DI, R12
	MOVQ         R11, DX

lss4:
	CMPQ      DX, $4
	JL        lss2
	VMOVUPD   (R12), Y2
	VMOVUPD   32(R12), Y4
	VPERMILPD $0x5, Y2, Y3
	VPERMILPD $0x5, Y4, Y5
	VMULPD    Y0, Y2, Y2
	VMULPD    Y0, Y4, Y4
	VMULPD    Y1, Y3, Y3
	VMULPD    Y1, Y5, Y5
	VADDSUBPD Y3, Y2, Y2
	VADDSUBPD Y5, Y4, Y4
	VMOVUPD   Y2, (R12)
	VMOVUPD   Y4, 32(R12)
	ADDQ      $64, R12
	SUBQ      $4, DX
	JMP       lss4

lss2:
	TESTQ     DX, DX
	JLE       lsstail
	VMOVUPD   (R12), Y2
	VPERMILPD $0x5, Y2, Y3
	VMULPD    Y0, Y2, Y2
	VMULPD    Y1, Y3, Y3
	VADDSUBPD Y3, Y2, Y2
	VMOVUPD   Y2, (R12)

lsstail:
	CMPQ      R11, R10
	JE        lsbackstep
	VMOVUPD   (DI)(R8*1), X4
	VSHUFPD   $1, X4, X4, X5
	VMOVDDUP  (BX), X6
	VMOVDDUP  8(BX), X7
	VMULPD    X6, X4, X4
	VMULPD    X7, X5, X5
	VADDSUBPD X5, X4, X4
	VMOVUPD   X4, (DI)(R8*1)

lsbackstep:
	DECQ i-8(SP)
	JMP  lsback

	// The row update: y[0:nrhs] -= Σ_{k<cnt} ms[k]·rows[k·nrhs : k·nrhs+nrhs]
	// with DI = y, SI = rows, BX = ms, CX = cnt. DI is left unchanged.
lsupdate:
lupair:
	CMPQ      CX, $2
	JL        lusingle
	VMOVUPD   (BX), Y5
	VXORPD    Y4, Y4, Y4
	VCMPPD    $0, Y4, Y5, Y4
	VMOVMSKPD Y4, AX
	CMPL      AX, $0xF
	JE        lupskip

	// broadcast m0, m1 straight from memory
	VBROADCASTSD (BX), Y0
	VBROADCASTSD 8(BX), Y1
	VBROADCASTSD 16(BX), Y2
	VBROADCASTSD 24(BX), Y3
	MOVQ         DI, R12
	MOVQ         SI, R13
	LEAQ         (SI)(R9*1), R14
	MOVQ         R11, DX

lup4:
	CMPQ      DX, $4
	JL        lup2
	VMOVUPD   (R13), Y4
	VMOVUPD   32(R13), Y9
	VPERMILPD $0x5, Y4, Y5
	VPERMILPD $0x5, Y9, Y10
	VMULPD    Y0, Y4, Y4
	VMULPD    Y0, Y9, Y9
	VMULPD    Y1, Y5, Y5
	VMULPD    Y1, Y10, Y10
	VADDSUBPD Y5, Y4, Y4
	VADDSUBPD Y10, Y9, Y9
	VMOVUPD   (R14), Y6
	VMOVUPD   32(R14), Y11
	VPERMILPD $0x5, Y6, Y7
	VPERMILPD $0x5, Y11, Y12
	VMULPD    Y2, Y6, Y6
	VMULPD    Y2, Y11, Y11
	VMULPD    Y3, Y7, Y7
	VMULPD    Y3, Y12, Y12
	VADDSUBPD Y7, Y6, Y6
	VADDSUBPD Y12, Y11, Y11
	VADDPD    Y6, Y4, Y4
	VADDPD    Y11, Y9, Y9
	VMOVUPD   (R12), Y8
	VMOVUPD   32(R12), Y13
	VSUBPD    Y4, Y8, Y8
	VSUBPD    Y9, Y13, Y13
	VMOVUPD   Y8, (R12)
	VMOVUPD   Y13, 32(R12)
	ADDQ      $64, R13
	ADDQ      $64, R14
	ADDQ      $64, R12
	SUBQ      $4, DX
	JMP       lup4

lup2:
	TESTQ     DX, DX
	JLE       luptail
	VMOVUPD   (R13), Y4
	VPERMILPD $0x5, Y4, Y5
	VMULPD    Y0, Y4, Y4
	VMULPD    Y1, Y5, Y5
	VADDSUBPD Y5, Y4, Y4
	VMOVUPD   (R14), Y6
	VPERMILPD $0x5, Y6, Y7
	VMULPD    Y2, Y6, Y6
	VMULPD    Y3, Y7, Y7
	VADDSUBPD Y7, Y6, Y6
	VADDPD    Y6, Y4, Y4
	VMOVUPD   (R12), Y8
	VSUBPD    Y4, Y8, Y8
	VMOVUPD   Y8, (R12)

luptail:
	CMPQ      R11, R10
	JE        lupskip
	// y[t] -= m0·r0[t] + m1·r1[t], exact scalar trees
	VMOVUPD   (SI)(R8*1), X4
	VSHUFPD   $1, X4, X4, X5
	VMOVDDUP  (BX), X6
	VMOVDDUP  8(BX), X7
	VMULPD    X6, X4, X4
	VMULPD    X7, X5, X5
	VADDSUBPD X5, X4, X4
	LEAQ      (SI)(R9*1), DX
	VMOVUPD   (DX)(R8*1), X9
	VSHUFPD   $1, X9, X9, X10
	VMOVDDUP  16(BX), X6
	VMOVDDUP  24(BX), X7
	VMULPD    X6, X9, X9
	VMULPD    X7, X10, X10
	VADDSUBPD X10, X9, X9
	VADDPD    X9, X4, X4
	VMOVUPD   (DI)(R8*1), X11
	VSUBPD    X4, X11, X11
	VMOVUPD   X11, (DI)(R8*1)

lupskip:
	LEAQ (SI)(R9*2), SI
	ADDQ $32, BX
	SUBQ $2, CX
	JMP  lupair

lusingle:
	TESTQ     CX, CX
	JLE       luend
	VMOVUPD   (BX), X5
	VXORPD    X4, X4, X4
	VCMPPD    $0, X4, X5, X4
	VMOVMSKPD X4, AX
	CMPL      AX, $3
	JE        luend
	VBROADCASTSD (BX), Y0
	VBROADCASTSD 8(BX), Y1
	MOVQ         DI, R12
	MOVQ         SI, R13
	MOVQ         R11, DX

lus4:
	CMPQ      DX, $4
	JL        lus2
	VMOVUPD   (R13), Y2
	VMOVUPD   32(R13), Y5
	VPERMILPD $0x5, Y2, Y3
	VPERMILPD $0x5, Y5, Y6
	VMULPD    Y0, Y2, Y2
	VMULPD    Y0, Y5, Y5
	VMULPD    Y1, Y3, Y3
	VMULPD    Y1, Y6, Y6
	VADDSUBPD Y3, Y2, Y2
	VADDSUBPD Y6, Y5, Y5
	VMOVUPD   (R12), Y4
	VMOVUPD   32(R12), Y7
	VSUBPD    Y2, Y4, Y4
	VSUBPD    Y5, Y7, Y7
	VMOVUPD   Y4, (R12)
	VMOVUPD   Y7, 32(R12)
	ADDQ      $64, R13
	ADDQ      $64, R12
	SUBQ      $4, DX
	JMP       lus4

lus2:
	TESTQ     DX, DX
	JLE       lustail
	VMOVUPD   (R13), Y2
	VPERMILPD $0x5, Y2, Y3
	VMULPD    Y0, Y2, Y2
	VMULPD    Y1, Y3, Y3
	VADDSUBPD Y3, Y2, Y2
	VMOVUPD   (R12), Y4
	VSUBPD    Y2, Y4, Y4
	VMOVUPD   Y4, (R12)

lustail:
	CMPQ      R11, R10
	JE        luend
	VMOVUPD   (SI)(R8*1), X4
	VSHUFPD   $1, X4, X4, X5
	VMOVDDUP  (BX), X6
	VMOVDDUP  8(BX), X7
	VMULPD    X6, X4, X4
	VMULPD    X7, X5, X5
	VADDSUBPD X5, X4, X4
	VMOVUPD   (DI)(R8*1), X11
	VSUBPD    X4, X11, X11
	VMOVUPD   X11, (DI)(R8*1)

luend:
	CMPQ phase-16(SP), $0
	JE   lsfwdnext
	JMP  lsbacknext

lsdone:
	VZEROUPPER
	RET

// func avxFactorColUpdate(col, rowK *complex128, rows, stride int, pivInv complex128)
// For each of rows trailing rows: m = col[0]·pivInv (exact Go tree),
// stored back; if m != 0, the trailing row segment of length rows
// starting one element past the column slot gets -= m·rowK. col
// advances by stride elements per row. Requires rows >= 2.
TEXT ·avxFactorColUpdate(SB), NOSPLIT, $0-48
	MOVQ     col+0(FP), DI
	MOVQ     rowK+8(FP), SI
	MOVQ     rows+16(FP), CX
	MOVQ     stride+24(FP), R9
	SHLQ     $4, R9
	VMOVSD   pivInv_real+32(FP), X14
	VMOVHPD  pivInv_imag+40(FP), X14, X14
	VSHUFPD  $1, X14, X14, X15
	MOVQ     CX, R10 // row length rl == rows
	MOVQ     R10, R11
	ANDQ     $-2, R11 // rlEven
	MOVQ     R11, R8
	SHLQ     $4, R8   // tail byte offset

fcrow:
	TESTQ     CX, CX
	JLE       fcdone
	// m = lu_val·pivInv: s1 = [ar·br, ar·bi], s2 = [ai·bi, ai·br]
	VMOVUPD   (DI), X5
	VMOVDDUP  X5, X8
	VSHUFPD   $3, X5, X5, X9
	VMULPD    X14, X8, X8
	VMULPD    X15, X9, X9
	VADDSUBPD X9, X8, X8
	VMOVUPD   X8, (DI)
	VXORPD    X4, X4, X4
	VCMPPD    $0, X4, X8, X4
	VMOVMSKPD X4, AX
	CMPL      AX, $3
	JE        fcskip

	// broadcast m to ymm lanes
	VMOVDDUP    X8, X0
	VINSERTF128 $1, X0, Y0, Y0
	VSHUFPD     $3, X8, X8, X1
	VINSERTF128 $1, X1, Y1, Y1
	LEAQ        16(DI), R12
	MOVQ        SI, R13
	MOVQ        R11, DX

fc4:
	CMPQ      DX, $4
	JL        fc2
	VMOVUPD   (R13), Y2
	VMOVUPD   32(R13), Y5
	VPERMILPD $0x5, Y2, Y3
	VPERMILPD $0x5, Y5, Y6
	VMULPD    Y0, Y2, Y2
	VMULPD    Y0, Y5, Y5
	VMULPD    Y1, Y3, Y3
	VMULPD    Y1, Y6, Y6
	VADDSUBPD Y3, Y2, Y2
	VADDSUBPD Y6, Y5, Y5
	VMOVUPD   (R12), Y4
	VMOVUPD   32(R12), Y7
	VSUBPD    Y2, Y4, Y4
	VSUBPD    Y5, Y7, Y7
	VMOVUPD   Y4, (R12)
	VMOVUPD   Y7, 32(R12)
	ADDQ      $64, R13
	ADDQ      $64, R12
	SUBQ      $4, DX
	JMP       fc4

fc2:
	TESTQ     DX, DX
	JLE       fctail
	VMOVUPD   (R13), Y2
	VPERMILPD $0x5, Y2, Y3
	VMULPD    Y0, Y2, Y2
	VMULPD    Y1, Y3, Y3
	VADDSUBPD Y3, Y2, Y2
	VMOVUPD   (R12), Y4
	VSUBPD    Y2, Y4, Y4
	VMOVUPD   Y4, (R12)

fctail:
	CMPQ      R11, R10
	JE        fcskip
	// rowI[t] -= m·rowK[t]
	VMOVUPD   (SI)(R8*1), X4
	VSHUFPD   $1, X4, X4, X5
	VMOVDDUP  X8, X6
	VSHUFPD   $3, X8, X8, X7
	VMULPD    X6, X4, X4
	VMULPD    X7, X5, X5
	VADDSUBPD X5, X4, X4
	LEAQ      16(DI), DX
	VMOVUPD   (DX)(R8*1), X11
	VSUBPD    X4, X11, X11
	VMOVUPD   X11, (DX)(R8*1)

fcskip:
	ADDQ R9, DI
	DECQ CX
	JMP  fcrow

fcdone:
	VZEROUPPER
	RET

// func avxGemmTileNN(dst, a, b *complex128, rows, lda, kLen, p, w int, alpha complex128)
// One (column-block, k-block) tile of the NoTrans GEMM, all its rows: for
// each row i < rows, dst[i·p : i·p+w] += Σ_{l<kLen} (alpha·a[i·lda+l])·
// b[l·p : l·p+w], l paired two-deep with the reference kernel's skips on
// the UNSCALED pair. Each row runs the instruction sequence of its own
// and nothing carries over between rows. Requires w >= 2; handles odd w
// via an xmm tail per update.
TEXT ·avxGemmTileNN(SB), NOSPLIT, $16-80
	MOVQ    rows+24(FP), AX
	TESTQ   AX, AX
	JLE     gtret
	MOVQ    AX, left-16(SP)
	MOVQ    dst+0(FP), DI
	MOVQ    a+8(FP), SI
	MOVQ    p+48(FP), R9
	SHLQ    $4, R9
	MOVQ    w+56(FP), R10
	MOVQ    R10, R11
	ANDQ    $-2, R11 // wEven
	MOVQ    R11, BX
	SHLQ    $4, BX   // tail byte offset
	VMOVSD  alpha_real+64(FP), X14
	VMOVHPD alpha_imag+72(FP), X14, X14
	VSHUFPD $1, X14, X14, X15

gtrow:
	// DI = dst row, SI = a row, R8 = b tile, CX = kLen
	MOVQ SI, arow-8(SP)
	MOVQ b+16(FP), R8
	MOVQ kLen+40(FP), CX

gtpair:
	CMPQ      CX, $2
	JL        gtsingle
	VMOVUPD   (SI), Y5
	VXORPD    Y4, Y4, Y4
	VCMPPD    $0, Y4, Y5, Y4
	VMOVMSKPD Y4, AX
	CMPL      AX, $0xF
	JE        gtpskip

	// av0 *= alpha; av1 *= alpha (exact Go trees)
	VMOVUPD   (SI), X5
	VMOVUPD   16(SI), X6
	VMOVDDUP  X5, X8
	VSHUFPD      $3, X5, X5, X9
	VMULPD       X14, X8, X8
	VMULPD       X15, X9, X9
	VADDSUBPD    X9, X8, X8    // scaled av0
	VMOVDDUP     X6, X10
	VSHUFPD      $3, X6, X6, X11
	VMULPD       X14, X10, X10
	VMULPD       X15, X11, X11
	VADDSUBPD    X11, X10, X10 // scaled av1
	VMOVDDUP     X8, X0
	VINSERTF128  $1, X0, Y0, Y0
	VSHUFPD      $3, X8, X8, X1
	VINSERTF128  $1, X1, Y1, Y1
	VMOVDDUP     X10, X2
	VINSERTF128  $1, X2, Y2, Y2
	VSHUFPD      $3, X10, X10, X3
	VINSERTF128  $1, X3, Y3, Y3
	MOVQ         DI, R12
	MOVQ         R8, R13
	LEAQ         (R8)(R9*1), R14
	MOVQ         R11, DX

gt4:
	CMPQ      DX, $4
	JL        gt2
	VMOVUPD   (R13), Y4
	VMOVUPD   32(R13), Y9
	VPERMILPD $0x5, Y4, Y5
	VPERMILPD $0x5, Y9, Y10
	VMULPD    Y0, Y4, Y4
	VMULPD    Y0, Y9, Y9
	VMULPD    Y1, Y5, Y5
	VMULPD    Y1, Y10, Y10
	VADDSUBPD Y5, Y4, Y4
	VADDSUBPD Y10, Y9, Y9
	VMOVUPD   (R14), Y6
	VMOVUPD   32(R14), Y11
	VPERMILPD $0x5, Y6, Y7
	VPERMILPD $0x5, Y11, Y12
	VMULPD    Y2, Y6, Y6
	VMULPD    Y2, Y11, Y11
	VMULPD    Y3, Y7, Y7
	VMULPD    Y3, Y12, Y12
	VADDSUBPD Y7, Y6, Y6
	VADDSUBPD Y12, Y11, Y11
	VADDPD    Y6, Y4, Y4
	VADDPD    Y11, Y9, Y9
	VMOVUPD   (R12), Y8
	VMOVUPD   32(R12), Y13
	VADDPD    Y4, Y8, Y8
	VADDPD    Y9, Y13, Y13
	VMOVUPD   Y8, (R12)
	VMOVUPD   Y13, 32(R12)
	ADDQ      $64, R13
	ADDQ      $64, R14
	ADDQ      $64, R12
	SUBQ      $4, DX
	JMP       gt4

gt2:
	TESTQ     DX, DX
	JLE       gttail
	VMOVUPD   (R13), Y4
	VPERMILPD $0x5, Y4, Y5
	VMULPD    Y0, Y4, Y4
	VMULPD    Y1, Y5, Y5
	VADDSUBPD Y5, Y4, Y4
	VMOVUPD   (R14), Y6
	VPERMILPD $0x5, Y6, Y7
	VMULPD    Y2, Y6, Y6
	VMULPD    Y3, Y7, Y7
	VADDSUBPD Y7, Y6, Y6
	VADDPD    Y6, Y4, Y4
	VMOVUPD   (R12), Y8
	VADDPD    Y4, Y8, Y8
	VMOVUPD   Y8, (R12)

gttail:
	CMPQ      R11, R10
	JE        gtpskip
	// dst[t] += av0·b0[t] + av1·b1[t]. The main loop clobbered
	// X8/X10, so recompute the identical scaled pair from (SI).
	VMOVUPD   (SI), X5
	VMOVUPD   16(SI), X6
	VMOVDDUP  X5, X8
	VSHUFPD   $3, X5, X5, X9
	VMULPD    X14, X8, X8
	VMULPD    X15, X9, X9
	VADDSUBPD X9, X8, X8
	VMOVDDUP  X6, X10
	VSHUFPD   $3, X6, X6, X11
	VMULPD    X14, X10, X10
	VMULPD    X15, X11, X11
	VADDSUBPD X11, X10, X10
	VMOVUPD   (R8)(BX*1), X4
	VSHUFPD   $1, X4, X4, X5
	VMOVDDUP  X8, X6
	VSHUFPD   $3, X8, X8, X7
	VMULPD    X6, X4, X4
	VMULPD    X7, X5, X5
	VADDSUBPD X5, X4, X4
	LEAQ      (R8)(R9*1), DX
	VMOVUPD   (DX)(BX*1), X9
	VSHUFPD   $1, X9, X9, X12
	VMOVDDUP  X10, X6
	VSHUFPD   $3, X10, X10, X7
	VMULPD    X6, X9, X9
	VMULPD    X7, X12, X12
	VADDSUBPD X12, X9, X9
	VADDPD    X9, X4, X4
	VMOVUPD   (DI)(BX*1), X11
	VADDPD    X4, X11, X11
	VMOVUPD   X11, (DI)(BX*1)

gtpskip:
	ADDQ $32, SI
	LEAQ (R8)(R9*2), R8
	SUBQ $2, CX
	JMP  gtpair

gtsingle:
	TESTQ     CX, CX
	JLE       gtrowend
	VMOVUPD   (SI), X5
	VXORPD    X4, X4, X4
	VCMPPD    $0, X4, X5, X4
	VMOVMSKPD X4, AX
	CMPL      AX, $3
	JE        gtrowend
	// av *= alpha (exact Go tree), broadcast
	VMOVDDUP    X5, X8
	VSHUFPD     $3, X5, X5, X9
	VMULPD      X14, X8, X8
	VMULPD      X15, X9, X9
	VADDSUBPD   X9, X8, X8
	VMOVDDUP    X8, X0
	VINSERTF128 $1, X0, Y0, Y0
	VSHUFPD     $3, X8, X8, X1
	VINSERTF128 $1, X1, Y1, Y1
	MOVQ        DI, R12
	MOVQ        R8, R13
	MOVQ        R11, DX

gts4:
	CMPQ      DX, $4
	JL        gts2
	VMOVUPD   (R13), Y2
	VMOVUPD   32(R13), Y5
	VPERMILPD $0x5, Y2, Y3
	VPERMILPD $0x5, Y5, Y6
	VMULPD    Y0, Y2, Y2
	VMULPD    Y0, Y5, Y5
	VMULPD    Y1, Y3, Y3
	VMULPD    Y1, Y6, Y6
	VADDSUBPD Y3, Y2, Y2
	VADDSUBPD Y6, Y5, Y5
	VMOVUPD   (R12), Y4
	VMOVUPD   32(R12), Y7
	VADDPD    Y2, Y4, Y4
	VADDPD    Y5, Y7, Y7
	VMOVUPD   Y4, (R12)
	VMOVUPD   Y7, 32(R12)
	ADDQ      $64, R13
	ADDQ      $64, R12
	SUBQ      $4, DX
	JMP       gts4

gts2:
	TESTQ     DX, DX
	JLE       gtstail
	VMOVUPD   (R13), Y2
	VPERMILPD $0x5, Y2, Y3
	VMULPD    Y0, Y2, Y2
	VMULPD    Y1, Y3, Y3
	VADDSUBPD Y3, Y2, Y2
	VMOVUPD   (R12), Y4
	VADDPD    Y2, Y4, Y4
	VMOVUPD   Y4, (R12)

gtstail:
	CMPQ      R11, R10
	JE        gtrowend
	VMOVUPD   (R8)(BX*1), X4
	VSHUFPD   $1, X4, X4, X5
	VMOVDDUP  X8, X6
	VSHUFPD   $3, X8, X8, X7
	VMULPD    X6, X4, X4
	VMULPD    X7, X5, X5
	VADDSUBPD X5, X4, X4
	VMOVUPD   (DI)(BX*1), X11
	VADDPD    X4, X11, X11
	VMOVUPD   X11, (DI)(BX*1)


gtrowend:
	DECQ left-16(SP)
	JLE  gtdone
	ADDQ R9, DI
	MOVQ lda+32(FP), AX
	SHLQ $4, AX
	MOVQ arow-8(SP), SI
	ADDQ AX, SI
	JMP  gtrow

gtdone:
	VZEROUPPER

gtret:
	RET
