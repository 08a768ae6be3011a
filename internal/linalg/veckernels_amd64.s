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

// Lane kernels. A lane-matrix element is 64 bytes: the Lanes real parts,
// then the Lanes imaginary parts, one ymm vector each. A complex product
// x·y is four VMULPDs and a VSUBPD/VADDPD pair — xr·yr − xi·yi and
// xr·yi + xi·yr, the Go tree in every lane — with no shuffle. An update's
// lane mask is VCMPPD $4 (not-equal, unordered: a NaN is nonzero) of its
// multipliers against zero. An empty mask skips the update; a full one,
// nearly every update, runs a loop that stores each sum as is; only a
// partial one runs the loop that keeps an unselected lane's old row
// through VBLENDVPD. Both loops run one element body, a #define. A loop
// index the full-mask branch needs zeroed is zeroed by XORQ after the
// branch, whose flags XORQ would clobber (Go's compiler turns MOV $0 into
// XOR where flags are dead; this assembler keeps MOVL $0 a MOV).

// LANEMUL(tmp): Y8 + i·Y9 = (Y0 + i·Y1)·(Y4 + i·Y5); tmp is clobbered.
#define LANEMUL(tmp) \
	VMULPD Y0, Y4, Y8; \
	VMULPD Y1, Y5, Y9; \
	VSUBPD Y9, Y8, Y8; \
	VMULPD Y0, Y5, Y9; \
	VMULPD Y1, Y4, tmp; \
	VADDPD tmp, Y9, Y9

// LANEMUL2: Y8 + i·Y9 = (Y0 + i·Y1)·(Y4 + i·Y5) + (Y2 + i·Y3)·(Y6 + i·Y7),
// the two products summed as the reference sums a pair; Y4, Y10 and Y11
// are clobbered.
#define LANEMUL2 \
	LANEMUL(Y10); \
	VMULPD Y2, Y6, Y10; \
	VMULPD Y3, Y7, Y11; \
	VSUBPD Y11, Y10, Y10; \
	VMULPD Y2, Y7, Y11; \
	VMULPD Y3, Y6, Y4; \
	VADDPD Y4, Y11, Y11; \
	VADDPD Y10, Y8, Y8; \
	VADDPD Y11, Y9, Y9

// LGPAIR: one element of a GEMM pair update, dst + s0·b0 + s1·b1 into Y8,
// Y9 and the old dst into Y4, Y5.
#define LGPAIR \
	VMOVUPD (R13), Y4; \
	VMOVUPD 32(R13), Y5; \
	VMOVUPD (R14), Y6; \
	VMOVUPD 32(R14), Y7; \
	LANEMUL2; \
	VMOVUPD (R12), Y4; \
	VMOVUPD 32(R12), Y5; \
	VADDPD  Y8, Y4, Y8; \
	VADDPD  Y9, Y5, Y9

// LGSINGLE: one element of the odd k's update, dst + s0·b0 likewise.
#define LGSINGLE \
	VMOVUPD (R13), Y4; \
	VMOVUPD 32(R13), Y5; \
	LANEMUL(Y10); \
	VMOVUPD (R12), Y4; \
	VMOVUPD 32(R12), Y5; \
	VADDPD  Y8, Y4, Y8; \
	VADDPD  Y9, Y5, Y9

// func avxLaneGemmTile(dst, a, b *float64, rows, lda, kLen, p, w int, alpha complex128)
TEXT ·avxLaneGemmTile(SB), NOSPLIT, $0-80
	MOVQ         rows+24(FP), R11
	TESTQ        R11, R11
	JLE          lgret
	MOVQ         dst+0(FP), DI
	MOVQ         a+8(FP), BX
	MOVQ         p+48(FP), R9
	SHLQ         $6, R9
	MOVQ         w+56(FP), R10
	VBROADCASTSD alpha_real+64(FP), Y14
	VBROADCASTSD alpha_imag+72(FP), Y15
	VXORPD       Y13, Y13, Y13

lgrow:
	// DI = dst row, SI = a[i, l], R8 = b row l, CX = l left
	MOVQ BX, SI
	MOVQ b+16(FP), R8
	MOVQ kLen+40(FP), CX

lgpair:
	CMPQ      CX, $2
	JL        lgsingle
	VMOVUPD   (SI), Y4
	VMOVUPD   32(SI), Y5
	VMOVUPD   64(SI), Y6
	VMOVUPD   96(SI), Y7
	VCMPPD    $4, Y13, Y4, Y8
	VCMPPD    $4, Y13, Y5, Y9
	VORPD     Y9, Y8, Y8
	VCMPPD    $4, Y13, Y6, Y9
	VORPD     Y9, Y8, Y8
	VCMPPD    $4, Y13, Y7, Y9
	VORPD     Y9, Y8, Y12
	VMOVMSKPD Y12, AX
	TESTL     AX, AX
	JE        lgpskip

	// s0 = a0·alpha, s1 = a1·alpha
	VMULPD Y14, Y4, Y0
	VMULPD Y15, Y5, Y8
	VSUBPD Y8, Y0, Y0
	VMULPD Y15, Y4, Y1
	VMULPD Y14, Y5, Y8
	VADDPD Y8, Y1, Y1
	VMULPD Y14, Y6, Y2
	VMULPD Y15, Y7, Y8
	VSUBPD Y8, Y2, Y2
	VMULPD Y15, Y6, Y3
	VMULPD Y14, Y7, Y8
	VADDPD Y8, Y3, Y3
	MOVQ   DI, R12
	MOVQ   R8, R13
	LEAQ   (R8)(R9*1), R14
	MOVQ   R10, DX
	CMPL   AX, $15
	JE     lgpf

lgpj:
	TESTQ     DX, DX
	JLE       lgpskip
	LGPAIR
	VBLENDVPD Y12, Y8, Y4, Y8
	VBLENDVPD Y12, Y9, Y5, Y9
	VMOVUPD   Y8, (R12)
	VMOVUPD   Y9, 32(R12)
	ADDQ      $64, R12
	ADDQ      $64, R13
	ADDQ      $64, R14
	DECQ      DX
	JMP       lgpj

lgpf:
	TESTQ   DX, DX
	JLE     lgpskip
	LGPAIR
	VMOVUPD Y8, (R12)
	VMOVUPD Y9, 32(R12)
	ADDQ    $64, R12
	ADDQ    $64, R13
	ADDQ    $64, R14
	DECQ    DX
	JMP     lgpf

lgpskip:
	ADDQ $128, SI
	LEAQ (R8)(R9*2), R8
	SUBQ $2, CX
	JMP  lgpair

lgsingle:
	TESTQ     CX, CX
	JLE       lgrowend
	VMOVUPD   (SI), Y4
	VMOVUPD   32(SI), Y5
	VCMPPD    $4, Y13, Y4, Y8
	VCMPPD    $4, Y13, Y5, Y9
	VORPD     Y9, Y8, Y12
	VMOVMSKPD Y12, AX
	TESTL     AX, AX
	JE        lgrowend
	VMULPD    Y14, Y4, Y0
	VMULPD    Y15, Y5, Y8
	VSUBPD    Y8, Y0, Y0
	VMULPD    Y15, Y4, Y1
	VMULPD    Y14, Y5, Y8
	VADDPD    Y8, Y1, Y1
	MOVQ      DI, R12
	MOVQ      R8, R13
	MOVQ      R10, DX
	CMPL      AX, $15
	JE        lgsf

lgsj:
	TESTQ     DX, DX
	JLE       lgrowend
	LGSINGLE
	VBLENDVPD Y12, Y8, Y4, Y8
	VBLENDVPD Y12, Y9, Y5, Y9
	VMOVUPD   Y8, (R12)
	VMOVUPD   Y9, 32(R12)
	ADDQ      $64, R12
	ADDQ      $64, R13
	DECQ      DX
	JMP       lgsj

lgsf:
	TESTQ   DX, DX
	JLE     lgrowend
	LGSINGLE
	VMOVUPD Y8, (R12)
	VMOVUPD Y9, 32(R12)
	ADDQ    $64, R12
	ADDQ    $64, R13
	DECQ    DX
	JMP     lgsf

lgrowend:
	DECQ R11
	JLE  lgdone
	ADDQ R9, DI
	MOVQ lda+32(FP), AX
	SHLQ $6, AX
	ADDQ AX, BX
	JMP  lgrow

lgdone:
	VZEROUPPER

lgret:
	RET

// LFROW: one element of a factor row update at byte AX past the column,
// row − m·row k into Y8, Y9 and the old row into Y6, Y7.
#define LFROW \
	VMOVUPD (R12)(AX*1), Y4; \
	VMOVUPD 32(R12)(AX*1), Y5; \
	LANEMUL(Y2); \
	VMOVUPD 64(R13)(AX*1), Y6; \
	VMOVUPD 96(R13)(AX*1), Y7; \
	VSUBPD  Y8, Y6, Y8; \
	VSUBPD  Y9, Y7, Y9

// func avxLaneFactor(d *float64, n, k int, piv *int, live int, c, pivInv *float64) int
// The lane factor (laneFactorInPlace) from column k on, for as long as |z|²
// decides the pivot of every lane of live (lanePivots' rule; c holds sqLo,
// sqHi, 1−sqBand, 1 and −1). Each such column, in every live lane: the
// argmax of re²+im² over rows k…n−1 into piv[l·n+k], that row swapped with
// row k across the whole row, 1/u_kk as runtime.complex128div forms 1/z
// (Smith's branch on |re| ≥ |im| through a blend, the 0·ratio and 0 − ratio
// terms computed as written) stored on the diagonal, and then the column
// update of avxFactorColUpdate. A lane outside live takes piv = k and a
// zero reciprocal pivot, and keeps its diagonal. It returns the first
// column where some live lane's pivot is Go's — a tie inside the band, a
// modulus out of range, a NaN, a zero column — or n. A non-nil pivInv (the
// Lanes real parts, then the Lanes imaginary parts) means Go has already
// pivoted column k: the kernel starts at its update.
//
// GPRs: DI d, R11 n, CX k, R8 piv, BX live, SI c, R9 bytes per row, R12
// the diagonal element (row k past the column in the update).
// Y15 the live lanes' mask, Y14/Y13 the reciprocal pivots, Y12 zero, Y10 1.
TEXT ·avxLaneFactor(SB), NOSPLIT, $64-64
	MOVQ d+0(FP), DI
	MOVQ n+8(FP), R11
	MOVQ k+16(FP), CX
	MOVQ piv+24(FP), R8
	MOVQ live+32(FP), BX
	MOVQ c+40(FP), SI
	MOVQ R11, R9
	SHLQ $6, R9

	// Y15: all ones in the lanes of live
	MOVQ    BX, AX
	ANDQ    $1, AX
	NEGQ    AX
	MOVQ    AX, lm0-64(SP)
	MOVQ    BX, AX
	SHRQ    $1, AX
	ANDQ    $1, AX
	NEGQ    AX
	MOVQ    AX, lm1-56(SP)
	MOVQ    BX, AX
	SHRQ    $2, AX
	ANDQ    $1, AX
	NEGQ    AX
	MOVQ    AX, lm2-48(SP)
	MOVQ    BX, AX
	SHRQ    $3, AX
	ANDQ    $1, AX
	NEGQ    AX
	MOVQ    AX, lm3-40(SP)
	VMOVUPD lm0-64(SP), Y15
	ANDQ    $15, BX

	VXORPD       Y12, Y12, Y12
	VBROADCASTSD 24(SI), Y10
	MOVQ         pivInv+48(FP), AX
	TESTQ        AX, AX
	JE           lfcol
	VMOVUPD      (AX), Y14
	VMOVUPD      32(AX), Y13
	MOVQ         CX, AX
	IMULQ        R9, AX
	LEAQ         (DI)(AX*1), R12
	MOVQ         CX, AX
	SHLQ         $6, AX
	ADDQ         AX, R12
	JMP          lfupdate

lfcol:
	CMPQ  CX, R11
	JGE   lfdone
	MOVQ  CX, AX
	IMULQ R9, AX
	LEAQ  (DI)(AX*1), R14 // row k
	MOVQ  CX, AX
	SHLQ  $6, AX
	LEAQ  (R14)(AX*1), R12 // the diagonal element

	// Pivot search over rows k…n−1: Y0 the best re²+im², Y1 the second,
	// Y2 the best's row offset, Y3 this row's, Y4 a NaN seen.
	VBROADCASTSD 32(SI), Y0
	VMOVAPD      Y0, Y1
	VXORPD       Y2, Y2, Y2
	VXORPD       Y3, Y3, Y3
	VXORPD       Y4, Y4, Y4
	MOVQ         R12, R13
	MOVQ         R11, DX
	SUBQ         CX, DX

lfscan:
	VMOVUPD   (R13), Y5
	VMOVUPD   32(R13), Y6
	VMULPD    Y5, Y5, Y5
	VMULPD    Y6, Y6, Y6
	VADDPD    Y6, Y5, Y5 // s = re² + im²
	VCMPPD    $3, Y5, Y5, Y6
	VORPD     Y6, Y4, Y4
	VCMPPD    $1, Y5, Y1, Y7 // second < s
	VCMPPD    $1, Y5, Y0, Y6 // best < s
	VBLENDVPD Y7, Y5, Y1, Y1
	VBLENDVPD Y6, Y0, Y1, Y1
	VBLENDVPD Y6, Y5, Y0, Y0
	VBLENDVPD Y6, Y3, Y2, Y2
	VADDPD    Y10, Y3, Y3
	ADDQ      R9, R13
	DECQ      DX
	JNZ       lfscan

	// |z|² decides where sqLo ≤ best ≤ sqHi, second < best·(1−sqBand)
	// and no NaN was seen; every live lane must be decided.
	VBROADCASTSD (SI), Y5
	VCMPPD       $2, Y0, Y5, Y5
	VBROADCASTSD 8(SI), Y6
	VCMPPD       $2, Y6, Y0, Y6
	VANDPD       Y6, Y5, Y5
	VBROADCASTSD 16(SI), Y6
	VMULPD       Y6, Y0, Y6
	VCMPPD       $1, Y6, Y1, Y6
	VANDPD       Y6, Y5, Y5
	VANDNPD      Y5, Y4, Y5
	VMOVMSKPD    Y5, AX
	NOTQ         AX
	ANDQ         BX, AX
	JNZ          lfdone

	// piv[l·n+k] = k + offset, offset 0 outside live
	VANDPD      Y15, Y2, Y2
	VCVTTPD2DQY Y2, X6
	VMOVDQU     X6, pv-32(SP)
	MOVQ        R11, DX
	SHLQ        $3, DX
	LEAQ        (R8)(CX*8), R13
	MOVLQSX     pv-32(SP), AX
	ADDQ        CX, AX
	MOVQ        AX, (R13)
	ADDQ        DX, R13
	MOVLQSX     pv-28(SP), AX
	ADDQ        CX, AX
	MOVQ        AX, (R13)
	ADDQ        DX, R13
	MOVLQSX     pv-24(SP), AX
	ADDQ        CX, AX
	MOVQ        AX, (R13)
	ADDQ        DX, R13
	MOVLQSX     pv-20(SP), AX
	ADDQ        CX, AX
	MOVQ        AX, (R13)

	// Row swaps: row k+i trades places with row k, whole, in the lanes
	// whose offset is i.
	VCMPPD    $4, Y12, Y2, Y6
	VMOVMSKPD Y6, AX
	TESTL     AX, AX
	JE        lfrecip
	VMOVAPD   Y10, Y3
	LEAQ      (R14)(R9*1), R13
	MOVQ      R11, DX
	SUBQ      CX, DX
	DECQ      DX

lfswrow:
	VCMPPD    $0, Y3, Y2, Y7
	VMOVMSKPD Y7, AX
	TESTL     AX, AX
	JE        lfswnext
	XORQ      AX, AX

lfswj:
	VMOVUPD   (R14)(AX*1), Y4
	VMOVUPD   32(R14)(AX*1), Y5
	VMOVUPD   (R13)(AX*1), Y6
	VMOVUPD   32(R13)(AX*1), Y8
	VBLENDVPD Y7, Y6, Y4, Y9
	VMOVUPD   Y9, (R14)(AX*1)
	VBLENDVPD Y7, Y8, Y5, Y9
	VMOVUPD   Y9, 32(R14)(AX*1)
	VBLENDVPD Y7, Y4, Y6, Y9
	VMOVUPD   Y9, (R13)(AX*1)
	VBLENDVPD Y7, Y5, Y8, Y9
	VMOVUPD   Y9, 32(R13)(AX*1)
	ADDQ      $64, AX
	CMPQ      AX, R9
	JL        lfswj

lfswnext:
	VADDPD Y10, Y3, Y3
	ADDQ   R9, R13
	DECQ   DX
	JNZ    lfswrow

lfrecip:
	// 1/u_kk as complex128div(1, u): with x, y = re, im where |re| ≥ |im|
	// and im, re elsewhere, ratio = y/x and denom = x + ratio·y; then
	// e = (1 + 0·ratio)/denom, f = (0 − ratio)/denom on the first branch
	// and e = (ratio + 0)/denom, f = (0·ratio − 1)/denom on the second.
	VMOVUPD      (R12), Y5
	VMOVUPD      32(R12), Y6
	VBROADCASTSD negZero<>(SB), Y11
	VANDNPD      Y5, Y11, Y7
	VANDNPD      Y6, Y11, Y8
	VCMPPD       $2, Y7, Y8, Y9 // |im| ≤ |re|
	VBLENDVPD    Y9, Y5, Y6, Y7
	VBLENDVPD    Y9, Y6, Y5, Y8
	VDIVPD       Y7, Y8, Y0     // ratio
	VMULPD       Y8, Y0, Y1
	VADDPD       Y1, Y7, Y1     // denom
	VMULPD       Y0, Y12, Y2    // 0·ratio
	VADDPD       Y2, Y10, Y3    // 1 + 0·ratio
	VADDPD       Y12, Y0, Y4    // ratio + 0
	VBLENDVPD    Y9, Y3, Y4, Y3
	VSUBPD       Y0, Y12, Y4    // 0 − ratio
	VSUBPD       Y10, Y2, Y2    // 0·ratio − 1
	VBLENDVPD    Y9, Y4, Y2, Y4
	VDIVPD       Y1, Y3, Y14
	VDIVPD       Y1, Y4, Y13
	VANDPD       Y15, Y14, Y14
	VANDPD       Y15, Y13, Y13
	VBLENDVPD    Y15, Y14, Y5, Y5
	VBLENDVPD    Y15, Y13, Y6, Y6
	VMOVUPD      Y5, (R12)
	VMOVUPD      Y6, 32(R12)

lfupdate:
	// For each row below k: m = col·pivInv stored back, and the row past
	// the column −= m·row k in the lanes where m ≠ 0.
	LEAQ (R12)(R9*1), R13
	ADDQ $64, R12
	MOVQ R11, DX
	SUBQ CX, DX
	DECQ DX
	MOVQ DX, R10
	SHLQ $6, R10

lfrow:
	TESTQ     DX, DX
	JLE       lfnext
	VMOVUPD   (R13), Y4
	VMOVUPD   32(R13), Y5
	VMULPD    Y14, Y4, Y0
	VMULPD    Y13, Y5, Y8
	VSUBPD    Y8, Y0, Y0
	VMULPD    Y13, Y4, Y1
	VMULPD    Y14, Y5, Y8
	VADDPD    Y8, Y1, Y1
	VMOVUPD   Y0, (R13)
	VMOVUPD   Y1, 32(R13)
	VCMPPD    $4, Y12, Y0, Y8
	VCMPPD    $4, Y12, Y1, Y9
	VORPD     Y9, Y8, Y11
	VMOVMSKPD Y11, AX
	TESTL     AX, AX
	JE        lfskip
	CMPL      AX, $15
	JE        lffull
	XORQ      AX, AX // after the JE: XORQ clobbers the flags it reads

lfj:
	LFROW
	VBLENDVPD Y11, Y8, Y6, Y8
	VBLENDVPD Y11, Y9, Y7, Y9
	VMOVUPD   Y8, 64(R13)(AX*1)
	VMOVUPD   Y9, 96(R13)(AX*1)
	ADDQ      $64, AX
	CMPQ      AX, R10
	JL        lfj
	JMP       lfskip // lfj is a do-while: do not fall into lff

lffull:
	XORQ AX, AX

lff:
	LFROW
	VMOVUPD Y8, 64(R13)(AX*1)
	VMOVUPD Y9, 96(R13)(AX*1)
	ADDQ    $64, AX
	CMPQ    AX, R10
	JL      lff

lfskip:
	ADDQ R9, R13
	DECQ DX
	JMP  lfrow

lfnext:
	INCQ CX
	JMP  lfcol

lfdone:
	MOVQ CX, ret+56(FP)
	VZEROUPPER
	RET

// func avxLaneMaxAbs(d *float64, elems int, mx *float64) int
// mx[l] = the largest |re| or |im| of lane l over elems elements (+0 when
// there are none), the sign cleared by an and-not with the sign mask; it
// returns the mask of lanes in which some part was NaN, whose mx is
// whatever VMAXPD kept.
TEXT ·avxLaneMaxAbs(SB), NOSPLIT, $0-32
	MOVQ         d+0(FP), DI
	MOVQ         elems+8(FP), CX
	VBROADCASTSD negZero<>(SB), Y15
	VXORPD       Y0, Y0, Y0
	VXORPD       Y1, Y1, Y1
	VXORPD       Y2, Y2, Y2
	TESTQ        CX, CX
	JLE          lmdone

lmloop:
	VANDNPD (DI), Y15, Y4
	VANDNPD 32(DI), Y15, Y5
	VCMPPD  $3, Y5, Y4, Y6
	VORPD   Y6, Y2, Y2
	VMAXPD  Y4, Y0, Y0
	VMAXPD  Y5, Y1, Y1
	ADDQ    $64, DI
	DECQ    CX
	JNZ     lmloop

lmdone:
	VMAXPD    Y1, Y0, Y0
	MOVQ      mx+16(FP), AX
	VMOVUPD   Y0, (AX)
	VMOVMSKPD Y2, AX
	MOVQ      AX, ret+24(FP)
	VZEROUPPER
	RET

// LSPAIR: one element of a solve pair update at byte AX of the rows, row
// i − (m0·r0 + m1·r1) into Y8, Y9 and the old row i into Y4, Y5.
#define LSPAIR \
	VMOVUPD (R13)(AX*1), Y4; \
	VMOVUPD 32(R13)(AX*1), Y5; \
	VMOVUPD (R14)(AX*1), Y6; \
	VMOVUPD 32(R14)(AX*1), Y7; \
	LANEMUL2; \
	VMOVUPD (R12)(AX*1), Y4; \
	VMOVUPD 32(R12)(AX*1), Y5; \
	VSUBPD  Y8, Y4, Y8; \
	VSUBPD  Y9, Y5, Y9

// LSSINGLE: one element of the lone trailing k's update likewise.
#define LSSINGLE \
	VMOVUPD (R13)(AX*1), Y4; \
	VMOVUPD 32(R13)(AX*1), Y5; \
	LANEMUL(Y10); \
	VMOVUPD (R12)(AX*1), Y4; \
	VMOVUPD 32(R12)(AX*1), Y5; \
	VSUBPD  Y8, Y4, Y8; \
	VSUBPD  Y9, Y5, Y9

// func avxLaneLuSolve(b, lu *float64, n, nrhs, floor int, piv *int, live int)
// First each lane of live swaps its rows of b as piv[l·n : (l+1)·n] says,
// k ascending. Then, forward, i = 1 … n−1: row i −= Σ_{k<i} lu[i,k]·row k.
// Back, i = n−1 … floor: row i −= Σ_{k>i} lu[i,k]·row k, then row i ·=
// lu[i,i]. Both sweeps run one update loop (lsupd): R12 row i, R8 its first
// multiplier, R13 the first row it reads, DX the multipliers left; phase
// picks the way back. R10 holds the floor.
TEXT ·avxLaneLuSolve(SB), NOSPLIT, $8-56
	MOVQ b+0(FP), DI
	MOVQ n+16(FP), R11
	MOVQ nrhs+24(FP), R9
	SHLQ $6, R9        // bytes per row of b
	MOVQ piv+40(FP), R8
	MOVQ live+48(FP), BX
	XORQ DX, DX        // lane l's byte offset in an element

lsswl:
	CMPQ  DX, $32
	JGE   lsswdone
	TESTQ $1, BX
	JE    lsswnext
	XORQ  CX, CX

lsswk:
	CMPQ  CX, R11
	JGE   lsswnext
	MOVQ  (R8)(CX*8), AX
	CMPQ  AX, CX
	JE    lsswkn
	IMULQ R9, AX
	LEAQ  (DI)(AX*1), R12
	ADDQ  DX, R12
	MOVQ  CX, AX
	IMULQ R9, AX
	LEAQ  (DI)(AX*1), R13
	ADDQ  DX, R13
	MOVQ  nrhs+24(FP), R14

lsswj:
	MOVQ (R12), AX
	MOVQ (R13), SI
	MOVQ SI, (R12)
	MOVQ AX, (R13)
	MOVQ 32(R12), AX
	MOVQ 32(R13), SI
	MOVQ SI, 32(R12)
	MOVQ AX, 32(R13)
	ADDQ $64, R12
	ADDQ $64, R13
	DECQ R14
	JNZ  lsswj

lsswkn:
	INCQ CX
	JMP  lsswk

lsswnext:
	SHRQ $1, BX
	LEAQ (R8)(R11*8), R8
	ADDQ $8, DX
	JMP  lsswl

lsswdone:
	MOVQ   lu+8(FP), SI
	MOVQ   floor+32(FP), R10
	MOVQ   R11, BX
	SHLQ   $6, BX  // bytes per row of lu
	VXORPD Y13, Y13, Y13
	MOVQ   $0, phase-8(SP)
	MOVQ   $1, CX

lsnextf:
	CMPQ  CX, R11
	JGE   lsback
	MOVQ  CX, AX
	IMULQ R9, AX
	LEAQ  (DI)(AX*1), R12
	MOVQ  CX, AX
	IMULQ BX, AX
	LEAQ  (SI)(AX*1), R8
	MOVQ  DI, R13
	MOVQ  CX, DX
	JMP   lsupd

lsback:
	MOVQ $1, phase-8(SP)
	MOVQ R11, CX
	DECQ CX

lsnextb:
	CMPQ  CX, R10
	JL    lsdone
	MOVQ  CX, AX
	IMULQ R9, AX
	LEAQ  (DI)(AX*1), R12
	MOVQ  CX, AX
	IMULQ BX, AX
	LEAQ  (SI)(AX*1), R8
	LEAQ  1(CX), AX
	SHLQ  $6, AX
	ADDQ  AX, R8
	LEAQ  1(CX), AX
	IMULQ R9, AX
	LEAQ  (DI)(AX*1), R13
	MOVQ  R11, DX
	SUBQ  CX, DX
	DECQ  DX

lsupd:
	CMPQ      DX, $2
	JL        lssingle
	VMOVUPD   (R8), Y0
	VMOVUPD   32(R8), Y1
	VMOVUPD   64(R8), Y2
	VMOVUPD   96(R8), Y3
	VCMPPD    $4, Y13, Y0, Y8
	VCMPPD    $4, Y13, Y1, Y9
	VORPD     Y9, Y8, Y8
	VCMPPD    $4, Y13, Y2, Y9
	VORPD     Y9, Y8, Y8
	VCMPPD    $4, Y13, Y3, Y9
	VORPD     Y9, Y8, Y12
	VMOVMSKPD Y12, AX
	TESTL     AX, AX
	JE        lspskip
	LEAQ      (R13)(R9*1), R14
	CMPL      AX, $15
	JE        lspfull
	XORQ      AX, AX // after the JE: XORQ clobbers the flags it reads

lspj:
	CMPQ      AX, R9
	JGE       lspskip
	LSPAIR
	VBLENDVPD Y12, Y8, Y4, Y8
	VBLENDVPD Y12, Y9, Y5, Y9
	VMOVUPD   Y8, (R12)(AX*1)
	VMOVUPD   Y9, 32(R12)(AX*1)
	ADDQ      $64, AX
	JMP       lspj

lspfull:
	XORQ AX, AX

lspf:
	CMPQ    AX, R9
	JGE     lspskip
	LSPAIR
	VMOVUPD Y8, (R12)(AX*1)
	VMOVUPD Y9, 32(R12)(AX*1)
	ADDQ    $64, AX
	JMP     lspf

lspskip:
	ADDQ $128, R8
	LEAQ (R13)(R9*2), R13
	SUBQ $2, DX
	JMP  lsupd

lssingle:
	TESTQ     DX, DX
	JLE       lsupddone
	VMOVUPD   (R8), Y0
	VMOVUPD   32(R8), Y1
	VCMPPD    $4, Y13, Y0, Y8
	VCMPPD    $4, Y13, Y1, Y9
	VORPD     Y9, Y8, Y12
	VMOVMSKPD Y12, AX
	TESTL     AX, AX
	JE        lsupddone
	CMPL      AX, $15
	JE        lssfull
	XORQ      AX, AX // after the JE: XORQ clobbers the flags it reads

lssj:
	CMPQ      AX, R9
	JGE       lsupddone
	LSSINGLE
	VBLENDVPD Y12, Y8, Y4, Y8
	VBLENDVPD Y12, Y9, Y5, Y9
	VMOVUPD   Y8, (R12)(AX*1)
	VMOVUPD   Y9, 32(R12)(AX*1)
	ADDQ      $64, AX
	JMP       lssj

lssfull:
	XORQ AX, AX

lssf:
	CMPQ    AX, R9
	JGE     lsupddone
	LSSINGLE
	VMOVUPD Y8, (R12)(AX*1)
	VMOVUPD Y9, 32(R12)(AX*1)
	ADDQ    $64, AX
	JMP     lssf

lsupddone:
	CMPQ phase-8(SP), $0
	JNE  lsscale
	INCQ CX
	JMP  lsnextf

lsscale:
	// row i ·= lu[i,i], the reciprocal pivot
	MOVQ    CX, AX
	IMULQ   BX, AX
	ADDQ    SI, AX
	MOVQ    CX, DX
	SHLQ    $6, DX
	ADDQ    DX, AX
	VMOVUPD (AX), Y0
	VMOVUPD 32(AX), Y1
	XORQ    AX, AX

lsscj:
	CMPQ    AX, R9
	JGE     lsscdone
	VMOVUPD (R12)(AX*1), Y4
	VMOVUPD 32(R12)(AX*1), Y5
	VMULPD  Y0, Y4, Y8
	VMULPD  Y1, Y5, Y9
	VSUBPD  Y9, Y8, Y8
	VMULPD  Y1, Y4, Y9
	VMULPD  Y0, Y5, Y10
	VADDPD  Y10, Y9, Y9
	VMOVUPD Y8, (R12)(AX*1)
	VMOVUPD Y9, 32(R12)(AX*1)
	ADDQ    $64, AX
	JMP     lsscj

lsscdone:
	DECQ CX
	JMP  lsnextb

lsdone:
	VZEROUPPER
	RET
