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
// xr·yi + xi·yr, the Go tree in every lane — with no shuffle. A lane whose
// multiplier (pair) is zero keeps its row through VBLENDVPD on the mask
// VCMPPD $4 (not-equal, unordered: a NaN is nonzero) builds; a row whose
// mask is empty in every lane is skipped outright.

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

lgpj:
	TESTQ     DX, DX
	JLE       lgpskip
	VMOVUPD   (R13), Y4
	VMOVUPD   32(R13), Y5
	VMOVUPD   (R14), Y6
	VMOVUPD   32(R14), Y7
	VMULPD    Y0, Y4, Y8
	VMULPD    Y1, Y5, Y9
	VSUBPD    Y9, Y8, Y8    // s0·b0, real
	VMULPD    Y0, Y5, Y9
	VMULPD    Y1, Y4, Y10
	VADDPD    Y10, Y9, Y9   // s0·b0, imaginary
	VMULPD    Y2, Y6, Y10
	VMULPD    Y3, Y7, Y11
	VSUBPD    Y11, Y10, Y10 // s1·b1, real
	VMULPD    Y2, Y7, Y11
	VMULPD    Y3, Y6, Y4
	VADDPD    Y4, Y11, Y11  // s1·b1, imaginary
	VADDPD    Y10, Y8, Y8
	VADDPD    Y11, Y9, Y9
	VMOVUPD   (R12), Y4
	VMOVUPD   32(R12), Y5
	VADDPD    Y8, Y4, Y8
	VADDPD    Y9, Y5, Y9
	VBLENDVPD Y12, Y8, Y4, Y4
	VBLENDVPD Y12, Y9, Y5, Y5
	VMOVUPD   Y4, (R12)
	VMOVUPD   Y5, 32(R12)
	ADDQ      $64, R12
	ADDQ      $64, R13
	ADDQ      $64, R14
	DECQ      DX
	JMP       lgpj

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

lgsj:
	TESTQ     DX, DX
	JLE       lgrowend
	VMOVUPD   (R13), Y4
	VMOVUPD   32(R13), Y5
	VMULPD    Y0, Y4, Y8
	VMULPD    Y1, Y5, Y9
	VSUBPD    Y9, Y8, Y8
	VMULPD    Y0, Y5, Y9
	VMULPD    Y1, Y4, Y10
	VADDPD    Y10, Y9, Y9
	VMOVUPD   (R12), Y4
	VMOVUPD   32(R12), Y5
	VADDPD    Y8, Y4, Y8
	VADDPD    Y9, Y5, Y9
	VBLENDVPD Y12, Y8, Y4, Y4
	VBLENDVPD Y12, Y9, Y5, Y5
	VMOVUPD   Y4, (R12)
	VMOVUPD   Y5, 32(R12)
	ADDQ      $64, R12
	ADDQ      $64, R13
	DECQ      DX
	JMP       lgsj

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

// func avxLaneFactorCol(col, rowK *float64, rows, stride int, pivInv *float64)
TEXT ·avxLaneFactorCol(SB), NOSPLIT, $0-40
	MOVQ    col+0(FP), DI
	MOVQ    rowK+8(FP), SI
	MOVQ    rows+16(FP), CX
	MOVQ    stride+24(FP), R9
	SHLQ    $6, R9
	MOVQ    pivInv+32(FP), AX
	VMOVUPD (AX), Y14
	VMOVUPD 32(AX), Y15
	VXORPD  Y13, Y13, Y13
	MOVQ    CX, R10 // the row segment is as long as the column

lfrow:
	TESTQ     CX, CX
	JLE       lfdone
	// m = col·pivInv, stored back whatever it is
	VMOVUPD   (DI), Y4
	VMOVUPD   32(DI), Y5
	VMULPD    Y14, Y4, Y0
	VMULPD    Y15, Y5, Y8
	VSUBPD    Y8, Y0, Y0
	VMULPD    Y15, Y4, Y1
	VMULPD    Y14, Y5, Y8
	VADDPD    Y8, Y1, Y1
	VMOVUPD   Y0, (DI)
	VMOVUPD   Y1, 32(DI)
	VCMPPD    $4, Y13, Y0, Y8
	VCMPPD    $4, Y13, Y1, Y9
	VORPD     Y9, Y8, Y12
	VMOVMSKPD Y12, AX
	TESTL     AX, AX
	JE        lfskip
	LEAQ      64(DI), R12
	MOVQ      SI, R13
	MOVQ      R10, DX

lfj:
	TESTQ     DX, DX
	JLE       lfskip
	VMOVUPD   (R13), Y4
	VMOVUPD   32(R13), Y5
	VMULPD    Y0, Y4, Y8
	VMULPD    Y1, Y5, Y9
	VSUBPD    Y9, Y8, Y8
	VMULPD    Y0, Y5, Y9
	VMULPD    Y1, Y4, Y10
	VADDPD    Y10, Y9, Y9
	VMOVUPD   (R12), Y6
	VMOVUPD   32(R12), Y7
	VSUBPD    Y8, Y6, Y8
	VSUBPD    Y9, Y7, Y9
	VBLENDVPD Y12, Y8, Y6, Y6
	VBLENDVPD Y12, Y9, Y7, Y7
	VMOVUPD   Y6, (R12)
	VMOVUPD   Y7, 32(R12)
	ADDQ      $64, R12
	ADDQ      $64, R13
	DECQ      DX
	JMP       lfj

lfskip:
	ADDQ R9, DI
	DECQ CX
	JMP  lfrow

lfdone:
	VZEROUPPER
	RET

// func avxLaneLuSolve(b, lu *float64, n, nrhs int)
// Forward, i = 1 … n−1: row i −= Σ_{k<i} lu[i,k]·row k. Back, i = n−1 … 0:
// row i −= Σ_{k>i} lu[i,k]·row k, then row i ·= lu[i,i]. Both sweeps run
// one update loop (lsupd): R12 row i, R8 its first multiplier, R13 the
// first row it reads, DX the multipliers left; phase picks the way back.
TEXT ·avxLaneLuSolve(SB), NOSPLIT, $8-32
	MOVQ   b+0(FP), DI
	MOVQ   lu+8(FP), SI
	MOVQ   n+16(FP), R11
	MOVQ   nrhs+24(FP), R9
	SHLQ   $6, R9  // bytes per row of b
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
	TESTQ CX, CX
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
	XORQ      AX, AX

lspj:
	CMPQ      AX, R9
	JGE       lspskip
	VMOVUPD   (R13)(AX*1), Y4
	VMOVUPD   32(R13)(AX*1), Y5
	VMOVUPD   (R14)(AX*1), Y6
	VMOVUPD   32(R14)(AX*1), Y7
	VMULPD    Y0, Y4, Y8
	VMULPD    Y1, Y5, Y9
	VSUBPD    Y9, Y8, Y8    // m0·r0, real
	VMULPD    Y0, Y5, Y9
	VMULPD    Y1, Y4, Y10
	VADDPD    Y10, Y9, Y9   // m0·r0, imaginary
	VMULPD    Y2, Y6, Y10
	VMULPD    Y3, Y7, Y11
	VSUBPD    Y11, Y10, Y10 // m1·r1, real
	VMULPD    Y2, Y7, Y11
	VMULPD    Y3, Y6, Y4
	VADDPD    Y4, Y11, Y11  // m1·r1, imaginary
	VADDPD    Y10, Y8, Y8
	VADDPD    Y11, Y9, Y9
	VMOVUPD   (R12)(AX*1), Y4
	VMOVUPD   32(R12)(AX*1), Y5
	VSUBPD    Y8, Y4, Y8
	VSUBPD    Y9, Y5, Y9
	VBLENDVPD Y12, Y8, Y4, Y4
	VBLENDVPD Y12, Y9, Y5, Y5
	VMOVUPD   Y4, (R12)(AX*1)
	VMOVUPD   Y5, 32(R12)(AX*1)
	ADDQ      $64, AX
	JMP       lspj

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
	XORQ      AX, AX

lssj:
	CMPQ      AX, R9
	JGE       lsupddone
	VMOVUPD   (R13)(AX*1), Y4
	VMOVUPD   32(R13)(AX*1), Y5
	VMULPD    Y0, Y4, Y8
	VMULPD    Y1, Y5, Y9
	VSUBPD    Y9, Y8, Y8
	VMULPD    Y0, Y5, Y9
	VMULPD    Y1, Y4, Y10
	VADDPD    Y10, Y9, Y9
	VMOVUPD   (R12)(AX*1), Y4
	VMOVUPD   32(R12)(AX*1), Y5
	VSUBPD    Y8, Y4, Y8
	VSUBPD    Y9, Y5, Y9
	VBLENDVPD Y12, Y8, Y4, Y4
	VBLENDVPD Y12, Y9, Y5, Y5
	VMOVUPD   Y4, (R12)(AX*1)
	VMOVUPD   Y5, 32(R12)(AX*1)
	ADDQ      $64, AX
	JMP       lssj

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
