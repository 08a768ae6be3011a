package linalg

// This file is the batched kernel layer of the solve path: every Batch*
// routine applies the corresponding per-matrix kernel to each element of a
// batch — typically views into one contiguous Panel — in batch order.
//
// The batched forms call the same kernels as the looped path rather than
// fusing arithmetic across the batch, so results and reported flops are
// bitwise-identical to the width-1 path by construction (DESIGN.md §14).
// What the batch layer adds is memory behavior — panel-packed operands,
// workspace-pooled factors and pivots, zero per-element allocation.

// BatchGemmInto applies dst[j] = alpha·opA(a[j])·opB(b[j]) + beta·dst[j]
// for every batch element. The three slices must have equal length; shape
// rules per element are those of GemmInto.
func BatchGemmInto(dst []*Matrix, alpha complex128, a []*Matrix, opA Op, b []*Matrix, opB Op, beta complex128) {
	if len(dst) != len(a) || len(dst) != len(b) {
		panic("linalg: batch width mismatch in BatchGemmInto")
	}
	for j := range dst {
		GemmInto(dst[j], alpha, a[j], opA, b[j], opB, beta)
	}
}

// BatchMul3Into applies dst[j] = opA(a[j])·opB(b[j])·opC(c[j]) for every
// batch element, sharing one workspace temporary across the batch.
func BatchMul3Into(dst []*Matrix, a []*Matrix, opA Op, b []*Matrix, opB Op, c []*Matrix, opC Op, ws *Workspace) {
	if len(dst) != len(a) || len(dst) != len(b) || len(dst) != len(c) {
		panic("linalg: batch width mismatch in BatchMul3Into")
	}
	for j := range dst {
		Mul3Into(dst[j], a[j], opA, b[j], opB, c[j], opC, ws)
	}
}

// BatchShiftedNegInto applies dst[j] = zs[j]·I − m for every batch
// element: the batched resolvent assembly, reading the shared Hamiltonian
// block m once per batch. dst[j] may alias m only at width 1.
func BatchShiftedNegInto(dst []*Matrix, m *Matrix, zs []complex128) {
	if len(dst) != len(zs) {
		panic("linalg: batch width mismatch in BatchShiftedNegInto")
	}
	for j := range dst {
		ShiftedNegInto(dst[j], m, zs[j])
	}
}

// BatchAddScaled applies dst[j] += s·b for every batch element, reading
// the shared block b once per batch.
func BatchAddScaled(dst []*Matrix, b *Matrix, s complex128) {
	for j := range dst {
		dst[j].AddScaled(b, s)
	}
}

// BatchTraceMulConj writes Tr[a[j]·b[j]†] into dst[j] for every batch
// element — the batched Caroli trace reduction.
func BatchTraceMulConj(dst []complex128, a, b []*Matrix) {
	if len(dst) != len(a) || len(dst) != len(b) {
		panic("linalg: batch width mismatch in BatchTraceMulConj")
	}
	for j := range a {
		dst[j] = TraceMulConj(a[j], b[j])
	}
}

// BatchDiagMulConjInto writes diag(x[j]·g[j]·x[j]†) into dst[j] for every
// batch element — the batched spectral-diagonal reduction.
func BatchDiagMulConjInto(dst [][]complex128, x, g []*Matrix, ws *Workspace) {
	if len(dst) != len(x) || len(dst) != len(g) {
		panic("linalg: batch width mismatch in BatchDiagMulConjInto")
	}
	for j := range x {
		DiagMulConjInto(dst[j], x[j], g[j], ws)
	}
}

// BatchFactorInPlace factors every batch element in place (as[j] becomes
// its packed LU), drawing pivot storage from ws. The returned
// factorizations share one backing array and reference the callers'
// matrices; hand them back with BatchReleaseLU before releasing ws so the
// pivot slices return to the free list instead of leaking. A nil as[j] is
// skipped (its LU stays zero) — the batch-scheduler convention for
// elements already failed upstream. errs[j] is non-nil where the element
// was singular; the survivors are still factored.
func BatchFactorInPlace(as []*Matrix, ws *Workspace) (lus []LU, errs []error) {
	lus = make([]LU, len(as))
	errs = make([]error, len(as))
	for j, a := range as {
		if a == nil {
			continue
		}
		piv := ws.GetInts(a.Rows)
		sign, err := factorInPlace(a, piv)
		if err != nil {
			ws.PutInts(piv)
			errs[j] = err
			continue
		}
		lus[j] = LU{lu: a, piv: piv, sign: sign}
	}
	return lus, errs
}

// BatchReleaseLU returns the pivot storage of a BatchFactorInPlace result
// to ws. Elements that never factored (nil input or singular) are skipped.
func BatchReleaseLU(lus []LU, ws *Workspace) {
	for j := range lus {
		if lus[j].lu == nil {
			continue
		}
		ws.PutInts(lus[j].piv)
		lus[j] = LU{}
	}
}

// BatchSolveInto applies fs[j]: dst[j] ← A_j⁻¹·b[j] for every batch
// element (dst[j] may alias b[j]). Elements whose factorization is absent
// (zero LU) are skipped.
func BatchSolveInto(fs []LU, dst, b []*Matrix) {
	if len(fs) != len(dst) || len(fs) != len(b) {
		panic("linalg: batch width mismatch in BatchSolveInto")
	}
	for j := range fs {
		if fs[j].lu == nil {
			continue
		}
		fs[j].SolveInto(dst[j], b[j])
	}
}

// BatchInverseInto applies dst[j] = a[j]⁻¹ for every batch element via
// workspace scratch. A nil a[j] is skipped; errs[j] reports the singular
// elements while the survivors are still inverted.
func BatchInverseInto(dst, a []*Matrix, ws *Workspace) (errs []error) {
	if len(dst) != len(a) {
		panic("linalg: batch width mismatch in BatchInverseInto")
	}
	errs = make([]error, len(a))
	for j := range a {
		if a[j] == nil {
			continue
		}
		errs[j] = InverseInto(dst[j], a[j], ws)
	}
	return errs
}
