package sparse

import (
	"math"
	"math/cmplx"
	"sync"

	"repro/internal/linalg"
	"repro/internal/perf"
)

// InteriorGuard is the threshold of the one interior elimination, Layer's.
// Eliminating a layer's interior I divides by the distance δ from Re z to a
// level λ of H[I,I]: the eliminated layer carries a pole of size 1/δ and an
// absolute error of ε/δ², so within ~√ε of a level it loses the digits a
// whole-layer solve keeps. An energy with min|z − λ| < InteriorGuard·max|z − λ|
// keeps the layer whole instead — the same kernel with an empty interior —
// and the choice is a function of (block, z) alone. negf's
// TestAdversarialEnergies (the lead's decimation) and wavefunction's
// TestReducedAdversarialEnergies (the reduced open system) park Re z on every
// interior level and set it: both read 0 failures from 1e-4 up, the smallest
// such guard, and so the one that keeps the fewest layers whole.
const InteriorGuard = 1e-4

// Layer is one Hermitian layer block h split on a support S — the orbitals
// anything outside the layer reads, ascending — and its interior I, every
// other orbital, which it eliminates through the eigenpairs of
// h[I,I] = V·Λ·V†, computed once: with W = V†·h[I,S] and d = 1/(z − λ),
//
//	M(z) = z − h[S,S] − W†·diag(d)·W,   x_I = V·diag(d)·W·x_S
//
// are the layer as a solve that reads only S sees it and the interior of a
// solution; V is unitary, so a sum over the interior's orbitals of a form in
// x_I reads y = diag(d)·W·x_S instead (Reduced.Interior), and only W is
// kept. An energy the guard (InteriorGuard) rejects keeps the layer
// whole: M = z − h on S, then I — Whole's M. Either way S comes first, so
// Pos has one answer for both. Building a Layer counts no flop: it is
// set-up, not the work of the task that happens to trigger it.
type Layer struct {
	h      *linalg.Matrix
	sup    []int
	rank   []int // where each orbital sits in the order S, then I
	keep   []int // the orbitals M runs on, in its row order
	hKK    linalg.Matrix
	in     []int
	lambda []float64
	w, wh  linalg.Matrix // W = V†·h[I,keep] and W†, V the eigenvectors of h[I,I]
	whole  *Layer        // this layer with an empty interior; itself when I is empty

	// whLanes and wLanes are W† and W in every lane, built by the first
	// lane call.
	lanesOnce       sync.Once
	whLanes, wLanes *linalg.LaneMatrix
}

// NewLayer splits the Hermitian block h on sup, ascending orbitals of h, and
// eliminates the rest: the eigendecomposition and W are set-up, and count no
// flop. Every block lives on one slab — a reduced system builds its layers
// once per Hamiltonian, every SCF iteration, and a lead once per family.
// h must not change once the layer is built.
func NewLayer(h *linalg.Matrix, sup []int) (*Layer, error) {
	n, s := h.Rows, len(sup)
	idx := make([]int, 2*n)
	rank, keep := idx[:n], append(idx[n:n], sup...)
	for o := range rank {
		rank[o] = -1
	}
	for p, o := range sup {
		rank[o] = p
	}
	for o, p := range rank {
		if p < 0 {
			rank[o] = len(keep)
			keep = append(keep, o)
		}
	}
	in := keep[s:]
	ni, whole := len(in), 0
	if ni > 0 {
		whole = n * n
	}
	slab := make([]complex128, s*s+ni*ni+3*ni*s+whole)
	take := func(rows, cols int) linalg.Matrix {
		m := linalg.Matrix{Rows: rows, Cols: cols, Data: slab[: rows*cols : rows*cols]}
		slab = slab[rows*cols:]
		return m
	}
	gather := func(rows, cols []int) linalg.Matrix {
		m := take(len(rows), len(cols))
		Gather(&m, h, rows, cols)
		return m
	}
	l := &Layer{h: h, sup: sup, rank: rank, keep: keep[:s:s], hKK: gather(sup, sup), in: in}
	hII := gather(in, in)
	eig, err := linalg.EigHSetup(&hII)
	if err != nil {
		return nil, err
	}
	l.lambda = eig.Values
	// W = V†·H[I,S], by hand: GemmInto would count it.
	hIS := gather(in, sup)
	l.w, l.wh = take(ni, s), take(s, ni)
	for q := 0; q < ni; q++ {
		for p := 0; p < s; p++ {
			var acc complex128
			for k := 0; k < ni; k++ {
				acc += cmplx.Conj(eig.Vectors.Data[k*ni+q]) * hIS.Data[k*s+p]
			}
			l.w.Data[q*s+p] = acc
		}
	}
	linalg.ConjTransposeInto(&l.wh, &l.w)
	l.whole = l
	if ni > 0 {
		l.whole = &Layer{h: h, sup: sup, rank: rank, keep: keep, hKK: gather(keep, keep), w: linalg.Matrix{Cols: n}, wh: linalg.Matrix{Rows: n}}
		l.whole.whole = l.whole
	}
	return l, nil
}

// Whole returns the layer kept whole at every energy: what At falls back to,
// and the reference an elimination is held to.
func (l *Layer) Whole() *Layer { return l.whole }

// Pos returns where each orbital of of, a subset of S, sits in the rows of
// M — the same on both partitions, as S comes first.
func (l *Layer) Pos(of []int) []int {
	out := make([]int, len(of))
	for j, o := range of {
		out[j] = l.rank[o]
	}
	return out
}

// At returns M(z) as ws scratch: s×s on S where the interior is eliminated
// at z, n×n on S then I where the guard keeps the layer whole.
func (l *Layer) At(z complex128, ws *linalg.Workspace) *linalg.Matrix {
	_, m, d := l.at(z, ws)
	ws.Put(d)
	return m
}

// at picks the partition z runs on, l or l.whole, and builds M(z) on it and
// d over its interior (|I|×1), both ws scratch.
func (l *Layer) at(z complex128, ws *linalg.Workspace) (p *Layer, m, d *linalg.Matrix) {
	p = l
	if !l.eliminates(z) {
		p = l.whole
	}
	ni, s := len(p.in), len(p.keep)
	m, d = ws.Get(s, s), ws.Get(ni, 1)
	linalg.ShiftedNegInto(m, &p.hKK, z)
	for q, lv := range p.lambda {
		d.Data[q] = 1 / (z - complex(lv, 0))
	}
	perf.AddFlops(int64(ni) * (perf.FlopsCAdd + perf.FlopsCDiv))
	dw := ws.Get(ni, s)
	linalg.ScaleRowsInto(dw, d.Data, &p.w)
	linalg.GemmInto(m, -1, &p.wh, linalg.NoTrans, dw, linalg.NoTrans, 1)
	ws.Put(dw)
	return p, m, d
}

// Size returns s = |S|, the order of M where the interior is eliminated.
func (l *Layer) Size() int { return len(l.sup) }

// Eliminates reports whether At eliminates the interior at z — false where
// the guard keeps the layer whole.
func (l *Layer) Eliminates(z complex128) bool { return l.eliminates(z) }

// LanesAt writes into lane i of m, for each lane of live, the M(z[i]) At
// returns — bit for bit, s×s: every z[i] must be one the layer eliminates
// at (Eliminates). dw is (n − s)×s scratch; d, if not nil, receives d over
// the interior, (n − s)×1, as at builds it. It counts no flop (LayerFlops
// is what At counts, which the caller counts for each lane it keeps), and
// the lanes outside live hold garbage.
func (l *Layer) LanesAt(m, dw, d *linalg.LaneMatrix, z *[linalg.Lanes]complex128, live linalg.LaneMask) {
	ni, s := len(l.in), len(l.keep)
	if m.Rows != s || m.Cols != s || dw.Rows != ni || dw.Cols != s || d != nil && (d.Rows != ni || d.Cols != 1) {
		panic("sparse: dimension mismatch in Layer.LanesAt")
	}
	l.lanes()
	// ShiftedNegInto, the reciprocals and ScaleRowsInto, in each lane the
	// trees at runs on a single z.
	const L = linalg.Lanes
	for e, v := range l.hKK.Data {
		lane := m.Data[e*2*L : (e+1)*2*L]
		for i := 0; i < L; i++ {
			if live.Has(i) {
				lane[i], lane[L+i] = -real(v), -imag(v)
			}
		}
	}
	for j := 0; j < s; j++ {
		lane := m.Data[(j*s+j)*2*L : (j*s+j+1)*2*L]
		for i, zi := range z {
			if live.Has(i) {
				lane[i] += real(zi)
				lane[L+i] += imag(zi)
			}
		}
	}
	var dq [L]complex128
	for q, lv := range l.lambda {
		for i, zi := range z {
			if live.Has(i) {
				dq[i] = 1 / (zi - complex(lv, 0))
			}
		}
		if d != nil {
			lane := d.Data[q*2*L : (q+1)*2*L]
			for i, v := range dq {
				if live.Has(i) {
					lane[i], lane[L+i] = real(v), imag(v)
				}
			}
		}
		for p, v := range l.w.Data[q*s : (q+1)*s] {
			lane := dw.Data[(q*s+p)*2*L : (q*s+p+1)*2*L]
			for i, di := range dq {
				if live.Has(i) {
					w := v * di
					lane[i], lane[L+i] = real(w), imag(w)
				}
			}
		}
	}
	linalg.LaneGemmInto(m, -1, l.whLanes, dw, 1)
}

// lanes builds W† and W in every lane once.
func (l *Layer) lanes() {
	l.lanesOnce.Do(func() {
		l.whLanes = linalg.NewLaneMatrix(l.wh.Rows, l.wh.Cols)
		l.whLanes.Broadcast(&l.wh)
		l.wLanes = linalg.NewLaneMatrix(l.w.Rows, l.w.Cols)
		l.wLanes.Broadcast(&l.w)
	})
}

// eliminates reports whether z keeps min|z − λ| ≥ InteriorGuard·max|z − λ|
// over the interior levels — vacuously true without any, and always for a
// single one.
func (l *Layer) eliminates(z complex128) bool {
	lo, hi := math.Inf(1), 0.0
	for _, lv := range l.lambda {
		dz := z - complex(lv, 0)
		a := real(dz)*real(dz) + imag(dz)*imag(dz)
		lo, hi = min(lo, a), max(hi, a)
	}
	return len(l.lambda) == 0 || lo >= InteriorGuard*InteriorGuard*hi
}

// LayerFlops returns the flops Layer.At counts at one energy on a layer of n
// orbitals whose M is s×s (s = n where the layer is kept whole): z − h on the
// kept block, d over the interior, d∘W and W†·(d∘W).
func LayerFlops(n, s int) int64 {
	ni := n - s
	return int64(s*s)*perf.FlopsCAdd + int64(ni)*(perf.FlopsCAdd+perf.FlopsCDiv) +
		int64(ni*s)*perf.FlopsCMul + perf.GemmFlops(s, ni, s)
}
