package sparse

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/linalg"
	"repro/internal/perf"
)

// ReducedSystem is the open system z − H − Σ_L − Σ_R of one fixed Hermitian
// H on the couplings' supports (DESIGN.md §11 "The open system on the
// supports"). Layer i's orbitals split into S_i = C_{i−1} ∪ R_i — the columns
// of the coupling from the left and the rows of the one to the right, the
// left contact's support on the first layer and the right contact's on the
// last — and the interior I_i, which no coupling, self-energy, injection or
// transmission readout touches and which a Layer eliminates: its M_i(z) is
// layer i of the reduced block-tridiagonal system. Layers whose (H_ii, S_i)
// are equal bit for bit share one Layer and, per energy, one M.
type ReducedSystem struct {
	sizes []int    // n_i
	rec   []int    // layer i's record
	recs  []*Layer // distinct layers, in order of first appearance
	// cps are the couplings at their positions in the reduced layers, which
	// a layer kept whole leaves where they are: it appends its interior.
	cps []Coupling
	// Where the contacts' supports sit in the first and last reduced layers.
	posL, posR []int
}

// NewReducedSystem partitions every layer of h, which must be Hermitian,
// for the contact supports left (orbitals of the first layer) and right (of
// the last), and eliminates each distinct layer's interior. h must not change
// once the system is built.
func NewReducedSystem(h *BlockTridiag, left, right []int) (*ReducedSystem, error) {
	sys := NewShiftedSystem(h)
	nl := h.Layers()
	r := &ReducedSystem{
		sizes: make([]int, nl), rec: make([]int, nl), cps: make([]Coupling, nl-1),
	}
	for i := range r.rec {
		lo, hi := left, right
		if i > 0 {
			lo = sys.Coupling(i - 1).Cols
		}
		if i < nl-1 {
			hi = sys.Coupling(i).Rows
		}
		r.sizes[i] = h.LayerSize(i)
		sup := Union(lo, hi)
		g := slices.IndexFunc(r.recs, func(l *Layer) bool {
			return slices.Equal(l.sup, sup) && SameBits(l.h, h.Diag[i])
		})
		if g < 0 {
			l, err := NewLayer(h.Diag[i], sup)
			if err != nil {
				return nil, fmt.Errorf("sparse: layer %d interior: %w", i, err)
			}
			g = len(r.recs)
			r.recs = append(r.recs, l)
		}
		r.rec[i] = g
	}
	layer := func(i int) *Layer { return r.recs[r.rec[i]] }
	r.posL, r.posR = layer(0).Pos(left), layer(nl-1).Pos(right)
	for i := range r.cps {
		c := sys.Coupling(i)
		r.cps[i] = Coupling{Rows: layer(i).Pos(c.Rows), Cols: layer(i + 1).Pos(c.Cols), U: c.U, L: c.L}
	}
	return r, nil
}

// SameBits reports whether a and b have the same shape and bits.
func SameBits(a, b *linalg.Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Data {
		w := b.Data[i]
		if math.Float64bits(real(v)) != math.Float64bits(real(w)) || math.Float64bits(imag(v)) != math.Float64bits(imag(w)) {
			return false
		}
	}
	return true
}

// Records returns the number of distinct layer records: the Ms one energy
// builds.
func (r *ReducedSystem) Records() int { return len(r.recs) }

// LeftContact returns where the left contact's support sits in the reduced
// first layer: the rows of Σ_L, and of anything else on the support, in A.
func (r *ReducedSystem) LeftContact() []int { return r.posL }

// RightContact returns where the right contact's support sits in the
// reduced last layer.
func (r *ReducedSystem) RightContact() []int { return r.posR }

// SupportSize returns |S_i|: the kept orbitals of layer i come first in A's
// layer i on either partition, so rows [0, |S_i|) of it are S_i.
func (r *ReducedSystem) SupportSize(i int) int { return len(r.recs[r.rec[i]].sup) }

// Coupling returns coupling i of the reduced system: A's at every energy.
func (r *ReducedSystem) Coupling(i int) *Coupling { return &r.cps[i] }

// Eliminates reports whether every record eliminates its interior at z: A's
// layers are then s_i×s_i, the same shapes at every such energy.
func (r *ReducedSystem) Eliminates(z complex128) bool {
	for _, l := range r.recs {
		if !l.eliminates(z) {
			return false
		}
	}
	return true
}

// Shape returns what ReducedFlops reads of the system: every layer's n_i
// and |S_i|, and whether an earlier layer shares its record.
func (r *ReducedSystem) Shape() (sizes, sups []int, shared []bool) {
	sups, shared = make([]int, len(r.rec)), make([]bool, len(r.rec))
	for i, g := range r.rec {
		sups[i] = len(r.recs[g].sup)
		shared[i] = slices.Index(r.rec, g) < i
	}
	return slices.Clone(r.sizes), sups, shared
}

// Reduced is the reduced open system at one energy: A, layer i of which is
// M_i(z) on the orbitals its partition keeps — Σ_L and Σ_R subtracted on the
// first and last — and what Interior needs to carry a solution of A into
// each layer's interior. Its blocks are ws scratch, valid until ws is
// released. A carries its couplings compressed, which is all SolveBlocks,
// Window and SplitSolve read; its Upper and Lower entries are nil.
type Reduced struct {
	A    *BlockTridiag
	a    BlockTridiag // what A points to: one allocation per energy fewer
	sys  *ReducedSystem
	recs []energyRecord
}

// energyRecord is one record at one energy: the partition its layers run
// on, M(z) on it and d = 1/(z − λ) over its interior (|I|×1).
type energyRecord struct {
	p    *Layer
	m, d *linalg.Matrix
}

// At builds the reduced open system at z. sigL and sigR are the contact
// self-energies as their blocks on the contact supports, |left|×|left| and
// |right|×|right|. A record keeps its layers whole at z when
// min|z − λ| < InteriorGuard·max|z − λ| over its interior.
func (r *ReducedSystem) At(z complex128, sigL, sigR *linalg.Matrix, ws *linalg.Workspace) *Reduced {
	red := &Reduced{sys: r, recs: make([]energyRecord, len(r.recs))}
	for g := range r.recs {
		e := &red.recs[g]
		e.p, e.m, e.d = r.recs[g].at(z, ws)
	}
	nl := len(r.sizes)
	// One slice backs the diagonal blocks and the nil upper and lower ones.
	blocks := make([]*linalg.Matrix, 3*nl-2)
	diag := blocks[:nl]
	for i, g := range r.rec {
		diag[i] = red.recs[g].m
	}
	// The end layers get blocks of their own for the contacts.
	for _, end := range []int{0, nl - 1}[:min(nl, 2)] {
		own := ws.Get(diag[end].Rows, diag[end].Cols)
		own.CopyFrom(diag[end])
		diag[end] = own
	}
	subtractOn(diag[0], sigL, r.posL)
	subtractOn(diag[nl-1], sigR, r.posR)
	red.a.wrap(diag, blocks[nl:2*nl-1], blocks[2*nl-1:], r.cps)
	red.A = &red.a
	return red
}

// LaneReduced is Reduced at up to linalg.Lanes energies, one lane of the
// lane kernels each (ReducedSystem.LanesAt): Diag[i] is layer i's block of
// A in every lane. Its blocks are its lane set's scratch.
type LaneReduced struct {
	Diag []*linalg.LaneMatrix
	sys  *ReducedSystem
	d    []*linalg.LaneMatrix // per record, d over its interior (|I|×1)
	set  *Set
}

// LanesAt is At at z[l] for every lane l of live, with lane l's
// self-energies sigL[l] and sigR[l]: lane l of Diag[i] holds A.Diag[i] of
// At(z[l], sigL[l], sigR[l]) bit for bit. Every record must eliminate at
// every z[l] (Eliminates), so layer i is s_i×s_i in every lane. Its blocks
// come from the lane set, and the lanes outside live stay zero in Diag. It
// counts no flop: ReducedFlops is what At counts for each lane.
func (r *ReducedSystem) LanesAt(set *Set, z *[linalg.Lanes]complex128, sigL, sigR *[linalg.Lanes]*linalg.Matrix, live linalg.LaneMask) *LaneReduced {
	nl := len(r.sizes)
	red := &LaneReduced{Diag: make([]*linalg.LaneMatrix, nl), sys: r, d: make([]*linalg.LaneMatrix, len(r.recs)), set: set}
	get := func(rows, cols int) *linalg.LaneMatrix { return set.Zeroed(rows, cols).V }
	ms := make([]*linalg.LaneMatrix, len(r.recs))
	for g, l := range r.recs {
		s, ni := len(l.sup), len(l.in)
		ms[g], red.d[g] = get(s, s), get(ni, 1)
		l.LanesAt(ms[g], get(ni, s), red.d[g], z, live)
	}
	for i, g := range r.rec {
		red.Diag[i] = ms[g]
	}
	for _, end := range []int{0, nl - 1}[:min(nl, 2)] {
		own := get(red.Diag[end].Rows, red.Diag[end].Cols)
		own.CopyFrom(red.Diag[end])
		red.Diag[end] = own
	}
	for l := 0; l < linalg.Lanes; l++ {
		if live.Has(l) {
			subtractLane(red.Diag[0], l, sigL[l], r.posL)
			subtractLane(red.Diag[nl-1], l, sigR[l], r.posR)
		}
	}
	return red
}

// subtractLane is subtractOn in lane l of dst.
func subtractLane(dst *linalg.LaneMatrix, l int, sigma *linalg.Matrix, pos []int) {
	k := len(pos)
	if sigma.Rows != k || sigma.Cols != k {
		panic("sparse: self-energy is not the contact support's block")
	}
	const L = linalg.Lanes
	for a, p := range pos {
		for b, q := range pos {
			o, v := (p*dst.Cols+q)*2*L+l, sigma.Data[a*k+b]
			dst.Data[o] -= real(v)
			dst.Data[o+L] -= imag(v)
		}
	}
}

// Interior is Reduced.Interior in every lane: y = diag(d)·W·x_S, lane l
// holding what Interior returns at lane l's energy bit for bit — one lane
// GEMM with W, then ScaleRowsInto's row scale per lane — as its set's
// scratch. It counts no flop.
func (r *LaneReduced) Interior(i int, x *linalg.LaneMatrix) *linalg.LaneMatrix {
	g := r.sys.rec[i]
	p, d := r.sys.recs[g], r.d[g]
	y := r.set.Zeroed(len(p.in), x.Cols).V
	linalg.LaneGemmInto(y, 1, p.wLanes, x, 0)
	const L = linalg.Lanes
	for q := 0; q < y.Rows; q++ {
		var dq [L]complex128
		for l := range dq {
			dq[l] = d.At(l, q, 0)
		}
		row := y.Data[q*y.Cols*2*L : (q+1)*y.Cols*2*L]
		for o := 0; o < len(row); o += 2 * L {
			for l, dl := range dq {
				v := complex(row[o+l], row[o+L+l]) * dl
				row[o+l], row[o+L+l] = real(v), imag(v)
			}
		}
	}
	return y
}

// subtractOn subtracts sigma, a contact's block on its support, from
// dst[pos, pos].
func subtractOn(dst, sigma *linalg.Matrix, pos []int) {
	k := len(pos)
	if sigma.Rows != k || sigma.Cols != k {
		panic("sparse: self-energy is not the contact support's block")
	}
	for a, p := range pos {
		row := sigma.Data[a*k : (a+1)*k]
		out := dst.Data[p*dst.Cols : (p+1)*dst.Cols]
		for b, q := range pos {
			out[q] -= row[b]
		}
	}
	perf.AddFlops(int64(k*k) * perf.FlopsCAdd)
}

// Interior returns the interior of layer i's block x of a solution of A in
// the eigenbasis of H_ii[I,I], y = diag(d)·W·x_S (|I|×k), as ws scratch. The
// interior's orbitals are x_I = V·y with V unitary, so Σ_{o∈I} x̄_{o,a}·x_{o,b}
// is y's Gram Σ_q ȳ_{q,a}·y_{q,b}: a sum over the layer's orbitals of a form
// in x — a layer-resolved spectral function — reads the rows of x and y and
// never recovers an orbital. A layer kept whole at this energy has no
// interior: y is 0×k, and x already covers every orbital.
func (r *Reduced) Interior(i int, x *linalg.Matrix, ws *linalg.Workspace) *linalg.Matrix {
	e := r.recs[r.sys.rec[i]]
	y := ws.Get(len(e.p.in), x.Cols)
	linalg.GemmInto(y, 1, &e.p.w, linalg.NoTrans, x, linalg.NoTrans, 0)
	linalg.ScaleRowsInto(y, e.d.Data, y)
	return y
}

// ReducedFlops returns the flops ReducedSystem.At counts at one energy and,
// with density, Interior on every layer at width k. Layer i has sizes[i]
// orbitals of which its partition keeps sups[i] (sizes[i] when the energy
// keeps it whole); shared[i] marks a layer whose record an earlier layer
// already built M for (nil: none). Each record pays z − H on its kept block,
// d over its interior, d∘W and W†·(d∘W); the contacts pay Σ_L and Σ_R on
// their rL×rL and rR×rR supports; each layer's interior pays W·x_S and d.
// Solving the reduced system is the solver's own count on layers of sups:
// BlockThomasFlops, or splitsolve.Flops.
func ReducedFlops(sizes, sups []int, shared []bool, rL, rR, k int, density bool) int64 {
	f := int64(rL*rL+rR*rR) * perf.FlopsCAdd
	for i, n := range sizes {
		s, ni := sups[i], n-sups[i]
		if shared == nil || !shared[i] {
			f += LayerFlops(n, s)
		}
		if density {
			f += perf.GemmFlops(ni, s, k) + int64(ni*k)*perf.FlopsCMul
		}
	}
	return f
}
