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
	// The contacts' supports on the first and last layers, and where they
	// sit in the reduced layers.
	left, right, posL, posR []int
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
		left: left, right: right,
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
			return slices.Equal(l.sup, sup) && sameBits(l.h, h.Diag[i])
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

// sameBits reports whether a and b have the same shape and bits.
func sameBits(a, b *linalg.Matrix) bool {
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

// LeftContact returns the left contact's support, orbitals of the first
// layer, and their positions in the reduced first layer.
func (r *ReducedSystem) LeftContact() (sup, pos []int) { return r.left, r.posL }

// RightContact returns the right contact's support on the last layer and
// its positions in the reduced last layer.
func (r *ReducedSystem) RightContact() (sup, pos []int) { return r.right, r.posR }

// SupportSize returns |S_i|: the kept orbitals of layer i come first in A's
// layer i on either partition, so rows [0, |S_i|) of it are S_i.
func (r *ReducedSystem) SupportSize(i int) int { return len(r.recs[r.rec[i]].sup) }

// Reduced is the reduced open system at one energy: A, layer i of which is
// M_i(z) on the orbitals its partition keeps — Σ_L and Σ_R subtracted on the
// first and last — and what Orbitals needs to put a solution of A back on
// every orbital. Its blocks are ws scratch, valid until ws is released. A
// carries its couplings compressed, which is all SolveBlocks, Window and
// SplitSolve read; its Upper and Lower entries are nil.
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
// self-energies on the first and last layers, of which only the blocks on
// the contact supports are read. A record keeps its layers whole at z when
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
	subtractOn(diag[0], sigL, r.left, r.posL)
	subtractOn(diag[nl-1], sigR, r.right, r.posR)
	red.a.wrap(diag, blocks[nl:2*nl-1], blocks[2*nl-1:], r.cps)
	red.A = &red.a
	return red
}

// subtractOn subtracts sigma[sup, sup] from dst[pos, pos].
func subtractOn(dst, sigma *linalg.Matrix, sup, pos []int) {
	for a, o := range sup {
		row := sigma.Data[o*sigma.Cols : (o+1)*sigma.Cols]
		out := dst.Data[pos[a]*dst.Cols : (pos[a]+1)*dst.Cols]
		for b, o2 := range sup {
			out[pos[b]] -= row[o2]
		}
	}
	perf.AddFlops(int64(len(sup)*len(sup)) * perf.FlopsCAdd)
}

// Orbitals returns layer i's block x of a solution of A on every orbital of
// the layer, in the layer's own order, as ws scratch: the kept rows moved
// back, the interior recovered as x_I = V·diag(d)·W·x_S.
func (r *Reduced) Orbitals(i int, x *linalg.Matrix, ws *linalg.Workspace) *linalg.Matrix {
	e := r.recs[r.sys.rec[i]]
	p, k := e.p, x.Cols
	out := ws.Get(r.sys.sizes[i], k)
	for q, o := range p.keep {
		copy(out.Data[o*k:(o+1)*k], x.Data[q*k:(q+1)*k])
	}
	y := ws.Get(len(p.in), k)
	linalg.GemmInto(y, 1, &p.w, linalg.NoTrans, x, linalg.NoTrans, 0)
	linalg.ScaleRowsInto(y, e.d.Data, y)
	xi := ws.Get(len(p.in), k)
	linalg.GemmInto(xi, 1, &p.v, linalg.NoTrans, y, linalg.NoTrans, 0)
	for q, o := range p.in {
		copy(out.Data[o*k:(o+1)*k], xi.Data[q*k:(q+1)*k])
	}
	ws.Put(xi)
	ws.Put(y)
	return out
}

// ReducedFlops returns the flops ReducedSystem.At counts at one energy and,
// with density, Orbitals on every layer at width k. Layer i has sizes[i]
// orbitals of which its partition keeps sups[i] (sizes[i] when the energy
// keeps it whole); shared[i] marks a layer whose record an earlier layer
// already built M for (nil: none). Each record pays z − H on its kept block,
// d over its interior, d∘W and W†·(d∘W); the contacts pay Σ_L and Σ_R on
// their rL×rL and rR×rR supports; each layer's recovery pays W·x_S, d and V.
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
			f += perf.GemmFlops(ni, s, k) + int64(ni*k)*perf.FlopsCMul + perf.GemmFlops(ni, ni, k)
		}
	}
	return f
}
