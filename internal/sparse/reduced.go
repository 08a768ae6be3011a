package sparse

import (
	"fmt"
	"math"
	"math/cmplx"
	"slices"

	"repro/internal/linalg"
	"repro/internal/perf"
)

// InteriorGuard is the one threshold both interior eliminations share.
// Eliminating a layer's interior I divides by the distance δ from Re z to a
// level of H[I,I]: the eliminated layer carries a pole of size 1/δ and an
// absolute error of ε/δ², so within ~√ε of a level it loses the digits a
// whole-layer solve keeps. An energy whose interior is that close keeps the
// layer whole instead — the same kernel with an empty interior — and the
// choice is a function of (block, z) alone. negf's decimation holds its
// interior factor's pivot ratio min|u_ii| / max|u_ii| to it, ReducedSystem
// the interior's spectrum, min|z − λ| / max|z − λ|. negf's
// TestAdversarialEnergies and wavefunction's TestReducedAdversarialEnergies
// park Re z on every interior level and set it.
const InteriorGuard = 1e-3

// ReducedSystem is the open system z − H − Σ_L − Σ_R of one fixed Hermitian
// H on the couplings' supports (DESIGN.md §11 "The open system on the
// supports"). Layer i's orbitals split into S_i = C_{i−1} ∪ R_i — the columns
// of the coupling from the left and the rows of the one to the right, the
// left contact's support on the first layer and the right contact's on the
// last — and the interior I_i, which no coupling, self-energy, injection or
// transmission readout touches. The interior is eliminated through the
// eigenpairs of H_ii[I,I] = V·Λ·V†, computed once here: with W = V†·H_ii[I,S]
// and d = 1/(z − λ),
//
//	M_i(z) = z − H_ii[S,S] − W†·diag(d)·W,   x_I = V·diag(d)·W·x_S
//
// are layer i of the reduced block-tridiagonal system and the interior of its
// solution. Layers whose (H_ii, S_i) are equal bit for bit share one record
// and, per energy, one M. Building it counts no flop: it is set-up, not the
// work of the task that happens to trigger it.
type ReducedSystem struct {
	sizes []int         // n_i
	rec   []int         // layer i's record
	recs  []layerRecord // distinct layers, in order of first appearance
	// cps are the couplings at their positions in the reduced layers, which
	// a layer kept whole leaves where they are: it appends its interior.
	cps []Coupling
	// The contacts' supports on the first and last layers, and where they
	// sit in the reduced layers.
	left, right, posL, posR []int
}

// layerRecord is what equal layers share: S, and the two partitions an
// energy can run them on.
type layerRecord struct {
	h           *linalg.Matrix // H_ii of the first layer with these bits
	sup         []int          // S_i, ascending
	part, whole partition
}

// partition lays a layer out for the reduced system: the orbitals it keeps,
// in the order of its rows — S ascending, then, when the layer is whole, I —
// the block of H_ii on them, and the interior it eliminates with its
// eigenpairs. whole is part with an empty interior.
type partition struct {
	keep   []int
	hKK    linalg.Matrix
	in     []int
	lambda []float64
	v      linalg.Matrix // eigenvectors of H_ii[I,I], |I|×|I|
	w, wh  linalg.Matrix // W = V†·H_ii[I,keep] and W†
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
	sups, ranks := make([][]int, nl), make([][]int, nl)
	for i := range sups {
		lo, hi := left, right
		if i > 0 {
			lo = sys.Coupling(i - 1).Cols
		}
		if i < nl-1 {
			hi = sys.Coupling(i).Rows
		}
		r.sizes[i] = h.LayerSize(i)
		sups[i] = union(lo, hi)
		ranks[i] = rankIn(sups[i], r.sizes[i])
		g := slices.IndexFunc(r.recs, func(rec layerRecord) bool {
			return slices.Equal(rec.sup, sups[i]) && sameBits(rec.h, h.Diag[i])
		})
		if g < 0 {
			rec, err := newRecord(h.Diag[i], sups[i], ranks[i])
			if err != nil {
				return nil, fmt.Errorf("sparse: layer %d interior: %w", i, err)
			}
			g = len(r.recs)
			r.recs = append(r.recs, rec)
		}
		r.rec[i] = g
	}
	r.posL, r.posR = pick(ranks[0], left), pick(ranks[nl-1], right)
	for i := range r.cps {
		c := sys.Coupling(i)
		r.cps[i] = Coupling{Rows: pick(ranks[i], c.Rows), Cols: pick(ranks[i+1], c.Cols), U: c.U, L: c.L}
	}
	return r, nil
}

// newRecord partitions a layer block h on its support sup, rank its
// positions (−1 off S), and eliminates the rest: the eigendecomposition and
// W are set-up, and count no flop. Every block of the record lives on one
// slab — a solver is built once per Hamiltonian, every SCF iteration.
func newRecord(h *linalg.Matrix, sup, rank []int) (layerRecord, error) {
	n, s := h.Rows, len(sup)
	keep := append(make([]int, 0, n), sup...)
	for o, p := range rank {
		if p < 0 {
			keep = append(keep, o)
		}
	}
	in := keep[s:]
	ni := len(in)
	slab := make([]complex128, s*s+ni*ni+3*ni*s+n*n)
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
	rec := layerRecord{h: h, sup: sup}
	rec.part = partition{keep: keep[:s:s], hKK: gather(sup, sup), in: in}
	hII := gather(in, in)
	eig, err := linalg.EigHSetup(&hII)
	if err != nil {
		return rec, err
	}
	rec.part.lambda, rec.part.v = eig.Values, *eig.Vectors
	// W = V†·H[I,S], by hand: GemmInto would count it.
	hIS := gather(in, sup)
	rec.part.w, rec.part.wh = take(ni, s), take(s, ni)
	for q := 0; q < ni; q++ {
		for p := 0; p < s; p++ {
			var acc complex128
			for k := 0; k < ni; k++ {
				acc += cmplx.Conj(eig.Vectors.Data[k*ni+q]) * hIS.Data[k*s+p]
			}
			rec.part.w.Data[q*s+p] = acc
		}
	}
	linalg.ConjTransposeInto(&rec.part.wh, &rec.part.w)
	rec.whole = partition{keep: keep, hKK: gather(keep, keep), w: linalg.Matrix{Cols: n}, wh: linalg.Matrix{Rows: n}}
	return rec, nil
}

// rankIn returns where each orbital of an n-orbital layer sits in sup, −1
// where it is not in it.
func rankIn(sup []int, n int) []int {
	rank := make([]int, n)
	for o := range rank {
		rank[o] = -1
	}
	for p, o := range sup {
		rank[o] = p
	}
	return rank
}

// pick returns rank[o] for every orbital o of of.
func pick(rank, of []int) []int {
	out := make([]int, len(of))
	for j, o := range of {
		out[j] = rank[o]
	}
	return out
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

// Reduced is the reduced open system at one energy: A, layer i of which is
// M_i(z) on the orbitals its partition keeps — Σ_L and Σ_R subtracted on the
// first and last — and what Orbitals needs to put a solution of A back on
// every orbital. Its blocks are ws scratch, valid until ws is released. A
// carries its couplings compressed, which is all SolveBlocks, Window and
// SplitSolve read; its Upper and Lower entries are nil.
type Reduced struct {
	A    *BlockTridiag
	sys  *ReducedSystem
	recs []energyRecord
}

// energyRecord is one record at one energy: the partition its layers run
// on, M(z) on it and d = 1/(z − λ) over its interior (|I|×1).
type energyRecord struct {
	p    *partition
	m, d *linalg.Matrix
}

// At builds the reduced open system at z. sigL and sigR are the contact
// self-energies on the first and last layers, of which only the blocks on
// the contact supports are read. A record keeps its layers whole at z when
// min|z − λ| < InteriorGuard·max|z − λ| over its interior.
func (r *ReducedSystem) At(z complex128, sigL, sigR *linalg.Matrix, ws *linalg.Workspace) *Reduced {
	red := &Reduced{sys: r, recs: make([]energyRecord, len(r.recs))}
	for g := range r.recs {
		red.recs[g] = r.recs[g].at(z, ws)
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
	red.A = view(diag, blocks[nl:2*nl-1], blocks[2*nl-1:], r.cps)
	return red
}

// at picks the partition layers of rec run on at z and builds M(z) on it
// and d over its interior, both ws scratch.
func (rec *layerRecord) at(z complex128, ws *linalg.Workspace) energyRecord {
	p := &rec.part
	if !p.eliminates(z) {
		p = &rec.whole
	}
	ni, s := len(p.in), len(p.keep)
	e := energyRecord{p: p, m: ws.Get(s, s), d: ws.Get(ni, 1)}
	linalg.ShiftedNegInto(e.m, &p.hKK, z)
	for q, l := range p.lambda {
		e.d.Data[q] = 1 / (z - complex(l, 0))
	}
	perf.AddFlops(int64(ni) * (perf.FlopsCAdd + perf.FlopsCDiv))
	dw := ws.Get(ni, s)
	linalg.ScaleRowsInto(dw, e.d.Data, &p.w)
	linalg.GemmInto(e.m, -1, &p.wh, linalg.NoTrans, dw, linalg.NoTrans, 1)
	ws.Put(dw)
	return e
}

// eliminates reports whether z keeps min|z − λ| ≥ InteriorGuard·max|z − λ|
// over the partition's interior levels — vacuously true without any, and
// always for a single one, as negf's pivot ratio is for a 1×1 interior.
func (p *partition) eliminates(z complex128) bool {
	lo, hi := math.Inf(1), 0.0
	for _, l := range p.lambda {
		dz := z - complex(l, 0)
		a := real(dz)*real(dz) + imag(dz)*imag(dz)
		lo, hi = min(lo, a), max(hi, a)
	}
	return len(p.lambda) == 0 || lo >= InteriorGuard*InteriorGuard*hi
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
			f += int64(s*s)*perf.FlopsCAdd + int64(ni)*(perf.FlopsCAdd+perf.FlopsCDiv) +
				int64(ni*s)*perf.FlopsCMul + perf.GemmFlops(s, ni, s)
		}
		if density {
			f += perf.GemmFlops(ni, s, k) + int64(ni*k)*perf.FlopsCMul + perf.GemmFlops(ni, ni, k)
		}
	}
	return f
}
