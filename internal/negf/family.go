package negf

import (
	"fmt"
	"sync"

	"repro/internal/linalg"
	"repro/internal/perf"
	"repro/internal/sparse"
)

// blockFamily is the canonical periodic lead every contact continuing the
// same cell shares: the principal-layer block h00 and the coupling h01 to
// the next layer along +x, the registering lead's own bits. A lead joins a
// family only when its blocks are those bits (matches), so a self-energy
// is a pure function of (block family, energy), independent of which side
// or distributed worker asked first.
//
// Everything the kernel needs of the canon is laid out here, once, under the
// registry's lock: the coupling's row and column supports R and C, the
// block a = h01[R,C] with its adjoint materialised so both products of a
// projection run the vector NoTrans·NoTrans kernel, h00 as a sparse.Layer on
// S = R ∪ C — the interior's eigenpairs, from which every energy's effective
// layer is one product — and where R and C sit in that layer's M, the same
// whether an energy eliminates the interior or keeps the layer whole.
type blockFamily struct {
	id         int
	h00, h01   *linalg.Matrix
	rows, cols []int
	posR, posC []int
	a, ad      linalg.Matrix
	layer      *sparse.Layer
	// sides is fixed at registration: both when the registering device's
	// two contacts continue this cell (a mirrored family — one kernel run
	// serves both surfaces), else the registering lead's side alone.
	sides sideSet
}

func newFamily(id int, spec leadSpec) (*blockFamily, error) {
	b := &blockFamily{id: id, sides: 1 << spec.side, h00: spec.h00.Clone(), h01: spec.h01.Clone()}
	b.rows, b.cols = sparse.RowSupport(b.h01), sparse.ColumnSupport(b.h01)
	layer, err := sparse.NewLayer(b.h00, sparse.Union(b.rows, b.cols))
	if err != nil {
		return nil, err
	}
	b.layer, b.posR, b.posC = layer, layer.Pos(b.rows), layer.Pos(b.cols)
	r, c := len(b.rows), len(b.cols)
	slab := make([]complex128, 2*r*c)
	b.a = linalg.Matrix{Rows: r, Cols: c, Data: slab[:r*c]}
	sparse.Gather(&b.a, b.h01, b.rows, b.cols)
	b.ad = linalg.Matrix{Rows: c, Cols: r, Data: slab[r*c:]}
	linalg.ConjTransposeInto(&b.ad, &b.a)
	return b, nil
}

// matches reports whether a lead's blocks are the canon's, bit for bit.
func (b *blockFamily) matches(spec leadSpec) bool {
	return sparse.SameBits(spec.h00, b.h00) && sparse.SameBits(spec.h01, b.h01)
}

// selfEnergies runs the kernel at complex energy z and projects the
// surfaces asked for, Σ = h·g·h† with h the coupling from the device's end
// layer into the lead: Σ_R = a·g_R[C,C]·a†, the r×r block on R×R, and
// Σ_L = a†·g_L[R,R]·a, the c×c block on C×C — the blocks outside which Σ is
// zero, and all any reader takes of it. The one place a self-energy is
// made, a cache's miss and the uncached path alike, and the one place a
// finished kernel run is counted (sigma-decimations).
func (b *blockFamily) selfEnergies(z complex128, want sideSet) (sig [2]*linalg.Matrix, err error) {
	// Instrumented as the "self-energy" phase: the Sancho-Rubio decimation
	// dominates per-energy cost when the cache misses, and the phase
	// breakdown of the paper's Table is reconstructed from this timer.
	defer perf.StartPhase("self-energy")()
	ws := linalg.GetWorkspace()
	defer ws.Release()
	g, err := b.decimate(z, want, ws)
	if err != nil {
		return sig, err
	}
	for s, gs := range g {
		if gs == nil {
			continue
		}
		in, out := &b.a, &b.ad
		if side(s) == left {
			in, out = &b.ad, &b.a
		}
		// The self-energy escapes (and may be cached): fresh storage.
		sig[s] = linalg.New(in.Rows, in.Rows)
		linalg.Mul3Into(sig[s], in, linalg.NoTrans, gs, linalg.NoTrans, out, linalg.NoTrans, ws)
	}
	ctrDecimations.Add(1)
	return sig, nil
}

// ctrDecimations counts finished kernel runs process-wide, cached or not.
var ctrDecimations = perf.GetCounter("sigma-decimations")

// SelfEnergyFlops returns the flops of one paired selfEnergies miss, affine
// in its decimation's iterations, on a lead of n orbitals whose coupling
// touches r rows and c columns, with an s×s effective layer: s = |R ∪ C|, or
// n where the energy keeps the layer whole. A miss the eliminated layer
// cannot finish (decimate) adds the flops its abandoned run executed to the
// whole layer's.
func SelfEnergyFlops(n, s, r, c, iterations int) int64 {
	return decimationFlops(n, s, r, c, iterations, bothSides)
}

// decimationFlops returns what one selfEnergies call for the sides of want
// counts when its decimation finishes in iterations on the s×s layer: the
// count a lane group's Take adds for it.
func decimationFlops(n, s, r, c, iterations int, want sideSet) int64 {
	gemm, sums := perf.GemmFlops, int64(r*r+c*c)*perf.FlopsCAdd
	inverse := perf.LUFlops(s) + perf.SolveFlops(s, s)
	// −α·g·β and −β·g·α.
	pair := gemm(r, c, c) + gemm(c, r, r) + gemm(r, c, r) + gemm(c, r, c)
	// Unconverged iterations also add to the bulk and square α and β.
	squared := sums + gemm(r, c, r) + gemm(c, r, c) + gemm(r, r, c) + gemm(c, c, r)
	// Each iteration sums its updates.
	f := sparse.LayerFlops(n, s) + int64(iterations)*(inverse+pair+sums) + int64(iterations-1)*squared
	// Each finish adds its surface's sum and inverts; then its projection,
	// the same products as its half of the pair.
	if want.has(right) {
		f += inverse + int64(r*r)*perf.FlopsCAdd + gemm(r, c, c) + gemm(r, c, r)
	}
	if want.has(left) {
		f += inverse + int64(c*c)*perf.FlopsCAdd + gemm(c, r, r) + gemm(c, r, c)
	}
	return f
}

// registry resolves leads to block families, kept in registration order —
// the order adoption searches them in. A SelfEnergyCache keeps one for
// every lead it is shown; a Leads value keeps a private one for the
// uncached path. The zero value is ready.
type registry struct {
	mu     sync.Mutex
	blocks []*blockFamily
}

// resolve maps both contacts to their block families from their blocks
// alone. The Leads value remembers the answer, so only a first visit — or
// a swapped block — reaches the registry. There the left lead registers
// before the right under one lock hold: a fixed rule, not a race.
func (r *registry) resolve(l *Leads) (fams [2]*blockFamily, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	specs := [2]leadSpec{l.spec(left), l.spec(right)}
	if l.seenBy == r && l.seen == specs {
		return l.fams, nil
	}
	// Both contacts are vetted before either registers.
	for _, spec := range specs {
		if n := spec.h00.Rows; spec.h00.Cols != n || spec.h01.Rows != n || spec.h01.Cols != n {
			return fams, fmt.Errorf("negf: %s lead blocks must be square and same-sized", sideNames[spec.side])
		}
		if !finite(maxAbs(spec.h00)) || !finite(maxAbs(spec.h01)) {
			return fams, fmt.Errorf("negf: %s lead has non-finite blocks", sideNames[spec.side])
		}
		// The interior is eliminated through h00's eigenpairs (sparse.Layer).
		if !spec.h00.IsHermitian(1e-12 * maxAbs(spec.h00)) {
			return fams, fmt.Errorf("negf: %s lead's h00 is not Hermitian", sideNames[spec.side])
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range [2]side{left, right} {
		if fams[s], err = r.family(specs[s], specs[1-s]); err != nil {
			return fams, fmt.Errorf("negf: %s lead: %w", sideNames[s], err)
		}
	}
	l.seenBy, l.seen, l.fams = r, specs, fams
	return fams, nil
}

// family returns a lead's block family: the first registered one that has
// the lead's side and whose canon is the lead's blocks — or, when none is,
// a new one with those blocks as canon, mirrored if mate, the device's
// other contact, repeats them too. A lead whose blocks are the canon's has
// the canon's supports, so Σ needs no check to live where every solver
// reads it (Leads.Supports). Caller holds r.mu.
func (r *registry) family(spec, mate leadSpec) (*blockFamily, error) {
	for _, b := range r.blocks {
		if b.sides.has(spec.side) && b.matches(spec) {
			return b, nil
		}
	}
	b, err := newFamily(len(r.blocks), spec)
	if err != nil {
		return nil, err
	}
	if b.matches(mate) {
		b.sides = bothSides
	}
	r.blocks = append(r.blocks, b)
	return b, nil
}
