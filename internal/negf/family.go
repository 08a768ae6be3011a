package negf

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/linalg"
	"repro/internal/perf"
	"repro/internal/sparse"
)

// familyTol bounds how far a lead's blocks may sit from a block family's
// canon (after removing the declared shift) and still be the same contact:
// within it a lead adopts the canon, beyond it the lead is another contact
// with a canon of its own. The two ends of one assembled device now differ
// by 0 (the lattice's bonds are periodic bit for bit); the tolerance stays
// for removing a bias shift, whose rounding is ~1e-16·|H|. Anything near
// it means the caller's pinned-contact assumption is broken.
const familyTol = 1e-8

// blockFamily is the canonical periodic lead every contact continuing the
// same cell shares: the principal-layer block with the registering lead's
// shift removed and the coupling h01 to the next layer along +x. Computing
// from the canon — never from the requesting caller's own blocks — makes a
// self-energy a pure function of (block family, shifted energy),
// independent of which side, bias point or distributed worker asked first.
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
	// Remove the registering lead's shift from the diagonal: the canon is
	// the zero-bias contact the whole family shares.
	n := b.h00.Rows
	if sh := complex(spec.shift, 0); sh != 0 {
		for i := 0; i < n; i++ {
			b.h00.Data[i*n+i] -= sh
		}
	}
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

// support returns the orbitals a side's self-energy lives on: the columns
// of h01 for the left contact, the rows for the right.
func (b *blockFamily) support(s side) []int {
	if s == left {
		return b.cols
	}
	return b.rows
}

// drift is the max-abs distance of a lead's blocks from the canon plus the
// lead's declared rigid shift; +Inf when the shapes differ.
func (b *blockFamily) drift(spec leadSpec) float64 {
	n := b.h00.Rows
	if spec.h00.Rows != n || spec.h00.Cols != n || spec.h01.Rows != n || spec.h01.Cols != n {
		return math.Inf(1)
	}
	mx := maxAbsDiff(spec.h01, b.h01)
	sh := complex(spec.shift, 0)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want := b.h00.Data[i*n+j]
			if i == j {
				want += sh
			}
			d := spec.h00.Data[i*n+j] - want
			mx = max(mx, math.Abs(real(d)), math.Abs(imag(d)))
		}
	}
	return mx
}

// selfEnergies runs the kernel at the canonical energy zc and projects the
// surfaces asked for, Σ = h·g·h† with h the coupling from the device's end
// layer into the lead: Σ_R = a·g_R[C,C]·a†, the r×r block on R×R, and
// Σ_L = a†·g_L[R,R]·a, the c×c block on C×C — the blocks outside which Σ is
// zero, and all any reader takes of it. The one place a self-energy is
// made, a cache's miss and the uncached path alike, and the one place a
// finished kernel run is counted (sigma-decimations).
func (b *blockFamily) selfEnergies(zc complex128, want sideSet) (sig [2]*linalg.Matrix, err error) {
	// Instrumented as the "self-energy" phase: the Sancho-Rubio decimation
	// dominates per-energy cost when the cache misses, and the phase
	// breakdown of the paper's Table is reconstructed from this timer.
	defer perf.StartPhase("self-energy")()
	ws := linalg.GetWorkspace()
	defer ws.Release()
	g, err := b.decimate(zc, want, ws)
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
	gemm, sums := perf.GemmFlops, int64(r*r+c*c)*perf.FlopsCAdd
	inverse := perf.LUFlops(s) + perf.SolveFlops(s, s)
	// −α·g·β and −β·g·α; the two projections are the same products.
	pair := gemm(r, c, c) + gemm(c, r, r) + gemm(r, c, r) + gemm(c, r, c)
	// Unconverged iterations also add to the bulk and square α and β.
	squared := sums + gemm(r, c, r) + gemm(c, r, c) + gemm(r, r, c) + gemm(c, c, r)
	// Each iteration sums its updates; each finish adds its surface's sum and
	// inverts; then the projections.
	return sparse.LayerFlops(n, s) + int64(iterations)*(inverse+pair+sums) + int64(iterations-1)*squared + 2*inverse + sums + pair
}

// registry resolves leads to block families, kept in registration order —
// the order adoption searches them in. A SelfEnergyCache keeps one for
// every lead it is shown; a Leads value keeps a private one for the
// uncached path. The zero value is ready.
type registry struct {
	mu     sync.Mutex
	blocks []*blockFamily
}

// resolve maps both contacts to their block families from their blocks and
// declared shifts alone. The Leads value remembers the answer, so only a
// first visit — or a swapped block or shift — reaches the registry. There
// the left lead registers before the right under one lock hold, so when a
// device's two contacts continue the same cell it is the left one's blocks
// that become the canon — a fixed rule, not a race.
func (r *registry) resolve(l *Leads) (fams [2]*blockFamily, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	specs := [2]leadSpec{l.spec(left), l.spec(right)}
	if l.seenBy == r && l.seen == specs {
		return l.fams, nil
	}
	// Both contacts are vetted before either registers. A NaN matches no
	// family, its own included: every visit would register one more canon.
	for _, spec := range specs {
		if n := spec.h00.Rows; spec.h00.Cols != n || spec.h01.Rows != n || spec.h01.Cols != n {
			return fams, fmt.Errorf("negf: %s lead blocks must be square and same-sized", sideNames[spec.side])
		}
		if !finite(spec.shift) || !finite(maxAbs(spec.h00)) || !finite(maxAbs(spec.h01)) {
			return fams, fmt.Errorf("negf: %s lead has non-finite blocks or shift", sideNames[spec.side])
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
// the lead's side and matches its shift-removed blocks within familyTol —
// or, when none does, a new one with those blocks as canon, mirrored if
// mate, the device's other contact, matches them too. A wrongly declared
// shift needs no guard: removed from h00 here and from z in selfEnergies,
// it cancels, and the lead merely has a family of its own. Caller holds r.mu.
func (r *registry) family(spec, mate leadSpec) (*blockFamily, error) {
	for _, b := range r.blocks {
		if b.sides.has(spec.side) && b.drift(spec) <= familyTol {
			// Σ lives on the family's support and every solver reads it on
			// the lead's own (Leads.Supports): they must be one list.
			if sup := spec.support(); !slices.Equal(sup, b.support(spec.side)) {
				return nil, fmt.Errorf("couples orbitals %v, its block family %v", sup, b.support(spec.side))
			}
			return b, nil
		}
	}
	b, err := newFamily(len(r.blocks), spec)
	if err != nil {
		return nil, err
	}
	if b.drift(mate) <= familyTol {
		b.sides = bothSides
	}
	r.blocks = append(r.blocks, b)
	return b, nil
}
