package negf

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/linalg"
	"repro/internal/perf"
)

// familyTol bounds how far a lead's blocks may sit from a block family's
// canon (after removing the declared shift) and still be the same contact:
// within it a lead adopts the canon, beyond it the lead is another contact
// with a canon of its own. Rounding from applying and removing a bias shift
// is ~1e-16·|H| and the two ends of one assembled wire differ by ~1e-14;
// anything near this tolerance means the caller's pinned-contact assumption
// is broken.
const familyTol = 1e-8

// blockFamily is the canonical periodic lead every contact continuing the
// same cell shares: the principal-layer block with the registering lead's
// shift removed, the coupling h01 to the next layer along +x, and its
// adjoint h10 materialised once so both products of a projection run the
// vector NoTrans·NoTrans kernel. Computing from the canon — never from the
// requesting caller's own blocks — makes a self-energy a pure function of
// (block family, shifted energy), independent of which side, bias point or
// distributed worker asked first.
type blockFamily struct {
	id            int
	h00, h01, h10 *linalg.Matrix
	// sides is fixed at registration: both when the registering device's
	// two contacts continue this cell (a mirrored family — one kernel run
	// serves both surfaces), else the registering lead's side alone.
	sides sideSet
}

func newBlockFamily(id int, spec leadSpec) *blockFamily {
	b := &blockFamily{id: id, sides: 1 << spec.side, h00: spec.h00.Clone(), h01: spec.h01.Clone()}
	// Remove the registering lead's shift from the diagonal: the canon is
	// the zero-bias contact the whole family shares.
	if sh := complex(spec.shift, 0); sh != 0 {
		n := b.h00.Rows
		for i := 0; i < n; i++ {
			b.h00.Data[i*n+i] -= sh
		}
	}
	b.h10 = linalg.New(spec.h01.Cols, spec.h01.Rows)
	linalg.ConjTransposeInto(b.h10, spec.h01)
	return b
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
// layer into the lead (h01 on the right, h10 on the left): the one place a
// self-energy is made, a cache's miss and the uncached path alike.
func (b *blockFamily) selfEnergies(zc complex128, want sideSet) (sig [2]*linalg.Matrix, err error) {
	// Instrumented as the "self-energy" phase: the Sancho-Rubio decimation
	// dominates per-energy cost when the cache misses, and the phase
	// breakdown of the paper's Table is reconstructed from this timer.
	defer perf.StartPhase("self-energy")()
	g, err := decimate(b.h00, b.h01, b.h10, zc, want)
	if err != nil {
		return sig, err
	}
	ws := linalg.GetWorkspace()
	defer ws.Release()
	for s, gs := range g {
		if gs == nil {
			continue
		}
		in, out := b.h01, b.h10
		if side(s) == left {
			in, out = b.h10, b.h01
		}
		// The self-energy escapes (and may be cached): fresh storage.
		sig[s] = linalg.New(gs.Rows, gs.Rows)
		linalg.Mul3Into(sig[s], in, linalg.NoTrans, gs, linalg.NoTrans, out, linalg.NoTrans, ws)
	}
	return sig, nil
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
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range [2]side{left, right} {
		fams[s] = r.family(specs[s], specs[1-s])
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
func (r *registry) family(spec, mate leadSpec) *blockFamily {
	for _, b := range r.blocks {
		if b.sides.has(spec.side) && b.drift(spec) <= familyTol {
			return b
		}
	}
	b := newBlockFamily(len(r.blocks), spec)
	if b.drift(mate) <= familyTol {
		b.sides = bothSides
	}
	r.blocks = append(r.blocks, b)
	return b
}
