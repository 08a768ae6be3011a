package negf

import (
	"math"
	"sync"

	"repro/internal/linalg"
	"repro/internal/perf"
	"repro/internal/sparse"
)

// Self-energies in lanes. A transmission sweep asks for the self-energies
// of consecutive energies of one contact pair, and on the narrow layers of
// the decimation most of a solo run is per-call work — dispatch, pivot
// bookkeeping, gathers — paid once per energy. A SigmaGroup runs the
// decimations of up to linalg.Lanes energies in lockstep instead, one lane
// of the lane kernels per energy: the same recursion (blockFamily.recursion)
// on a lane set instead of a solo one, so both share one convergence rule,
// one finish and one error text. Every lane holds the bits of its own solo
// call. DESIGN.md §11, "Lanes as energies".

// laneGroups reports whether SelfEnergyGroup runs lanes at all: only where
// the lane kernels have AVX. Elsewhere a group's lanes run solo, one at a
// time, at take. Tests set it to run the lane path on the scalar loops.
var laneGroups = linalg.LaneKernels()

// block is one matrix of a lane set: m on a solo set, v on a lane set.
type block struct {
	m *linalg.Matrix
	v *linalg.LaneMatrix
}

func (b block) rows() int {
	if b.m != nil {
		return b.m.Rows
	}
	return b.v.Rows
}

// laneSet is what the decimation runs on. A solo set (lw nil) is one
// energy on today's kernels out of ws, each counting its flops; a lane
// set is up to linalg.Lanes energies on the lane kernels out of lw,
// counting none — a SigmaGroup counts at take what each lane's solo call
// would have.
type laneSet struct {
	ws *linalg.Workspace
	lw *laneWork
}

// get returns a scratch block its first use overwrites whole; zeroed
// returns one that starts at +0.
func (set *laneSet) get(rows, cols int) block {
	if set.lw == nil {
		return block{m: set.ws.Get(rows, cols)}
	}
	return block{v: set.lw.get(rows, cols, false)}
}

func (set *laneSet) zeroed(rows, cols int) block {
	if set.lw == nil {
		return block{m: set.ws.Get(rows, cols)}
	}
	return block{v: set.lw.get(rows, cols, true)}
}

func (set *laneSet) copy(dst, src block) {
	if dst.m != nil {
		dst.m.CopyFrom(src.m)
		return
	}
	dst.v.CopyFrom(src.v)
}

// load copies a matrix common to every energy into dst.
func (set *laneSet) load(dst block, src *linalg.Matrix) {
	if dst.m != nil {
		dst.m.CopyFrom(src)
		return
	}
	dst.v.Broadcast(src)
}

// inverse sets dst = src⁻¹ in the lanes of live and returns the lanes
// whose inversion failed, with the error they failed with.
func (set *laneSet) inverse(dst, src block, live linalg.LaneMask) (failed linalg.LaneMask, err error) {
	if dst.m != nil {
		if err := linalg.InverseInto(dst.m, src.m, set.ws); err != nil {
			return 1, err
		}
		return 0, nil
	}
	return linalg.LaneInverseInto(dst.v, src.v, live, &set.lw.lu), linalg.ErrSingular
}

// gemm sets dst = alpha·a·b.
func (set *laneSet) gemm(dst block, alpha complex128, a, b block) {
	if dst.m != nil {
		linalg.GemmInto(dst.m, alpha, a.m, linalg.NoTrans, b.m, linalg.NoTrans, 0)
		return
	}
	linalg.LaneGemmInto(dst.v, alpha, a.v, b.v, 0)
}

// maxAbs returns each lane's maxAbs.
func (set *laneSet) maxAbs(a block) (mx [linalg.Lanes]float64) {
	if a.m != nil {
		mx[0] = maxAbs(a.m)
		return mx
	}
	var nan [linalg.Lanes]bool
	d := a.v.Data
	for o := 0; o+laneElem <= len(d); o += laneElem {
		e := (*[laneElem]float64)(d[o : o+laneElem])
		for l := range mx {
			re, im := math.Abs(e[l]), math.Abs(e[l+linalg.Lanes])
			if re > mx[l] {
				mx[l] = re
			}
			if im > mx[l] {
				mx[l] = im
			}
			nan[l] = nan[l] || re != re || im != im
		}
	}
	for l, n := range nan {
		if n { // maxAbs propagates a NaN
			mx[l] = math.NaN()
		}
	}
	return mx
}

// add sets dst += src in the lanes of live.
func (set *laneSet) add(dst, src block, live linalg.LaneMask) {
	if dst.m != nil {
		dst.m.AddInPlace(src.m)
		return
	}
	const L = linalg.Lanes
	d, s := dst.v.Data, src.v.Data
	for o := 0; o+laneElem <= len(d); o += laneElem {
		de, se := (*[laneElem]float64)(d[o:o+laneElem]), (*[laneElem]float64)(s[o:o+laneElem])
		for l := 0; l < L; l++ {
			if live.Has(l) {
				de[l] += se[l]
				de[L+l] += se[L+l]
			}
		}
	}
}

// zero sets the lanes of which in dst to +0; a solo set has none to zero.
func (set *laneSet) zero(dst block, which linalg.LaneMask) {
	if which == 0 {
		return
	}
	const L = linalg.Lanes
	d := dst.v.Data
	for o := 0; o+laneElem <= len(d); o += laneElem {
		e := (*[laneElem]float64)(d[o : o+laneElem])
		for l := 0; l < L; l++ {
			if which.Has(l) {
				e[l], e[L+l] = 0, 0
			}
		}
	}
}

// laneElem is the float64s one element of a lane matrix occupies.
const laneElem = 2 * linalg.Lanes

// gather sets dst = src[rows, cols] (sparse.Gather).
func (set *laneSet) gather(dst, src block, rows, cols []int) {
	if dst.m != nil {
		sparse.Gather(dst.m, src.m, rows, cols)
		return
	}
	d, s, sc := dst.v.Data, src.v.Data, src.v.Cols
	for i, r := range rows {
		for j, c := range cols {
			do, so := (i*len(cols)+j)*laneElem, (r*sc+c)*laneElem
			*(*[laneElem]float64)(d[do : do+laneElem]) = *(*[laneElem]float64)(s[so : so+laneElem])
		}
	}
}

// scatterAdd sets dst[rows, cols] += src (sparse.ScatterAdd).
func (set *laneSet) scatterAdd(dst, src block, rows, cols []int) {
	if dst.m != nil {
		sparse.ScatterAdd(dst.m, src.m, rows, cols)
		return
	}
	d, s, dc := dst.v.Data, src.v.Data, dst.v.Cols
	for i, r := range rows {
		for j, c := range cols {
			do, so := (r*dc+c)*laneElem, (i*len(cols)+j)*laneElem
			de, se := (*[laneElem]float64)(d[do:do+laneElem]), (*[laneElem]float64)(s[so:so+laneElem])
			for k := range de {
				de[k] += se[k]
			}
		}
	}
}

// laneWork is the scratch of a lane set: lane matrices handed out in
// order and reused by the next group, and the inverse's factor scratch.
type laneWork struct {
	mats []*linalg.LaneMatrix
	next int
	lu   linalg.LaneLU
}

var laneWorkPool = sync.Pool{New: func() any { return new(laneWork) }}

// get returns a rows×cols lane matrix, zeroed if zero, valid until the
// work is put back in the pool.
func (w *laneWork) get(rows, cols int, zero bool) *linalg.LaneMatrix {
	if w.next == len(w.mats) {
		w.mats = append(w.mats, new(linalg.LaneMatrix))
	}
	m := w.mats[w.next]
	w.next++
	n := rows * cols * 2 * linalg.Lanes
	if cap(m.Data) < n {
		m.Data = make([]float64, n)
	} else if m.Data = m.Data[:n]; zero {
		clear(m.Data)
	}
	m.Rows, m.Cols = rows, cols
	return m
}

// SigmaGroup holds the contact self-energies of up to linalg.Lanes
// energies of one Leads value, computed in lockstep when the group is made
// and handed out one energy at a time by Take. Nothing is counted while
// the group runs: Take counts what the solo call (Leads.SelfEnergies)
// counts for its energy — the effective layer's LayerFlops, the
// decimation, the projections and one sigma-decimations per block family
// — so a per-task delta of a sweep reads as it does without groups. An
// energy the group could not finish in lanes is recomputed solo at Take:
// one the layer's guard keeps whole (s = n), one whose lane failed (the
// solo path reruns it on the whole layer, or returns its error), and any
// energy asked for a second time. Safe for concurrent use.
type SigmaGroup struct {
	leads *Leads
	zs    []complex128

	mu    sync.Mutex
	ready linalg.LaneMask // lanes holding a Σ not yet taken
	sig   [linalg.Lanes][2]*linalg.Matrix
	flops [linalg.Lanes]int64
	runs  int64 // kernel runs per energy: one per block family asked
}

// SelfEnergyGroup computes the self-energies of the energies zs — at most
// linalg.Lanes of them — in lanes (SigmaGroup). Where lanes cannot pay
// (a single energy, or no AVX lane kernels) it computes nothing, and every
// Take runs solo.
func (l *Leads) SelfEnergyGroup(zs []complex128) *SigmaGroup {
	if len(zs) > linalg.Lanes {
		panic("negf: a self-energy group holds at most linalg.Lanes energies")
	}
	g := &SigmaGroup{leads: l, zs: zs}
	if len(zs) < 2 || !laneGroups {
		return g
	}
	fams, err := l.own.resolve(l)
	if err != nil {
		return g // every Take returns the solo path's error
	}
	// The units of work of Leads.selfEnergies: one request for a pair of
	// contacts continuing one cell, else one per side.
	type unit struct {
		fam  *blockFamily
		want sideSet
	}
	units := []unit{{fams[left], bothSides}}
	if fams[left] != fams[right] {
		units = []unit{{fams[left], 1 << left}, {fams[right], 1 << right}}
	}
	var z [linalg.Lanes]complex128
	var live linalg.LaneMask
	for i, zi := range zs {
		z[i] = zi
		if imag(zi) <= 0 {
			continue
		}
		live |= 1 << i
		for _, u := range units {
			if !u.fam.layer.Eliminates(zi) {
				live &^= 1 << i
			}
		}
	}
	for _, u := range units {
		if live == 0 {
			break
		}
		live &= u.fam.laneSelfEnergies(&z, live, u.want, g)
	}
	g.ready, g.runs = live, int64(len(units))
	return g
}

// Take returns Σ_L and Σ_R at the group's energy i, as Leads.SelfEnergies
// returns them at that energy, bit for bit, and counts what it counts.
func (g *SigmaGroup) Take(i int) (sigL, sigR *linalg.Matrix, err error) {
	g.mu.Lock()
	ready := g.ready.Has(i)
	g.ready &^= 1 << i
	g.mu.Unlock()
	if !ready {
		return g.leads.SelfEnergies(g.zs[i])
	}
	perf.AddFlops(g.flops[i])
	ctrDecimations.Add(g.runs)
	return g.sig[i][left], g.sig[i][right], nil
}

// laneSelfEnergies is selfEnergies for the energies z[i], i in live, in
// lockstep: it stores each finished lane's sides of want in g, adds the
// flops its solo run counts to g.flops, and returns the lanes it finished.
// Every z[i] is one the layer eliminates at.
func (b *blockFamily) laneSelfEnergies(z *[linalg.Lanes]complex128, live linalg.LaneMask, want sideSet, g *SigmaGroup) (done linalg.LaneMask) {
	defer perf.StartPhase("self-energy")()
	lw := laneWorkPool.Get().(*laneWork)
	defer func() { lw.next = 0; laneWorkPool.Put(lw) }()
	set := laneSet{lw: lw}
	n, s, r, c := b.h00.Rows, b.layer.Size(), len(b.rows), len(b.cols)
	// Lanes outside live start at +0 and stay tame through the run.
	layer := set.zeroed(s, s)
	b.layer.LanesAt(layer.v, set.zeroed(n-s, s).v, z, live)
	surf, iters, errs := b.recursion(&set, layer, want, live)
	for i, err := range errs {
		if live.Has(i) && err == nil {
			done |= 1 << i
		}
	}
	for sd, gs := range surf {
		if !want.has(side(sd)) || done == 0 {
			continue
		}
		// selfEnergies' projection, in through Mul3Into's association:
		// (in·g)·out, whose cost equals in·(g·out)'s on these shapes, and
		// Mul3Into keeps the left one on a tie.
		in, out := &b.a, &b.ad
		if side(sd) == left {
			in, out = &b.ad, &b.a
		}
		inL, outL := set.get(in.Rows, in.Cols), set.get(out.Rows, out.Cols)
		set.load(inL, in)
		set.load(outL, out)
		tmp, sig := set.get(in.Rows, gs.v.Cols), set.get(in.Rows, out.Cols)
		set.gemm(tmp, 1, inL, gs)
		set.gemm(sig, 1, tmp, outL)
		for i := 0; i < linalg.Lanes; i++ {
			if done.Has(i) {
				g.sig[i][sd] = linalg.New(in.Rows, out.Cols)
				sig.v.LaneInto(g.sig[i][sd], i)
			}
		}
	}
	for i, it := range iters {
		if done.Has(i) {
			g.flops[i] += decimationFlops(n, s, r, c, it, want)
		}
	}
	return done
}
