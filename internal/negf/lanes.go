package negf

import (
	"context"
	"math/bits"
	"sync"

	"repro/internal/linalg"
	"repro/internal/perf"
	"repro/internal/sparse"
)

// Self-energies in lanes. A transmission sweep asks for the self-energies
// of consecutive energies of one contact pair, and on the narrow layers of
// the decimation most of a solo run is per-call work — dispatch, pivot
// bookkeeping, gathers — paid once per energy. An uncached Group runs the
// decimations of its energies in lockstep instead, one lane of the lane
// kernels per energy: the same recursion (blockFamily.recursion) on a lane
// set instead of a solo one, so both share one convergence rule, one
// finish and one error text. Every lane holds the bits of its own solo
// call. The Group then runs the whole solves the same way, on its solver's
// lane kernel (LaneSolver). DESIGN.md §11, "Lanes as energies".

// LaneGroups reports whether a Group runs lanes at all: only where the
// lane kernels have AVX. Elsewhere each energy is solved alone. Tests —
// here and in the packages whose kernels a Group runs — set it to run the
// lane path on the scalar loops.
var LaneGroups = linalg.LaneKernels()

// fillSigma computes the self-energies of the energies zs of g's lanes —
// at most linalg.Lanes of them — in lockstep on ws. It marks the lanes it
// finished looked, with their Σ_L and Σ_R in g.sig — Leads.SelfEnergies'
// bits at each energy — and what that solo call counts in g.sigFlops and
// g.runs: the effective layer's LayerFlops, the decimation and the
// projections, and one sigma-decimations per block family. It counts
// nothing. A lane it leaves is one the layer's guard keeps whole (s = n)
// or one whose lane failed; the solo path reruns it on the whole layer, or
// returns its error.
func (g *Group) fillSigma(l *Leads, zs []complex128, ws *linalg.Workspace) {
	fams, err := l.own.resolve(l)
	if err != nil {
		return // each solo solve returns the error
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
		live &= u.fam.laneSelfEnergies(&z, live, u.want, g, ws)
	}
	g.looked, g.runs = live, int64(len(units))
}

// countSigma counts what the solo self-energy call of lane i counts where
// fillSigma looked its Σ up; a σ-cached group's lookups counted as they ran.
func (g *Group) countSigma(i int) {
	perf.AddFlops(g.sigFlops[i])
	ctrDecimations.Add(g.runs)
}

// laneSelfEnergies is selfEnergies for the energies z[i], i in live, in
// lockstep on ws: it stores each finished lane's sides of want in g.sig,
// adds the flops its solo run counts to g.sigFlops, and returns the lanes
// it finished. Every z[i] is one the layer eliminates at.
func (b *blockFamily) laneSelfEnergies(z *[linalg.Lanes]complex128, live linalg.LaneMask, want sideSet, g *Group, ws *linalg.Workspace) (done linalg.LaneMask) {
	defer perf.StartPhase("self-energy")()
	set := sparse.LaneSet(ws)
	n, s, r, c := b.h00.Rows, b.layer.Size(), len(b.rows), len(b.cols)
	// Lanes outside live start at +0 and stay tame through the run.
	layer := set.Zeroed(s, s)
	b.layer.LanesAt(layer.V, set.Zeroed(n-s, s).V, nil, z, live)
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
		inL, outL := set.Get(in.Rows, in.Cols), set.Get(out.Rows, out.Cols)
		set.Load(inL, in)
		set.Load(outL, out)
		tmp, sig := set.Get(in.Rows, gs.V.Cols), set.Get(in.Rows, out.Cols)
		set.Gemm(tmp, 1, inL, gs, 0)
		set.Gemm(sig, 1, tmp, outL, 0)
		for i := 0; i < linalg.Lanes; i++ {
			if done.Has(i) {
				g.sig[i][sd] = linalg.New(in.Rows, out.Cols)
				sig.V.LaneInto(g.sig[i][sd], i)
			}
		}
	}
	for i, it := range iters {
		if done.Has(i) {
			g.sigFlops[i] += decimationFlops(n, s, r, c, it, want)
		}
	}
	return done
}

// A LaneSolver is one transport solver's side of a Group: its solo solves,
// the contacts, broadening and σ-cache its self-energies come from, its
// reduced open system and its kernel on a lane set.
type LaneSolver struct {
	Solo interface {
		SolveCtx(ctx context.Context, e float64, density bool) (*Result, error)
		SolveWithSigma(ctx context.Context, e float64, sigL, sigR *linalg.Matrix, density bool) (*Result, error)
	}
	Leads *Leads
	Eta   float64
	Cache *SelfEnergyCache
	// Sys is the solver's reduced open system; nil forms no lanes.
	Sys *sparse.ReducedSystem
	// Kernel solves a group's lanes in lockstep; nil solves them solo on
	// the self-energies the group looked up.
	Kernel LaneKernel
}

// LaneKernel solves the lanes of in.Live in lockstep on a lane set, every
// record of the solver's reduced system eliminating at each lane's energy.
// It writes lane l's result — what the solo solve returns at its energy,
// bit for bit — into in.Res[l] and returns the lanes it could not finish
// (each is solved solo at take) and what each finished lane's solo solve
// counts beyond its self-energies. It counts nothing itself.
type LaneKernel func(set *sparse.Set, in *LaneInput) (failed linalg.LaneMask, flops int64)

// LaneInput is a group's lanes as a kernel reads them: lane l's energy
// z = E + iη, its self-energies and broadenings on the contact supports
// (side 0 the left contact, 1 the right), and its result slot.
type LaneInput struct {
	Z       [linalg.Lanes]complex128
	Sigma   [2][linalg.Lanes]*linalg.Matrix
	Gamma   [2][linalg.Lanes]*linalg.Matrix
	Res     [linalg.Lanes]*Result
	Live    linalg.LaneMask
	Density bool
}

// Group holds the solves of up to linalg.Lanes energies of one solver, run
// in lockstep when the group is made — one lane of the lane kernels per
// energy, on the solver's kernel — and handed out one energy at a time by
// Take. The group looks up each energy's self-energies once, in order:
// through the solver's cache when it has one (the keys and the decimations
// of the solo solves, counted as they run), else in lanes (fillSigma),
// counted at take. Nothing else is counted while the
// group runs: Take counts what the solo solve of its energy counts. An
// energy the group could not finish in lanes is solved solo at Take, on
// the Σ the group looked up where it has one — one a record's guard keeps
// whole, one the kernel could not finish (the solo path returns its
// error), and every lane where fewer than two are left, or the solver has
// no lane kernel — and any energy asked for a second time is solved from
// the start. Safe for concurrent use.
type Group struct {
	ls      LaneSolver
	es      []float64
	density bool

	mu     sync.Mutex
	ready  linalg.LaneMask // lanes holding a result not yet taken
	looked linalg.LaneMask // lanes holding a Σ not yet taken
	res    [linalg.Lanes]*Result
	sig    [linalg.Lanes][2]*linalg.Matrix
	sigErr [linalg.Lanes]error
	// sigFlops and runs are what each lane's solo Σ call counts where the
	// group looked Σ up in lanes (fillSigma), counted at take.
	sigFlops [linalg.Lanes]int64
	runs     int64
	flops    int64 // what each ready lane's solve counts beyond Σ
}

// Lane groups solved in lockstep, and energies of a group solved solo at
// take (Group), of both formalisms.
var ctrLaneGroups, ctrLanesSolo = perf.GetCounter("lane-groups"), perf.GetCounter("lanes-solo")

// Group solves the energies es — at most linalg.Lanes of them — in lanes,
// with density output or without. Where the energies share nothing — a
// single energy, no AVX lane kernels, no reduced system, or a σ-cached
// solver without a lane kernel, whose lookups cost the same one at a time
// — it returns nil, and each energy is solved alone.
func (ls LaneSolver) Group(es []float64, density bool) *Group {
	if len(es) > linalg.Lanes {
		panic("negf: a lane group holds at most linalg.Lanes energies")
	}
	if len(es) < 2 || !LaneGroups || ls.Sys == nil || ls.Kernel == nil && ls.Cache != nil {
		return nil
	}
	g := &Group{ls: ls, es: es, density: density}
	in := LaneInput{Density: density}
	for i, e := range es {
		in.Z[i] = complex(e, ls.Eta)
	}
	ws := linalg.GetWorkspace()
	defer ws.Release()
	if ls.Cache != nil {
		for i := range es {
			sigL, sigR, err := CachedSelfEnergies(ls.Cache, ls.Leads, in.Z[i])
			g.sig[i], g.sigErr[i] = [2]*linalg.Matrix{sigL, sigR}, err
			g.looked |= 1 << i
		}
	} else {
		g.fillSigma(ls.Leads, in.Z[:len(es)], ws)
	}
	if ls.Kernel == nil {
		return g
	}
	for i := range es {
		if g.looked.Has(i) && g.sigErr[i] == nil && ls.Sys.Eliminates(in.Z[i]) {
			in.Live |= 1 << i
		}
	}
	if bits.OnesCount8(uint8(in.Live)) < 2 {
		return g
	}
	set := sparse.LaneSet(ws)
	for l := 0; l < linalg.Lanes; l++ {
		if !in.Live.Has(l) {
			continue
		}
		for sd, sig := range g.sig[l] {
			in.Sigma[sd][l] = sig
			in.Gamma[sd][l] = ws.Get(sig.Rows, sig.Rows)
			broadening(in.Gamma[sd][l], sig)
		}
	}
	failed, flops := ls.Kernel(&set, &in)
	g.ready, g.res, g.flops = in.Live&^failed, in.Res, flops
	if g.ready != 0 {
		ctrLaneGroups.Add(1)
	}
	return g
}

// Take returns the result at the group's energy i — what the solver's
// SolveCtx returns there, bit for bit — and counts what it counts.
func (g *Group) Take(ctx context.Context, i int) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	g.mu.Lock()
	ready, looked := g.ready.Has(i), g.looked.Has(i)
	g.ready &^= 1 << i
	g.looked &^= 1 << i
	g.mu.Unlock()
	if !ready {
		ctrLanesSolo.Add(1)
	}
	switch {
	case !looked:
		return g.ls.Solo.SolveCtx(ctx, g.es[i], g.density)
	case g.sigErr[i] != nil:
		return nil, g.sigErr[i]
	}
	g.countSigma(i)
	if ready {
		perf.AddFlops(g.flops)
		return g.res[i], nil
	}
	return g.ls.Solo.SolveWithSigma(ctx, g.es[i], g.sig[i][left], g.sig[i][right], g.density)
}
