package sparse

import (
	"math"

	"repro/internal/linalg"
	"repro/internal/perf"
)

// Set is what the open-system kernels run on — the decimation of the
// contact self-energies, the RGF and the block-Thomas sweep — so each is
// one body for one energy and for a lane group (DESIGN.md §11, "Lanes as
// energies"). A solo set is one energy on the solo kernels out of a
// workspace, each counting its flops; a lane set is up to linalg.Lanes
// energies in lockstep on the lane kernels, one ymm lane per energy,
// counting none: its caller counts at take what each lane's solo run would
// have. Each lane holds the bits of its own solo run.
type Set struct {
	ws    *linalg.Workspace
	lanes bool
}

// Block is one matrix of a set: M on a solo set, V on a lane set.
type Block struct {
	M *linalg.Matrix
	V *linalg.LaneMatrix
}

// Rows returns the block's row count.
func (b Block) Rows() int {
	if b.M != nil {
		return b.M.Rows
	}
	return b.V.Rows
}

// SoloSet returns a solo set on ws.
func SoloSet(ws *linalg.Workspace) Set { return Set{ws: ws} }

// LaneSet returns a lane set on ws: its blocks are ws's lane blocks, and
// its per-lane matrices and the lane factor's scratch come from ws too, all
// valid until ws's Release.
func LaneSet(ws *linalg.Workspace) Set { return Set{ws: ws, lanes: true} }

// Workspace returns the workspace the set's per-lane matrices come from.
func (set *Set) Workspace() *linalg.Workspace { return set.ws }

// Get returns a scratch block its first use overwrites whole.
func (set *Set) Get(rows, cols int) Block {
	if !set.lanes {
		return Block{M: set.ws.Get(rows, cols)}
	}
	return Block{V: set.ws.GetLanes(rows, cols, false)}
}

// Zeroed returns a scratch block that starts at +0.
func (set *Set) Zeroed(rows, cols int) Block {
	if !set.lanes {
		return Block{M: set.ws.Get(rows, cols)}
	}
	return Block{V: set.ws.GetLanes(rows, cols, true)}
}

// Put hands a block back to the set's scratch; a lane set keeps it until
// its workspace is released.
func (set *Set) Put(b Block) {
	if b.M != nil {
		set.ws.Put(b.M)
	}
}

// Copy sets dst = src.
func (set *Set) Copy(dst, src Block) {
	if dst.M != nil {
		dst.M.CopyFrom(src.M)
		return
	}
	dst.V.CopyFrom(src.V)
}

// Load copies a matrix common to every energy into dst.
func (set *Set) Load(dst Block, src *linalg.Matrix) {
	if dst.M != nil {
		dst.M.CopyFrom(src)
		return
	}
	dst.V.Broadcast(src)
}

// Common returns a matrix common to every energy as a block of the set:
// src itself on a solo set, read-only.
func (set *Set) Common(src *linalg.Matrix) Block {
	if !set.lanes {
		return Block{M: src}
	}
	b := set.Get(src.Rows, src.Cols)
	set.Load(b, src)
	return b
}

// PerLane returns the matrices ms[l], one per lane of live, as a block of
// the set: ms[0] itself on a solo set, read-only.
func (set *Set) PerLane(ms *[linalg.Lanes]*linalg.Matrix, live linalg.LaneMask) Block {
	if !set.lanes {
		return Block{M: ms[0]}
	}
	var b Block
	for l, m := range ms {
		if !live.Has(l) {
			continue
		}
		if b.V == nil {
			b = set.Zeroed(m.Rows, m.Cols)
		}
		for e, v := range m.Data {
			b.V.Set(l, e/m.Cols, e%m.Cols, v)
		}
	}
	return b
}

// Count adds a solo set's flops; a lane set counts at take.
func (set *Set) Count(n int64) {
	if !set.lanes {
		perf.AddFlops(n)
	}
}

// Gemm sets dst = alpha·a·b + beta·dst, beta 0 or 1.
func (set *Set) Gemm(dst Block, alpha complex128, a, b Block, beta complex128) {
	if dst.M != nil {
		linalg.GemmInto(dst.M, alpha, a.M, linalg.NoTrans, b.M, linalg.NoTrans, beta)
		return
	}
	linalg.LaneGemmInto(dst.V, alpha, a.V, b.V, beta)
}

// Inverse sets dst = src⁻¹ in the lanes of live and returns the lanes
// whose inversion failed, with the error they failed with.
func (set *Set) Inverse(dst, src Block, live linalg.LaneMask) (failed linalg.LaneMask, err error) {
	if dst.M != nil {
		if err := linalg.InverseInto(dst.M, src.M, set.ws); err != nil {
			return 1, err
		}
		return 0, nil
	}
	return linalg.LaneInverseInto(dst.V, src.V, live, set.ws), linalg.ErrSingular
}

// InverseColumns factors m, which it may destroy, and solves it against
// the identity's first s columns in the lanes of live: every column bit
// for bit that column of m's whole inverse (linalg's luSolveInPlace), at
// s/n of the solve's cost. A lane set takes s = n: the inverse
// (LaneInverseInto). It returns the lanes whose factor met a zero pivot,
// with the error they failed with.
func (set *Set) InverseColumns(m Block, s int, live linalg.LaneMask) (g Block, failed linalg.LaneMask, err error) {
	if set.lanes {
		if s != m.V.Rows {
			panic("sparse: a lane set inverts whole blocks")
		}
		g = set.Get(s, s)
		return g, linalg.LaneInverseInto(g.V, m.V, live, set.ws), linalg.ErrSingular
	}
	piv := set.ws.GetInts(m.M.Rows)
	defer set.ws.PutInts(piv)
	fac, err := linalg.FactorInPlace(m.M, piv)
	if err != nil {
		return g, 1, err
	}
	g.M = set.ws.Get(m.M.Rows, s)
	for j := 0; j < s; j++ {
		g.M.Data[j*s+j] = 1
	}
	fac.SolveInPlace(g.M)
	return g, 0, nil
}

// FactorSolve factors m, which it destroys, in the lanes of live and
// overwrites rows r0… of b with those of the solution of m·X = b
// (linalg.(*LU).SolveFromRow; r0 = 0 solves whole). It returns the lanes
// whose factor met a zero pivot, with the error they failed with; their b
// holds garbage.
func (set *Set) FactorSolve(m, b Block, r0 int, live linalg.LaneMask) (failed linalg.LaneMask, err error) {
	if set.lanes {
		f, failed := linalg.LaneFactorInPlace(m.V, live, set.ws)
		f.SolveFromRow(b.V, r0)
		return failed, linalg.ErrSingular
	}
	piv := set.ws.GetInts(m.M.Rows)
	defer set.ws.PutInts(piv)
	lu, err := linalg.FactorInPlace(m.M, piv)
	if err != nil {
		return 1, err
	}
	lu.SolveFromRow(b.M, r0)
	return 0, nil
}

// TraceMulConj returns each lane's Tr[a·b†] (linalg.TraceMulConj),
// counting no flop on a lane set, whose scratch comes from its workspace.
func (set *Set) TraceMulConj(a, b Block) (t [linalg.Lanes]complex128) {
	if a.M != nil {
		t[0] = linalg.TraceMulConj(a.M, b.M)
		return t
	}
	return linalg.LaneTraceMulConj(a.V, b.V, set.ws)
}

// laneElem is the float64s one element of a lane matrix occupies.
const laneElem = 2 * linalg.Lanes

// elem returns element e of a lane matrix's data, every lane.
func elem(d []float64, e int) *[laneElem]float64 {
	return (*[laneElem]float64)(d[e*laneElem : (e+1)*laneElem])
}

// MaxAbs returns max over elements of max(|re|, |im|) — the norm of the
// decimation's convergence tests, a hypot per element cheaper than the
// modulus. It propagates NaN.
func MaxAbs(a *linalg.Matrix) float64 {
	var mx float64
	for _, v := range a.Data {
		// The decimation's hot loop: two predictable compares per element
		// (the builtin max costs three times as much), NaN leaving through
		// the rare update branch.
		for _, p := range [2]float64{math.Abs(real(v)), math.Abs(imag(v))} {
			if !(p <= mx) {
				if p != p {
					return p
				}
				mx = p
			}
		}
	}
	return mx
}

// MaxAbs returns each lane's MaxAbs (linalg.LaneMaxAbs: math.NaN() in a
// lane with a NaN part).
func (set *Set) MaxAbs(a Block) (mx [linalg.Lanes]float64) {
	if a.M != nil {
		mx[0] = MaxAbs(a.M)
		return mx
	}
	return linalg.LaneMaxAbs(a.V)
}

// Add sets dst += src in the lanes of live.
func (set *Set) Add(dst, src Block, live linalg.LaneMask) {
	if dst.M != nil {
		dst.M.AddInPlace(src.M)
		return
	}
	const L = linalg.Lanes
	for o := 0; o < len(dst.V.Data)/laneElem; o++ {
		de, se := elem(dst.V.Data, o), elem(src.V.Data, o)
		for l := 0; l < L; l++ {
			if live.Has(l) {
				de[l] += se[l]
				de[L+l] += se[L+l]
			}
		}
	}
}

// Zero sets the lanes of which in dst to +0; a solo set has none to zero.
func (set *Set) Zero(dst Block, which linalg.LaneMask) {
	if which == 0 {
		return
	}
	const L = linalg.Lanes
	for o := 0; o < len(dst.V.Data)/laneElem; o++ {
		e := elem(dst.V.Data, o)
		for l := 0; l < L; l++ {
			if which.Has(l) {
				e[l], e[L+l] = 0, 0
			}
		}
	}
}

// Gather sets dst = src[rows, cols] (Gather).
func (set *Set) Gather(dst, src Block, rows, cols []int) {
	if dst.M != nil {
		Gather(dst.M, src.M, rows, cols)
		return
	}
	set.Place(dst, 0, src, rows, cols)
}

// Place sets dst[q, col0+j] = src[rows[q], cols[j]]: Gather into a column
// range of dst.
func (set *Set) Place(dst Block, col0 int, src Block, rows, cols []int) {
	if dst.M != nil {
		d, s := dst.M, src.M
		for q, r := range rows {
			out, in := d.Data[q*d.Cols+col0:], s.Data[r*s.Cols:]
			for j, c := range cols {
				out[j] = in[c]
			}
		}
		return
	}
	d, s := dst.V, src.V
	for q, r := range rows {
		for j, c := range cols {
			*elem(d.Data, q*d.Cols+col0+j) = *elem(s.Data, r*s.Cols+c)
		}
	}
}

// ScatterAdd sets dst[rows, cols] += src (ScatterAdd).
func (set *Set) ScatterAdd(dst, src Block, rows, cols []int) {
	if dst.M != nil {
		ScatterAdd(dst.M, src.M, rows, cols)
		return
	}
	d, s, dc := dst.V.Data, src.V.Data, dst.V.Cols
	for i, r := range rows {
		for j := range cols {
			de, se := elem(d, r*dc+cols[j]), elem(s, i*len(cols)+j)
			for k := range de {
				de[k] += se[k]
			}
		}
	}
}

// MoveCols copies b into blk[rows, j0:] when put, out of it otherwise;
// nil rows are 0, 1, ….
func (set *Set) MoveCols(blk, b Block, rows []int, j0 int, put bool) {
	if blk.M != nil {
		moveCols(blk.M, b.M, rows, j0, put)
		return
	}
	w := b.V.Cols * laneElem
	for a := 0; a < b.V.Rows; a++ {
		r := a
		if rows != nil {
			r = rows[a]
		}
		dst, src := b.V.Data[a*w:(a+1)*w], blk.V.Data[(r*blk.V.Cols+j0)*laneElem:]
		if put {
			dst, src = src[:w], dst
		}
		copy(dst, src)
	}
}

// moveCols copies b into blk[rows, j0:] when put, out of it otherwise.
func moveCols(blk, b *linalg.Matrix, rows []int, j0 int, put bool) {
	for a := 0; a < b.Rows; a++ {
		r := a
		if rows != nil {
			r = rows[a]
		}
		dst, src := b.Data[a*b.Cols:(a+1)*b.Cols], blk.Data[r*blk.Cols+j0:]
		if put {
			dst, src = src[:b.Cols], dst
		}
		copy(dst, src)
	}
}
