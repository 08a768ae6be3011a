package linalg

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Workspace is a size-bucketed scratch allocator for the dense kernels.
// Hot solver loops (RGF sweeps, Sancho-Rubio decimation, block-Thomas solves)
// check temporary matrices out with Get and return them with Put, so a
// whole per-energy-point solve touches the garbage collector only on its
// first use of each buffer size instead of on every product.
//
// Ownership rules (DESIGN.md §8):
//
//   - A Workspace is single-goroutine: check one out per solve with
//     GetWorkspace and hand it back with Release when the solve is done.
//     Never store a Workspace on a long-lived Solver — parallel energy
//     points would race on it.
//   - Matrices obtained from Get, int slices obtained from GetInts and
//     lane blocks obtained from GetLanes are scratch. They must never
//     escape the solve that checked them out (not into results, caches, or
//     other goroutines); Release recycles every outstanding buffer of every
//     kind. A per-energy solve keeps every temporary here, block-Thomas
//     factors and their pivots included, and so does a lane group.
//   - Put panics on a double return, on a matrix the workspace did not
//     hand out (another workspace's included) and on a struct copy of one
//     it did; PutInts panics on a double or foreign return. Ownership bugs
//     fail loudly in tests instead of corrupting a neighbouring solve.
//
// Bookkeeping is O(1) and hashes nothing — around an r-sized product a
// Get/Put pair must cost less than the product. Every checked-out matrix
// is an entry of out, and its slot field names the entry (i+1 for out[i]),
// so Put checks ownership by pointer identity at one index and
// swap-removes it. A buffer's size class is the exponent of its capacity,
// which Get always makes a power of two. Int slices carry no slot; the
// few a solve holds at once sit in outInts and PutInts finds its slice by
// a scan from the most recent.
//
// A workspace the pool makes after a GC dropped the pooled ones starts
// with as many buffers of each class as any workspace has held: their
// headers in one slice and their data in one slab (int slices likewise),
// each buffer a three-index slice whose capacity ends where its
// neighbour's begins. Its first solve then allocates nothing per buffer.
//
// Lane blocks (GetLanes) and EigHIn's real vectors are handed out in order
// from one float64 slab, the lane headers from one slice, and are not
// returned one by one: Release reclaims them all at once. The slab and the
// header slice are made at their first use, as large as any workspace has
// used, so a workspace that runs no lanes carries no lane headers, and one
// that runs no lanes or eigensolves no slab. A solve that outgrows them
// takes each block past them from the heap, and its Release makes the
// next ones as large as it used. The lane factor (LaneLU) lives in the
// workspace, its scratch checked out of it.
type Workspace struct {
	// free holds returned matrices by the exponent of their capacity (in
	// complex128 elements); freeInts likewise for int slices.
	free     [bits.UintSize][]*Matrix
	freeInts [bits.UintSize][][]int
	// out and outInts hold what is checked out.
	out     []*Matrix
	outInts [][]int
	// slab and lanes hold the float64s and lane headers handed out since
	// Release: used and next of them.
	slab       []float64
	lanes      []LaneMatrix
	used, next int
	// lu is the lane factor, its scratch checked out of the workspace.
	lu LaneLU
	// grown is set when the workspace allocated a buffer; Release then
	// raises workspaceSize to what the workspace holds.
	grown bool
}

// workspaceSize is the most one workspace has held: per size class, of
// matrices and int slices; of slab float64s and lane headers.
var workspaceSize struct {
	mats, ints  [bits.UintSize]atomic.Int64
	slab, lanes atomic.Int64
}

// workspacePool recycles whole Workspaces across solves. sync.Pool's
// per-P fast path means a worker goroutine pinned to a processor keeps
// reusing the same warm buffers for consecutive energy points.
var workspacePool = sync.Pool{New: func() any { return newWorkspace() }}

// newWorkspace returns a workspace holding workspaceSize's buffers.
func newWorkspace() *Workspace {
	var mats, ints [bits.UintSize]int
	var nMats, nInts, elems, intElems int
	for c := range mats {
		mats[c], ints[c] = int(workspaceSize.mats[c].Load()), int(workspaceSize.ints[c].Load())
		nMats, elems = nMats+mats[c], elems+mats[c]<<c
		nInts, intElems = nInts+ints[c], intElems+ints[c]<<c
	}
	w := new(Workspace)
	if nMats > 0 {
		hdrs, slab := make([]Matrix, nMats), make([]complex128, elems)
		lists := make([]*Matrix, 2*nMats) // the free lists, then out
		w.out = lists[nMats:nMats:len(lists)]
		i, at := 0, 0
		for c, n := range mats {
			w.free[c] = lists[i : i+n : i+n]
			for j := range w.free[c] {
				hdrs[i+j].Data = slab[at : at : at+1<<c]
				w.free[c][j] = &hdrs[i+j]
				at += 1 << c
			}
			i += n
		}
	}
	if nInts > 0 {
		slab := make([]int, intElems)
		lists := make([][]int, 2*nInts) // the free lists, then outInts
		w.outInts = lists[nInts:nInts:len(lists)]
		i, at := 0, 0
		for c, n := range ints {
			w.freeInts[c] = lists[i : i+n : i+n]
			for j := range w.freeInts[c] {
				w.freeInts[c][j] = slab[at : at+1<<c : at+1<<c]
				at += 1 << c
			}
			i += n
		}
	}
	return w
}

// GetWorkspace checks a Workspace out of the shared pool.
func GetWorkspace() *Workspace { return workspacePool.Get().(*Workspace) }

// Release reclaims every matrix and int slice still checked out and every
// lane block and vector handed out, and returns the workspace to the
// shared pool. After Release the workspace, and every buffer it ever
// handed out, must not be used.
func (w *Workspace) Release() {
	for _, m := range w.out {
		m.slot = 0
		class := classExp(cap(m.Data))
		w.free[class] = append(w.free[class], m)
	}
	w.out = w.out[:0]
	for _, s := range w.outInts {
		class := classExp(cap(s))
		w.freeInts[class] = append(w.freeInts[class], s)
	}
	w.outInts = w.outInts[:0]
	if w.grown {
		for c := range w.free {
			growTo(&workspaceSize.mats[c], len(w.free[c]))
			growTo(&workspaceSize.ints[c], len(w.freeInts[c]))
		}
		if w.used > len(w.slab) {
			growTo(&workspaceSize.slab, w.used)
			w.slab = nil
		}
		if w.next > len(w.lanes) {
			growTo(&workspaceSize.lanes, w.next)
			w.lanes = nil
		}
		w.grown = false
	}
	w.used, w.next, w.lu = 0, 0, LaneLU{}
	workspacePool.Put(w)
}

// growTo raises a to v if it is below.
func growTo(a *atomic.Int64, v int) {
	for o := a.Load(); o < int64(v) && !a.CompareAndSwap(o, int64(v)); o = a.Load() {
	}
}

// classExp returns the exponent of the smallest power of two ≥ n (minimum
// 2⁰), the bucket granularity of the free lists. Rounding up lets one buffer
// serve every nearby block size a solve cycles through.
func classExp(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// Get checks out a zeroed rows×cols scratch matrix.
func (w *Workspace) Get(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("linalg: negative matrix dimension in Workspace.Get")
	}
	n := rows * cols
	class := classExp(n)
	var m *Matrix
	if list := w.free[class]; len(list) > 0 {
		m = list[len(list)-1]
		w.free[class] = list[:len(list)-1]
		m.Rows, m.Cols = rows, cols
		m.Data = m.Data[:n]
		m.Zero()
	} else {
		m = &Matrix{Rows: rows, Cols: cols, Data: make([]complex128, n, 1<<class)}
		w.grown = true
	}
	w.out = append(w.out, m)
	m.slot = len(w.out)
	return m
}

// Put returns a matrix previously obtained from Get. It panics on a
// double return and on a matrix this workspace did not hand out.
func (w *Workspace) Put(m *Matrix) {
	i := m.slot - 1
	if i < 0 || i >= len(w.out) || w.out[i] != m {
		panic("linalg: Workspace.Put of a matrix it did not hand out (double or foreign return)")
	}
	last := len(w.out) - 1
	moved := w.out[last]
	w.out[i] = moved
	moved.slot = i + 1
	w.out = w.out[:last]
	m.slot = 0
	class := classExp(cap(m.Data))
	w.free[class] = append(w.free[class], m)
}

// GetInts checks out a length-n int scratch slice (pivot indices). Its
// contents are not zeroed.
func (w *Workspace) GetInts(n int) []int {
	if n < 0 {
		panic("linalg: negative length in Workspace.GetInts")
	}
	class := classExp(n)
	var s []int
	if list := w.freeInts[class]; len(list) > 0 {
		s = list[len(list)-1]
		w.freeInts[class] = list[:len(list)-1]
	} else {
		s = make([]int, 1<<class)
		w.grown = true
	}
	w.outInts = append(w.outInts, s)
	return s[:n]
}

// PutInts returns an int slice obtained from GetInts. It panics on a
// double return and on a slice this workspace did not hand out.
func (w *Workspace) PutInts(s []int) {
	if cap(s) > 0 {
		base := &s[:1][0]
		for i := len(w.outInts) - 1; i >= 0; i-- {
			if t := w.outInts[i]; &t[0] == base {
				last := len(w.outInts) - 1
				w.outInts[i] = w.outInts[last]
				w.outInts = w.outInts[:last]
				class := classExp(cap(t))
				w.freeInts[class] = append(w.freeInts[class], t)
				return
			}
		}
	}
	panic("linalg: Workspace.PutInts of a slice it did not hand out (double or foreign return)")
}

// GetLanes hands out a rows×cols lane matrix, zeroed if zero, valid until
// Release; nothing hands it back earlier.
func (w *Workspace) GetLanes(rows, cols int, zero bool) *LaneMatrix {
	if w.lanes == nil {
		w.lanes = make([]LaneMatrix, workspaceSize.lanes.Load())
	}
	var m *LaneMatrix
	if w.next < len(w.lanes) {
		m = &w.lanes[w.next]
	} else {
		m, w.grown = new(LaneMatrix), true
	}
	w.next++
	m.Rows, m.Cols, m.Data = rows, cols, w.floats(rows*cols*laneStride)
	if zero {
		clear(m.Data)
	}
	return m
}

// floats hands out n float64s of the slab, not zeroed, valid until
// Release.
func (w *Workspace) floats(n int) []float64 {
	if w.slab == nil {
		w.slab = make([]float64, workspaceSize.slab.Load())
	}
	at := w.used
	w.used += n
	if w.used > len(w.slab) {
		w.grown = true
		return make([]float64, n)
	}
	return w.slab[at:w.used:w.used]
}
