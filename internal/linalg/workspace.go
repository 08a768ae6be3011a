package linalg

import (
	"math/bits"
	"sync"
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
//   - Matrices obtained from Get and int slices obtained from GetInts are
//     scratch. They must never escape the solve that checked them out (not
//     into results, caches, or other goroutines); Release recycles every
//     outstanding buffer of both kinds. A per-energy solve keeps every
//     temporary here, block-Thomas factors and their pivots included.
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
type Workspace struct {
	// free holds returned matrices by the exponent of their capacity (in
	// complex128 elements); freeInts likewise for int slices.
	free     [bits.UintSize][]*Matrix
	freeInts [bits.UintSize][][]int
	// out and outInts hold what is checked out.
	out     []*Matrix
	outInts [][]int
}

// workspacePool recycles whole Workspaces across solves. sync.Pool's
// per-P fast path means a worker goroutine pinned to a processor keeps
// reusing the same warm buffers for consecutive energy points.
var workspacePool = sync.Pool{New: func() any { return new(Workspace) }}

// GetWorkspace checks a Workspace out of the shared pool.
func GetWorkspace() *Workspace { return workspacePool.Get().(*Workspace) }

// Release reclaims every matrix and int slice still checked out and
// returns the workspace to the shared pool. After Release the workspace,
// and every buffer it ever handed out, must not be used.
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
	workspacePool.Put(w)
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
