package linalg

import (
	"math/bits"
	"sync"
)

// Workspace is a size-bucketed scratch allocator for the dense kernels.
// Hot solver loops (RGF sweeps, Sancho-Rubio decimation, SCBA iterations)
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
//   - Matrices obtained from Get are scratch. They must never escape the
//     solve that checked them out (not into results, caches, or other
//     goroutines); Release recycles every outstanding buffer. A
//     per-energy solve keeps every temporary here, block-Thomas factors
//     and their pivots (GetInts) included.
//   - Put panics on a double return and on a matrix the workspace did not
//     hand out, so ownership bugs fail loudly in tests instead of
//     corrupting a neighbouring solve.
type Workspace struct {
	// free holds returned matrices by the exponent of their power-of-two
	// capacity class (in complex128 elements): an array, not a map — around
	// an r-sized product a Get/Put pair must cost less than the product.
	free [bits.UintSize][]*Matrix
	// out tracks checked-out matrices and their class exponent.
	out map[*Matrix]int
	// ints is a free list of pivot-index scratch slices.
	ints [][]int
}

// workspacePool recycles whole Workspaces across solves. sync.Pool's
// per-P fast path means a worker goroutine pinned to a processor keeps
// reusing the same warm buffers for consecutive energy points.
var workspacePool = sync.Pool{New: func() any {
	return &Workspace{out: make(map[*Matrix]int)}
}}

// GetWorkspace checks a Workspace out of the shared pool.
func GetWorkspace() *Workspace { return workspacePool.Get().(*Workspace) }

// Release reclaims every matrix still checked out and returns the
// workspace to the shared pool. After Release the workspace, and every
// matrix it ever handed out, must not be used.
func (w *Workspace) Release() {
	for m, class := range w.out {
		delete(w.out, m)
		w.free[class] = append(w.free[class], m)
	}
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
	w.out[m] = class
	return m
}

// Put returns a matrix previously obtained from Get. It panics on a
// double return and on a matrix this workspace did not hand out.
func (w *Workspace) Put(m *Matrix) {
	class, ok := w.out[m]
	if !ok {
		panic("linalg: Workspace.Put of a matrix it did not hand out (double or foreign return)")
	}
	delete(w.out, m)
	w.free[class] = append(w.free[class], m)
}

// GetInts checks out a length-n int scratch slice (pivot indices).
func (w *Workspace) GetInts(n int) []int {
	for i, s := range w.ints {
		if cap(s) >= n {
			w.ints[i] = w.ints[len(w.ints)-1]
			w.ints = w.ints[:len(w.ints)-1]
			return s[:n]
		}
	}
	return make([]int, n, 1<<classExp(n))
}

// PutInts returns an int slice obtained from GetInts.
func (w *Workspace) PutInts(s []int) {
	w.ints = append(w.ints, s)
}
