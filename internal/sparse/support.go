package sparse

import (
	"slices"

	"repro/internal/linalg"
	"repro/internal/perf"
)

// RowSupport returns the ascending indices of the rows of m that hold a
// nonzero entry. With ColumnSupport it is the one definition of "the
// orbitals a nearest-neighbour coupling touches": the contact self-energies
// run in that support (negf), the wave-function injection factorises Γ on
// it, and SplitSolve's spikes are as wide as it.
func RowSupport(m *linalg.Matrix) []int {
	sup := make([]int, 0, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for _, v := range m.Data[i*m.Cols : (i+1)*m.Cols] {
			if v != 0 {
				sup = append(sup, i)
				break
			}
		}
	}
	return sup
}

// ColumnSupport returns the ascending indices of the columns of m that hold
// a nonzero entry.
func ColumnSupport(m *linalg.Matrix) []int {
	sup := make([]int, 0, m.Cols)
	for j := 0; j < m.Cols; j++ {
		for i := 0; i < m.Rows; i++ {
			if m.Data[i*m.Cols+j] != 0 {
				sup = append(sup, j)
				break
			}
		}
	}
	return sup
}

// Union merges two ascending index lists into one, ascending.
func Union(a, b []int) []int {
	out := append(append(make([]int, 0, len(a)+len(b)), a...), b...)
	slices.Sort(out)
	return slices.Compact(out)
}

// Range returns lo, lo+1, …, hi−1: the index list of an axis taken whole, or
// of a contiguous window of one.
func Range(lo, hi int) []int {
	idx := make([]int, hi-lo)
	for i := range idx {
		idx[i] = lo + i
	}
	return idx
}

// Gather writes the block src[rows, cols] into dst, which must be
// len(rows)×len(cols): dst[i][j] = src[rows[i]][cols[j]].
func Gather(dst, src *linalg.Matrix, rows, cols []int) {
	if dst.Rows != len(rows) || dst.Cols != len(cols) {
		panic("sparse: dimension mismatch in Gather")
	}
	for i, r := range rows {
		srcRow := src.Data[r*src.Cols : (r+1)*src.Cols]
		dstRow := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
		for j, c := range cols {
			dstRow[j] = srcRow[c]
		}
	}
}

// GatherRows writes the rows src[rows, :] into dst, len(rows)×src.Cols.
func GatherRows(dst, src *linalg.Matrix, rows []int) {
	if dst.Rows != len(rows) || dst.Cols != src.Cols {
		panic("sparse: dimension mismatch in GatherRows")
	}
	for i, r := range rows {
		copy(dst.Data[i*dst.Cols:(i+1)*dst.Cols], src.Data[r*src.Cols:(r+1)*src.Cols])
	}
}

// ScatterRows is the inverse of GatherRows: dst[rows[i], :] = src[i, :].
func ScatterRows(dst, src *linalg.Matrix, rows []int) {
	if src.Rows != len(rows) || src.Cols != dst.Cols {
		panic("sparse: dimension mismatch in ScatterRows")
	}
	for i, r := range rows {
		copy(dst.Data[r*dst.Cols:(r+1)*dst.Cols], src.Data[i*src.Cols:(i+1)*src.Cols])
	}
}

// ScatterAdd accumulates src, len(rows)×len(cols), into the block
// dst[rows, cols]: dst[rows[i]][cols[j]] += src[i][j]. Index lists must not
// repeat an index.
func ScatterAdd(dst, src *linalg.Matrix, rows, cols []int) {
	if src.Rows != len(rows) || src.Cols != len(cols) {
		panic("sparse: dimension mismatch in ScatterAdd")
	}
	for i, r := range rows {
		dstRow := dst.Data[r*dst.Cols : (r+1)*dst.Cols]
		srcRow := src.Data[i*src.Cols : (i+1)*src.Cols]
		for j, c := range cols {
			dstRow[c] += srcRow[j]
		}
	}
	perf.AddFlops(int64(len(src.Data)) * perf.FlopsCAdd)
}
