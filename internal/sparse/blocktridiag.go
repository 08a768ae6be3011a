// Package sparse provides the block-tridiagonal matrix that captures the
// nearest-neighbor tight-binding structure — a device sliced into principal
// layers where layer i couples only to layers i±1 — which every
// open-boundary solver in this repository (RGF, wave-function, SplitSolve)
// exploits, with its block-Thomas solve and the open system reduced to the
// couplings' supports.
package sparse

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/linalg"
)

// BlockTridiag is a complex block-tridiagonal matrix: the matrix of a
// device partitioned into principal layers 0..L-1 where layer i couples
// only to layers i−1 and i+1. Blocks may be rectangular when layer sizes
// differ.
//
//	⎡ D0  U0           ⎤
//	⎢ L0  D1  U1       ⎥
//	⎢     L1  D2  U2   ⎥
//	⎣         L2  D3   ⎦
//
// Diag[i] is n_i×n_i, Upper[i] is n_i×n_{i+1}, Lower[i] is n_{i+1}×n_i.
//
// A matrix carries its couplings compressed to their supports (Coupling): a
// view made by ShiftedSystem.At, ReducedSystem.At or Window shares its
// parent's, any other matrix builds them on first use. Upper and Lower must
// not change after. A reduced open system (ReducedSystem.At) carries its
// couplings alone, with nil Upper and Lower entries: it exists to be
// solved.
type BlockTridiag struct {
	Diag  []*linalg.Matrix
	Upper []*linalg.Matrix
	Lower []*linalg.Matrix

	cpOnce sync.Once
	cps    []Coupling
}

// view wraps blocks a parent matrix owns, with the parent's couplings.
func view(diag, upper, lower []*linalg.Matrix, cps []Coupling) *BlockTridiag {
	v := new(BlockTridiag)
	v.wrap(diag, upper, lower, cps)
	return v
}

// wrap makes the zero matrix v a view of the blocks and couplings.
func (v *BlockTridiag) wrap(diag, upper, lower []*linalg.Matrix, cps []Coupling) {
	v.Diag, v.Upper, v.Lower = diag, upper, lower
	v.cpOnce.Do(func() { v.cps = cps })
}

// Window returns layers [lo, hi) of m, lo < hi, as a matrix of its own that
// shares m's blocks and its compressed couplings — a SplitSolve domain.
func (m *BlockTridiag) Window(lo, hi int) *BlockTridiag {
	return view(m.Diag[lo:hi], m.Upper[lo:hi-1], m.Lower[lo:hi-1], m.couplings()[lo:hi-1])
}

// Coupling returns the compressed coupling between layers i and i+1, read-only.
func (m *BlockTridiag) Coupling(i int) *Coupling { return &m.couplings()[i] }

func (m *BlockTridiag) couplings() []Coupling {
	m.cpOnce.Do(func() {
		m.cps = make([]Coupling, len(m.Upper))
		for i, u := range m.Upper {
			m.cps[i] = newCoupling(u, m.Lower[i])
		}
	})
	return m.cps
}

// NewBlockTridiag validates the block shapes and wraps them. Upper and
// Lower must have exactly one fewer block than Diag.
func NewBlockTridiag(diag, upper, lower []*linalg.Matrix) (*BlockTridiag, error) {
	l := len(diag)
	if l == 0 {
		return nil, fmt.Errorf("sparse: block-tridiagonal matrix needs at least one layer")
	}
	if len(upper) != l-1 || len(lower) != l-1 {
		return nil, fmt.Errorf("sparse: got %d diagonal, %d upper, %d lower blocks; want L, L-1, L-1",
			l, len(upper), len(lower))
	}
	for i, d := range diag {
		if d.Rows != d.Cols {
			return nil, fmt.Errorf("sparse: diagonal block %d is %dx%d, not square", i, d.Rows, d.Cols)
		}
	}
	for i := 0; i < l-1; i++ {
		ni, nj := diag[i].Rows, diag[i+1].Rows
		if upper[i].Rows != ni || upper[i].Cols != nj {
			return nil, fmt.Errorf("sparse: upper block %d is %dx%d, want %dx%d",
				i, upper[i].Rows, upper[i].Cols, ni, nj)
		}
		if lower[i].Rows != nj || lower[i].Cols != ni {
			return nil, fmt.Errorf("sparse: lower block %d is %dx%d, want %dx%d",
				i, lower[i].Rows, lower[i].Cols, nj, ni)
		}
	}
	return &BlockTridiag{Diag: diag, Upper: upper, Lower: lower}, nil
}

// Layers returns the number of principal layers.
func (m *BlockTridiag) Layers() int { return len(m.Diag) }

// LayerSize returns the orbital count of layer i.
func (m *BlockTridiag) LayerSize(i int) int { return m.Diag[i].Rows }

// N returns the total matrix order (sum of layer sizes).
func (m *BlockTridiag) N() int {
	n := 0
	for _, d := range m.Diag {
		n += d.Rows
	}
	return n
}

// Offsets returns the starting global row index of each layer plus a final
// sentinel equal to N().
func (m *BlockTridiag) Offsets() []int {
	off := make([]int, m.Layers()+1)
	for i, d := range m.Diag {
		off[i+1] = off[i] + d.Rows
	}
	return off
}

// Clone returns a deep copy of m.
func (m *BlockTridiag) Clone() *BlockTridiag {
	c := &BlockTridiag{
		Diag:  make([]*linalg.Matrix, len(m.Diag)),
		Upper: make([]*linalg.Matrix, len(m.Upper)),
		Lower: make([]*linalg.Matrix, len(m.Lower)),
	}
	for i, d := range m.Diag {
		c.Diag[i] = d.Clone()
	}
	for i := range m.Upper {
		c.Upper[i] = m.Upper[i].Clone()
		c.Lower[i] = m.Lower[i].Clone()
	}
	return c
}

// Dense expands m into a dense matrix (for tests and small systems).
func (m *BlockTridiag) Dense() *linalg.Matrix {
	off := m.Offsets()
	d := linalg.New(m.N(), m.N())
	for i, blk := range m.Diag {
		d.SetSubmatrix(off[i], off[i], blk)
	}
	for i := range m.Upper {
		d.SetSubmatrix(off[i], off[i+1], m.Upper[i])
		d.SetSubmatrix(off[i+1], off[i], m.Lower[i])
	}
	return d
}

// MulVec returns m·x for a global vector x.
func (m *BlockTridiag) MulVec(x []complex128) []complex128 {
	off := m.Offsets()
	if len(x) != off[len(off)-1] {
		panic("sparse: dimension mismatch in BlockTridiag.MulVec")
	}
	y := make([]complex128, len(x))
	l := m.Layers()
	for i := 0; i < l; i++ {
		xi := x[off[i]:off[i+1]]
		yi := m.Diag[i].MulVec(xi)
		copy(y[off[i]:off[i+1]], yi)
	}
	for i := 0; i < l-1; i++ {
		// Upper: layer i gains coupling to layer i+1.
		u := m.Upper[i].MulVec(x[off[i+1]:off[i+2]])
		for k, v := range u {
			y[off[i]+k] += v
		}
		// Lower: layer i+1 gains coupling to layer i.
		lo := m.Lower[i].MulVec(x[off[i]:off[i+1]])
		for k, v := range lo {
			y[off[i+1]+k] += v
		}
	}
	return y
}

// IsHermitian reports whether every diagonal block is Hermitian and every
// lower block is the adjoint of its upper partner, to within tol.
func (m *BlockTridiag) IsHermitian(tol float64) bool {
	for _, d := range m.Diag {
		if !d.IsHermitian(tol) {
			return false
		}
	}
	for i := range m.Upper {
		if !m.Lower[i].IsAdjoint(m.Upper[i], tol) {
			return false
		}
	}
	return true
}

// hermitianTol is how far, relative to H's largest entry, a Hamiltonian may
// sit from its adjoint: assembly rounding is ~1e-16 of it.
const hermitianTol = 1e-12

// CheckHermitian refuses a Hamiltonian further from its adjoint than
// hermitianTol of its largest entry. The interior elimination of a
// ReducedSystem reads H_ii[S,I] as H_ii[I,S]†, so both transport solvers
// refuse such a device by name rather than solve it into a plausible number.
func (m *BlockTridiag) CheckHermitian() error {
	var scale float64 // the largest |Re| or |Im| of m: within √2 of its largest entry
	for _, blocks := range [2][]*linalg.Matrix{m.Diag, m.Upper} {
		for _, b := range blocks {
			for _, v := range b.Data {
				scale = max(scale, math.Abs(real(v)), math.Abs(imag(v)))
			}
		}
	}
	if !m.IsHermitian(hermitianTol * scale) {
		return fmt.Errorf("the device Hamiltonian is not Hermitian to %g of its largest entry", hermitianTol)
	}
	return nil
}

// Coupling is one nearest-neighbour coupling of a block-tridiagonal matrix
// in its support space: A_{i,i+1} is nonzero only on Rows × Cols (Rows in
// layer i, Cols in layer i+1) and A_{i+1,i} only on Cols × Rows; U and L are
// those two blocks, gathered. Rows and Cols are unions over both blocks, so
// A_{i+1,i} ≠ A_{i,i+1}† is covered; for A = z·I − H, H Hermitian, they are
// the row and column support of U.
type Coupling struct {
	Rows, Cols []int
	U, L       *linalg.Matrix
}

func newCoupling(u, l *linalg.Matrix) Coupling {
	c := Coupling{Rows: Union(RowSupport(u), ColumnSupport(l)), Cols: Union(ColumnSupport(u), RowSupport(l))}
	c.U = linalg.New(len(c.Rows), len(c.Cols))
	Gather(c.U, u, c.Rows, c.Cols)
	c.L = linalg.New(len(c.Cols), len(c.Rows))
	Gather(c.L, l, c.Cols, c.Rows)
	return c
}

// ShiftedSystem builds the per-energy open-system matrices A(z) = z·I − H
// of one fixed Hermitian H for the transport kernels. The couplings of A,
// −U_i and −L_i, do not depend on z: they are negated once, here, whole and
// compressed to their supports, and every energy shares them read-only, so
// an energy point rebuilds only the diagonal blocks. H must not change once
// the system is built.
type ShiftedSystem struct {
	h   *BlockTridiag
	neg *BlockTridiag // −U_i, −L_i and their compressed forms; no diagonal
}

// NewShiftedSystem negates the couplings of h.
func NewShiftedSystem(h *BlockTridiag) *ShiftedSystem {
	// 0 − v, not −v: the bits of the 0 + (−1)·v the couplings were built by
	// when every energy negated its own copy — a structural zero stays +0.
	negate := func(blocks []*linalg.Matrix) []*linalg.Matrix {
		out := make([]*linalg.Matrix, len(blocks))
		for i, b := range blocks {
			out[i] = linalg.New(b.Rows, b.Cols)
			for j, v := range b.Data {
				out[i].Data[j] = 0 - v
			}
		}
		return out
	}
	s := &ShiftedSystem{h: h, neg: &BlockTridiag{Upper: negate(h.Upper), Lower: negate(h.Lower)}}
	s.neg.couplings() // compressed here, outside every task's meter
	return s
}

// Coupling returns the compressed coupling between layers i and i+1. It is
// shared by every energy: read-only.
func (s *ShiftedSystem) Coupling(i int) *Coupling { return s.neg.Coupling(i) }

// Diag returns the diagonal block z·I − H_ii checked out of ws. Callers
// mutate it (self-energy subtraction, the folded-in neighbour layer) but must
// not let it escape the solve.
func (s *ShiftedSystem) Diag(i int, z complex128, ws *linalg.Workspace) *linalg.Matrix {
	d := s.h.Diag[i]
	m := ws.Get(d.Rows, d.Cols)
	linalg.ShiftedNegInto(m, d, z)
	return m
}

// At returns A = z·I − H with its diagonal blocks checked out of ws: the
// per-solve system matrix, valid only until ws is released. It carries the
// system's compressed couplings; callers must not write to the shared ones.
func (s *ShiftedSystem) At(z complex128, ws *linalg.Workspace) *BlockTridiag {
	a := view(make([]*linalg.Matrix, len(s.h.Diag)), s.neg.Upper, s.neg.Lower, s.neg.couplings())
	for i := range a.Diag {
		a.Diag[i] = s.Diag(i, z, ws)
	}
	return a
}

// AddScaledToDiagBlock accumulates scale·s into diagonal block i without
// materializing the scaled copy — the self-energy subtraction pattern
// AddScaledToDiagBlock(i, sigma, -1) of the open-system assembly.
func (m *BlockTridiag) AddScaledToDiagBlock(i int, s *linalg.Matrix, scale complex128) {
	m.Diag[i].AddScaled(s, scale)
}
