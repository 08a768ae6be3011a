package negf

import (
	"context"
	"fmt"
	"math/cmplx"
	"sync"

	"repro/internal/linalg"
	"repro/internal/perf"
	"repro/internal/sparse"
)

// Solver runs ballistic NEGF calculations on a fixed device Hamiltonian.
type Solver struct {
	// H is the Hermitian device Hamiltonian in block-tridiagonal layer form,
	// fixed once the first energy is solved.
	H *sparse.BlockTridiag
	// Leads are the semi-infinite contacts.
	Leads *Leads
	// Eta is the imaginary broadening (eV) added to the energy; it must be
	// positive for the retarded functions to exist. Typical: 1e-6.
	Eta float64
	// Cache optionally memoizes the contact self-energies across solves
	// (valid while the lead blocks stay fixed, e.g. within a
	// self-consistent loop with pinned contacts).
	Cache *SelfEnergyCache

	// open is the open system reduced to the lead couplings' supports and
	// axis the index list 0, 1, … of an axis gathered whole, both built by
	// the first solve (reduced).
	openOnce sync.Once
	open     *sparse.ReducedSystem
	openErr  error
	axis     []int
}

// NewSolver builds a Solver with flat-band leads continued from the device
// end layers. H must be Hermitian (sparse.BlockTridiag.CheckHermitian).
func NewSolver(h *sparse.BlockTridiag, eta float64) (*Solver, error) {
	if eta <= 0 {
		return nil, fmt.Errorf("negf: broadening must be positive, got %g", eta)
	}
	if err := h.CheckHermitian(); err != nil {
		return nil, fmt.Errorf("negf: %w", err)
	}
	leads, err := LeadsFromDevice(h)
	if err != nil {
		return nil, err
	}
	return &Solver{H: h, Leads: leads, Eta: eta}, nil
}

// Result holds the single-energy output of an NEGF solve.
type Result struct {
	// E is the real part of the energy (eV).
	E float64
	// T is the transmission function from left to right contact.
	T float64
	// SpectralL and SpectralR are the contact-resolved spectral functions
	// summed over each layer's orbitals, Σ_{o∈layer i} [G·Γ_L·G†]_oo and the
	// same with Γ_R: layer-resolved, nl entries each, populated when the
	// solve is run with density output. Layer i's electron count follows as
	// n_i = ∫ dE/(2π) [SpectralL·f_L + SpectralR·f_R], and its density of
	// states, the one both formalisms report, as (SpectralL + SpectralR)/2π;
	// it differs from −Im Tr_i G/π by the broadening's own absorption
	// 2η·Tr_i[G·G†]/2π, which vanishes with η (DESIGN.md §11).
	SpectralL, SpectralR []float64
}

// Solve runs the RGF algorithm at energy e. With density=false only the
// transmission is produced (one forward pass plus the boundary column);
// with density=true the layer-resolved contact spectra are also assembled.
func (s *Solver) Solve(e float64, density bool) (*Result, error) {
	return s.SolveCtx(context.Background(), e, density)
}

// SolveCtx is Solve with cooperative cancellation: the solve aborts
// between its phases (self-energies, RGF sweep) when ctx is canceled, so
// a failing sibling energy point in a parallel spectrum stops this one
// early.
func (s *Solver) SolveCtx(ctx context.Context, e float64, density bool) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sigL, sigR, err := s.selfEnergies(complex(e, s.Eta))
	if err != nil {
		return nil, err
	}
	return s.SolveWithSigma(ctx, e, sigL, sigR, density)
}

// SolveWithSigma is SolveCtx with the contact self-energies at e + iη
// given — Σ_L and Σ_R as Leads.SelfEnergies returns them — instead of
// computed: what a transmission sweep runs with Σ taken from a lane group
// (SigmaGroup).
func (s *Solver) SolveWithSigma(ctx context.Context, e float64, sigL, sigR *linalg.Matrix, density bool) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	defer perf.StartPhase("rgf")()
	return s.solveWithSigma(e, complex(e, s.Eta), sigL, sigR, density)
}

// selfEnergies routes through the cache when one is attached.
func (s *Solver) selfEnergies(z complex128) (*linalg.Matrix, *linalg.Matrix, error) {
	return CachedSelfEnergies(s.Cache, s.Leads, z)
}

// solveWithSigma is the RGF kernel on the reduced open system
// A = ReducedSystem.At(z, Σ_L, Σ_R), whose layer i keeps S_i = C_{i−1} ∪ R_i
// first (then the interior, where the guard keeps the layer whole). Per
// layer its one cubic operation is the LU of the left-connected block,
// solved against the first |S_i| identity columns (leftConnected); every
// product runs on the supports of A's couplings and of the contacts. With
// density the columns G[:, C_Γ] and G[:, R_Γ] are formed side by side on the
// kept rows x_i, and each layer's spectra are the forms v·Γ·v† summed over
// the rows v of x_i and of y_i = Reduced.Interior(x_i), the interior in its
// eigenbasis: no orbital is recovered. A dense coupling is the same code with
// r = n. DESIGN.md §11 has the recursions.
func (s *Solver) solveWithSigma(e float64, z complex128, sigL, sigR *linalg.Matrix, density bool) (*Result, error) {
	sys, err := s.reduced()
	if err != nil {
		return nil, err
	}
	// Every temporary of the solve lives in one per-solve workspace, so the
	// sweeps run allocation-free and parallel energy points never share
	// buffers.
	ws := linalg.GetWorkspace()
	defer ws.Release()
	red := sys.At(z, sigL, sigR, ws)
	a, nl := red.A, red.A.Layers()
	posL, posR := sys.LeftContact(), sys.RightContact()
	cG, rG := len(posL), len(posR)
	gamL, gamR := ws.Get(cG, cG), ws.Get(rG, rG)
	BroadeningInto(gamL, sigL)
	BroadeningInto(gamR, sigR)

	// Forward pass: g_i = (A_ii − l_{i−1}·g_{i−1}·u_{i−1})⁻¹[:, S_i], the fold
	// formed on C_{i−1} × C_{i−1}; the positions of W_i = C_{i−1} (C_Γ at
	// i = 0) and R_i index g_i's columns directly. With density also
	// yl_i = g^L_{i,0}[:, C_Γ] (g_0[:, C_Γ], then −g_i[:, W_i]·lq_{i−1}) and
	// lq_i = l_i·yl_i[R_i, :], where the next layer reads it.
	cols := make([]*linalg.Matrix, 3*nl)
	g, yl, lq := cols[:nl], cols[nl:2*nl], cols[2*nl:]
	for i := 0; i < nl; i++ {
		m := ws.Get(a.LayerSize(i), a.LayerSize(i))
		m.CopyFrom(a.Diag[i])
		w := posL
		if i > 0 {
			p := a.Coupling(i - 1)
			w = p.Cols
			grr := ws.Get(len(p.Rows), len(p.Rows))
			sparse.Gather(grr, g[i-1], p.Rows, p.Rows)
			lg := ws.Get(len(p.Cols), len(p.Rows))
			linalg.MulInto(lg, p.L, linalg.NoTrans, grr, linalg.NoTrans)
			fold := ws.Get(len(p.Cols), len(p.Cols))
			linalg.GemmInto(fold, -1, lg, linalg.NoTrans, p.U, linalg.NoTrans, 0)
			sparse.ScatterAdd(m, fold, p.Cols, p.Cols)
			ws.Put(grr)
			ws.Put(lg)
			ws.Put(fold)
		}
		g[i], err = leftConnected(m, sys.SupportSize(i), ws)
		ws.Put(m)
		if err != nil {
			return nil, fmt.Errorf("negf: RGF forward block %d: %w", i, err)
		}
		if !density {
			continue
		}
		all := s.axis[:g[i].Rows]
		yl[i] = ws.Get(len(all), cG)
		if i == 0 {
			sparse.Gather(yl[0], g[0], all, posL)
		} else {
			gw := ws.Get(len(all), len(w))
			sparse.Gather(gw, g[i], all, w)
			linalg.GemmInto(yl[i], -1, gw, linalg.NoTrans, lq[i-1], linalg.NoTrans, 0)
			ws.Put(gw)
		}
		if i < nl-1 {
			c := a.Coupling(i)
			q := ws.Get(len(c.Rows), cG)
			sparse.Gather(q, yl[i], c.Rows, s.axis[:cG])
			lq[i] = ws.Get(len(c.Cols), cG)
			linalg.MulInto(lq[i], c.L, linalg.NoTrans, q, linalg.NoTrans)
			ws.Put(q)
		}
	}

	res := &Result{E: e}
	if density {
		res.SpectralL, res.SpectralR = make([]float64, nl), make([]float64, nl)
	}

	// Backward pass, the block back-substitution of the columns on the
	// contact supports: X_{N−1} = [yl_{N−1} | g_{N−1}[:, R_Γ]] and
	// X_i = [yl_i | 0] − g_i[:, R_i]·(u_i·X_{i+1}[C_i, :]), so that
	// X_i = [G_{i,0}[:, C_Γ] | G_{i,N−1}[:, R_Γ]]. Without density only the
	// R_Γ columns on the rows W_i, all the next layer reads, are formed; at
	// i = 0 they are G_{0,N−1}[C_Γ, R_Γ], the block of the Caroli trace.
	var x *linalg.Matrix
	for i := nl - 1; i >= 0; i-- {
		rows, width := posL, rG
		if i > 0 {
			rows = a.Coupling(i - 1).Cols
		}
		if density {
			rows, width = s.axis[:g[i].Rows], cG+rG
		}
		xi := ws.Get(len(rows), width)
		for q, o := range rows {
			row := xi.Data[q*width : (q+1)*width]
			if density {
				copy(row, yl[i].Data[q*cG:(q+1)*cG])
			}
			if i == nl-1 {
				for j, p := range posR {
					row[width-rG+j] = g[i].Data[o*g[i].Cols+p]
				}
			}
		}
		if i < nl-1 {
			c := a.Coupling(i)
			if density {
				// X_{i+1}[C_i, :]; without density x holds just those rows.
				xc := ws.Get(len(c.Cols), width)
				sparse.Gather(xc, x, c.Cols, s.axis[:width])
				ws.Put(x)
				x = xc
			}
			ux := ws.Get(len(c.Rows), width)
			linalg.MulInto(ux, c.U, linalg.NoTrans, x, linalg.NoTrans)
			gR := ws.Get(len(rows), len(c.Rows))
			sparse.Gather(gR, g[i], rows, c.Rows)
			linalg.GemmInto(xi, -1, gR, linalg.NoTrans, ux, linalg.NoTrans, 1)
			ws.Put(ux)
			ws.Put(gR)
			ws.Put(x)
		}
		if density {
			y := red.Interior(i, xi, ws)
			for _, m := range []*linalg.Matrix{xi, y} {
				for q := 0; q < m.Rows; q++ {
					row := m.Data[q*width : (q+1)*width]
					res.SpectralL[i] += form(row[:cG], gamL)
					res.SpectralR[i] += form(row[cG:], gamR)
				}
			}
			perf.AddFlops(int64(xi.Rows+y.Rows) * int64(cG*(cG+1)/2+rG*(rG+1)/2) * perf.FlopsCMulAdd)
			ws.Put(y)
		}
		x = xi
	}

	// Caroli transmission T = Tr[Γ_L·G_{0,N-1}·Γ_R·G_{0,N-1}†] on the blocks
	// where the Γ are nonzero, with the adjoint folded into the O(n²) trace
	// kernel instead of a fourth product.
	y := x
	if density {
		y = ws.Get(cG, rG)
		sparse.Gather(y, x, posL, s.axis[cG:cG+rG])
	}
	tns := ws.Get(cG, rG)
	linalg.Mul3Into(tns, gamL, linalg.NoTrans, y, linalg.NoTrans, gamR, linalg.NoTrans, ws)
	res.T = real(linalg.TraceMulConj(tns, y))
	return res, nil
}

// form returns v·g·v†, real for a Hermitian g, from g's upper triangle:
// Σ_a g_aa·|v_a|² + 2·Re Σ_{a<b} v_a·g_ab·v̄_b, c(c+1)/2 multiply-adds for
// c = len(v).
func form(v []complex128, g *linalg.Matrix) float64 {
	var s float64
	for a, va := range v {
		row := g.Data[a*g.Cols : (a+1)*g.Cols]
		var t complex128
		for b := a + 1; b < len(v); b++ {
			t += row[b] * cmplx.Conj(v[b])
		}
		s += real(row[a])*(real(va)*real(va)+imag(va)*imag(va)) + 2*real(va*t)
	}
	return s
}

// leftConnected factors the left-connected block m in place and solves it
// against the identity's first s columns, g_i[:, S_i] with S_i the first s
// rows of m, as ws scratch. Every column of the solve is bit for bit that
// column of m's whole inverse (linalg's luSolveInPlace), at s/n of the
// solve's cost.
func leftConnected(m *linalg.Matrix, s int, ws *linalg.Workspace) (*linalg.Matrix, error) {
	piv := ws.GetInts(m.Rows)
	defer ws.PutInts(piv)
	fac, err := linalg.FactorInPlace(m, piv)
	if err != nil {
		return nil, err
	}
	g := ws.Get(m.Rows, s)
	for j := 0; j < s; j++ {
		g.Data[j*s+j] = 1
	}
	fac.SolveInPlace(g)
	return g, nil
}

// Transmission is a convenience wrapper returning only T(e).
func (s *Solver) Transmission(e float64) (float64, error) {
	r, err := s.Solve(e, false)
	if err != nil {
		return 0, err
	}
	return r.T, nil
}

// reduced returns the reduced open system, built by the first solve from H
// and the contacts' supports (Leads.Supports).
func (s *Solver) reduced() (*sparse.ReducedSystem, error) {
	s.openOnce.Do(func() {
		left, right := s.Leads.Supports()
		s.open, s.openErr = sparse.NewReducedSystem(s.H, left, right)
		s.axis = sparse.Range(0, 2*s.H.N()) // past any layer and c_Γ + r_Γ
	})
	if s.openErr != nil {
		return nil, fmt.Errorf("negf: %w", s.openErr)
	}
	return s.open, nil
}
