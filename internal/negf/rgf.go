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

	// flops is what a lane group counts per lane at take, density off and
	// on, built by the first group (laneFlops).
	flopsOnce sync.Once
	flops     [2]int64
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
// (Group).
func (s *Solver) SolveWithSigma(ctx context.Context, e float64, sigL, sigR *linalg.Matrix, density bool) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	defer perf.StartPhase("rgf")()
	return s.solveWithSigma(e, complex(e, s.Eta), sigL, sigR, density)
}

// SolveGroup solves the energies es — at most linalg.Lanes of them — in
// lanes (Group), with density output or without: the RGF kernel (rgf) on a
// lane set, Σ from the cache when the solver has one and in lanes
// otherwise. It returns nil where the energies share nothing
// (LaneSolver.Group).
func (s *Solver) SolveGroup(es []float64, density bool) *Group {
	ls := LaneSolver{Solo: s, Leads: s.Leads, Eta: s.Eta, Cache: s.Cache, Kernel: s.laneKernel}
	ls.Sys, _ = s.reduced() // a failure makes no group: each solo solve returns it
	return ls.Group(es, density)
}

// laneKernel is the RGF kernel (rgf) on a lane group's lanes.
func (s *Solver) laneKernel(set *sparse.Set, in *LaneInput) (linalg.LaneMask, int64) {
	defer perf.StartPhase("rgf")()
	red := s.open.LanesAt(set, &in.Z, &in.Sigma[left], &in.Sigma[right], in.Live)
	nl := s.H.Layers()
	for l := 0; l < linalg.Lanes; l++ {
		if in.Live.Has(l) {
			in.Res[l] = newResult(real(in.Z[l]), nl, in.Density)
		}
	}
	failed, _ := s.rgf(set, reducedAt{lanes: red}, &in.Gamma, &in.Res, in.Density, in.Live)
	return failed, s.laneFlops(in.Density)
}

// laneFlops returns rgfFlops of a lane, every layer eliminated, on the
// solver's reduced system.
func (s *Solver) laneFlops(density bool) int64 {
	s.flopsOnce.Do(func() {
		sys := s.open
		sizes, sups, shared := sys.Shape()
		rows, cols := make([]int, len(sizes)-1), make([]int, len(sizes)-1)
		for i := range rows {
			c := sys.Coupling(i)
			rows[i], cols[i] = len(c.Rows), len(c.Cols)
		}
		cG, rG := len(sys.LeftContact()), len(sys.RightContact())
		for d, on := range []bool{false, true} {
			s.flops[d] = rgfFlops(sizes, sups, sups, shared, rows, cols, cG, rG, on)
		}
	})
	if density {
		return s.flops[1]
	}
	return s.flops[0]
}

// selfEnergies routes through the cache when one is attached.
func (s *Solver) selfEnergies(z complex128) (*linalg.Matrix, *linalg.Matrix, error) {
	return CachedSelfEnergies(s.Cache, s.Leads, z)
}

// solveWithSigma is the RGF kernel (rgf) at one energy on a solo set: the
// reduced open system A = ReducedSystem.At(z, Σ_L, Σ_R) and the
// broadenings, as per-solve workspace scratch, so the sweeps run
// allocation-free and parallel energy points never share buffers.
func (s *Solver) solveWithSigma(e float64, z complex128, sigL, sigR *linalg.Matrix, density bool) (*Result, error) {
	sys, err := s.reduced()
	if err != nil {
		return nil, err
	}
	ws := linalg.GetWorkspace()
	defer ws.Release()
	red := sys.At(z, sigL, sigR, ws)
	var gamma [2][linalg.Lanes]*linalg.Matrix
	gamma[left][0], gamma[right][0] = ws.Get(sigL.Rows, sigL.Rows), ws.Get(sigR.Rows, sigR.Rows)
	BroadeningInto(gamma[left][0], sigL)
	BroadeningInto(gamma[right][0], sigR)
	res := [linalg.Lanes]*Result{newResult(e, s.H.Layers(), density)}
	set := sparse.SoloSet(ws)
	if _, err := s.rgf(&set, reducedAt{solo: red}, &gamma, &res, density, 1); err != nil {
		return nil, err
	}
	return res[0], nil
}

// newResult returns the result at e an RGF solve fills in: with density,
// zeroed spectra of nl layers.
func newResult(e float64, nl int, density bool) *Result {
	r := &Result{E: e}
	if density {
		r.SpectralL, r.SpectralR = make([]float64, nl), make([]float64, nl)
	}
	return r
}

// reducedAt is the reduced open system at the energies of a lane set: one
// energy's sparse.Reduced on a solo set, a sparse.LaneReduced on a lane set.
type reducedAt struct {
	solo  *sparse.Reduced
	lanes *sparse.LaneReduced
}

// diag returns layer i's block of A.
func (r reducedAt) diag(i int) sparse.Block {
	if r.lanes != nil {
		return sparse.Block{V: r.lanes.Diag[i]}
	}
	return sparse.Block{M: r.solo.A.Diag[i]}
}

// interior returns the interior of layer i's block x of a solution of A in
// the eigenbasis of H_ii[I,I] (sparse.Reduced.Interior).
func (r reducedAt) interior(set *sparse.Set, i int, x sparse.Block) sparse.Block {
	if r.lanes != nil {
		return sparse.Block{V: r.lanes.Interior(i, x.V)}
	}
	return sparse.Block{M: r.solo.Interior(i, x.M, set.Workspace())}
}

// rgf is the RGF kernel on the reduced open system A, red, whose layer i
// keeps S_i = C_{i−1} ∪ R_i first (then the interior, where the guard keeps
// the layer whole), for every lane of live: one energy on the solo kernels,
// or up to linalg.Lanes in lockstep, where every layer is eliminated and
// has the same shape in every lane (sparse.Set). gamma holds each lane's Γ_L
// and Γ_R, gamma[left][l] and gamma[right][l]. Lane l's T and, with
// density, its spectra (newResult's SpectralL and SpectralR) land in
// res[l]. Per layer the one cubic
// operation is the LU of the left-connected sparse.Block, solved against the
// first |S_i| identity columns (sparse.Set.InverseColumns); every product runs
// on the supports of A's couplings and of the contacts. With density the
// columns G[:, C_Γ] and G[:, R_Γ] are formed side by side on the kept rows
// x_i, and each layer's spectra are the forms v·Γ·v† summed over the rows v
// of x_i and of y_i = Reduced.Interior(x_i), the interior in its
// eigenbasis: no orbital is recovered. A dense coupling is the same code
// with r = n. DESIGN.md §11 has the recursions. It returns the lanes whose
// left-connected block was singular, with the error of the last of them;
// nothing is formed for those lanes.
func (s *Solver) rgf(set *sparse.Set, red reducedAt, gamma *[2][linalg.Lanes]*linalg.Matrix, res *[linalg.Lanes]*Result, density bool, live linalg.LaneMask) (failed linalg.LaneMask, err error) {
	sys := s.open
	nl := s.H.Layers()
	posL, posR := sys.LeftContact(), sys.RightContact()
	cG, rG := len(posL), len(posR)

	// Forward pass: g_i = (A_ii − l_{i−1}·g_{i−1}·u_{i−1})⁻¹[:, S_i], the fold
	// formed on C_{i−1} × C_{i−1}; the positions of W_i = C_{i−1} (C_Γ at
	// i = 0) and R_i index g_i's columns directly. With density also
	// yl_i = g^L_{i,0}[:, C_Γ] (g_0[:, C_Γ], then −g_i[:, W_i]·lq_{i−1}) and
	// lq_i = l_i·yl_i[R_i, :], where the next layer reads it.
	cols := make([]sparse.Block, 3*nl)
	g, yl, lq := cols[:nl], cols[nl:2*nl], cols[2*nl:]
	for i := 0; i < nl; i++ {
		d := red.diag(i)
		m := set.Get(d.Rows(), d.Rows())
		set.Copy(m, d)
		w := posL
		if i > 0 {
			p := sys.Coupling(i - 1)
			w = p.Cols
			grr := set.Get(len(p.Rows), len(p.Rows))
			set.Gather(grr, g[i-1], p.Rows, p.Rows)
			lg := set.Get(len(p.Cols), len(p.Rows))
			set.Gemm(lg, 1, set.Common(p.L), grr, 0)
			fold := set.Get(len(p.Cols), len(p.Cols))
			set.Gemm(fold, -1, lg, set.Common(p.U), 0)
			set.ScatterAdd(m, fold, p.Cols, p.Cols)
			set.Put(grr)
			set.Put(lg)
			set.Put(fold)
		}
		gi, bad, lerr := set.InverseColumns(m, sys.SupportSize(i), live)
		g[i] = gi
		set.Put(m)
		if bad != 0 {
			failed |= bad
			err = fmt.Errorf("negf: RGF forward block %d: %w", i, lerr)
			if live &^= bad; live == 0 {
				return failed, err
			}
			set.Zero(g[i], bad)
		}
		if !density {
			continue
		}
		all := s.axis[:g[i].Rows()]
		yl[i] = set.Get(len(all), cG)
		if i == 0 {
			set.Gather(yl[0], g[0], all, posL)
		} else {
			gw := set.Get(len(all), len(w))
			set.Gather(gw, g[i], all, w)
			set.Gemm(yl[i], -1, gw, lq[i-1], 0)
			set.Put(gw)
		}
		if i < nl-1 {
			c := sys.Coupling(i)
			q := set.Get(len(c.Rows), cG)
			set.Gather(q, yl[i], c.Rows, s.axis[:cG])
			lq[i] = set.Get(len(c.Cols), cG)
			set.Gemm(lq[i], 1, set.Common(c.L), q, 0)
			set.Put(q)
		}
	}

	// Backward pass, the block back-substitution of the columns on the
	// contact supports: X_{N−1} = [yl_{N−1} | g_{N−1}[:, R_Γ]] and
	// X_i = [yl_i | 0] − g_i[:, R_i]·(u_i·X_{i+1}[C_i, :]), so that
	// X_i = [G_{i,0}[:, C_Γ] | G_{i,N−1}[:, R_Γ]]. Without density only the
	// R_Γ columns on the rows W_i, all the next layer reads, are formed; at
	// i = 0 they are G_{0,N−1}[C_Γ, R_Γ], the block of the Caroli trace.
	var x sparse.Block
	for i := nl - 1; i >= 0; i-- {
		rows, width := posL, rG
		if i > 0 {
			rows = sys.Coupling(i - 1).Cols
		}
		if density {
			rows, width = s.axis[:g[i].Rows()], cG+rG
		}
		xi := set.Zeroed(len(rows), width)
		if density {
			set.Place(xi, 0, yl[i], rows, s.axis[:cG])
		}
		if i == nl-1 {
			set.Place(xi, width-rG, g[i], rows, posR)
		}
		if i < nl-1 {
			c := sys.Coupling(i)
			if density {
				// X_{i+1}[C_i, :]; without density x holds just those rows.
				xc := set.Get(len(c.Cols), width)
				set.Gather(xc, x, c.Cols, s.axis[:width])
				set.Put(x)
				x = xc
			}
			ux := set.Get(len(c.Rows), width)
			set.Gemm(ux, 1, set.Common(c.U), x, 0)
			gR := set.Get(len(rows), len(c.Rows))
			set.Gather(gR, g[i], rows, c.Rows)
			set.Gemm(xi, -1, gR, ux, 1)
			set.Put(ux)
			set.Put(gR)
			set.Put(x)
		}
		if density {
			y := red.interior(set, i, xi)
			addForms(set, res, i, xi, cG, gamma, live)
			addForms(set, res, i, y, cG, gamma, live)
			set.Count(int64(xi.Rows()+y.Rows()) * int64(cG*(cG+1)/2+rG*(rG+1)/2) * perf.FlopsCMulAdd)
			set.Put(y)
		}
		x = xi
	}

	// Caroli transmission T = Tr[Γ_L·G_{0,N-1}·Γ_R·G_{0,N-1}†] on the blocks
	// where the Γ are nonzero, with the adjoint folded into the O(n²) trace
	// kernel instead of a fourth product. The product is associated as
	// (Γ_L·G)·Γ_R, which Mul3Into picks: the two orders cost the same here.
	y := x
	if density {
		y = set.Get(cG, rG)
		set.Gather(y, x, posL, s.axis[cG:cG+rG])
	}
	gy, tns := set.Get(cG, rG), set.Get(cG, rG)
	set.Gemm(gy, 1, set.PerLane(&gamma[left], live), y, 0)
	set.Gemm(tns, 1, gy, set.PerLane(&gamma[right], live), 0)
	for l, t := range set.TraceMulConj(tns, y) {
		if live.Has(l) {
			res[l].T = real(t)
		}
	}
	return failed, err
}

// rgfFlops returns the flops one solo solve at given self-energies
// (solveWithSigma) counts, density off or on: sparse.ReducedFlops for the
// reduced open system (the interior at width c_Γ + r_Γ with density), plus
// per layer of order m_i = kept[i] (|S_i| = sups[i], or n_i = sizes[i] where
// the guard keeps it whole) one m_i×m_i LU solved against the |S_i| support
// columns and products with an r-sized dimension, plus the forms v·Γ_L·v†
// and v·Γ_R·v† on the rows v of [x_i; y_i] — m_i kept rows and n_i − m_i
// interior ones, n_i either way — at c_Γ(c_Γ+1)/2 + r_Γ(r_Γ+1)/2
// multiply-adds each. shared is ReducedFlops'; coupling i has rows[i] rows
// and cols[i] columns, and the contacts' supports c_Γ and r_Γ orbitals. A
// lane group counts it at take for each lane, and TestRGFFlopCount holds
// the kernel to it.
func rgfFlops(sizes, sups, kept []int, shared []bool, rows, cols []int, cG, rG int, density bool) int64 {
	gemm := func(n, k, p int) int64 { return perf.GemmFlops(n, k, p) }
	sq := func(n int) int64 { return int64(n) * int64(n) }
	// Contacts: Γ on its support, twice; the Caroli trace.
	f := (sq(cG)+sq(rG))*(perf.FlopsCAdd+perf.FlopsCMul) +
		gemm(cG, cG, rG) + gemm(cG, rG, rG) + int64(cG*rG)*perf.FlopsCMulAdd +
		sparse.ReducedFlops(sizes, kept, shared, cG, rG, cG+rG, density)
	nl := len(sizes)
	for i := 0; i < nl; i++ {
		m := kept[i]
		// Forward: the fold, the LU and its solve against S_i.
		f += perf.LUFlops(m) + perf.SolveFlops(m, sups[i])
		w := cG
		if i > 0 {
			r, c := rows[i-1], cols[i-1]
			f += gemm(c, r, r) + gemm(c, r, c) + sq(c)*perf.FlopsCAdd
			w = c
		}
		// Backward: u_i·X_{i+1}[C_i, :] and g_i[rows, R_i]·that, on the R_Γ
		// columns of rows W_i, or with density on both column sets of every
		// kept row.
		height, width := w, rG
		if density {
			height, width = m, cG+rG
		}
		if i < nl-1 {
			f += gemm(rows[i], cols[i], width) + gemm(height, rows[i], width)
		}
		if density {
			if i > 0 {
				f += gemm(m, w, cG) // g^L_{i,0}[:, C_Γ]
			}
			if i < nl-1 {
				f += gemm(cols[i], rows[i], cG) // l_i·g^L_{i,0}[R_i, C_Γ]
			}
			f += int64(sizes[i]) * int64(cG*(cG+1)/2+rG*(rG+1)/2) * perf.FlopsCMulAdd
		}
	}
	return f
}

// addForms adds to each live lane's spectra at layer i the forms
// v·Γ_L·v† and v·Γ_R·v† (form) of every row v = [v_L | v_R] of m, c entries
// in v_L, in row order, against that lane's gamma[left] and gamma[right].
// A lane set copies each lane out (LaneMatrix.LaneInto) and runs form on
// it, so every lane holds the solo sums bit for bit.
func addForms(set *sparse.Set, res *[linalg.Lanes]*Result, i int, m sparse.Block, c int, gamma *[2][linalg.Lanes]*linalg.Matrix, live linalg.LaneMask) {
	ws := set.Workspace()
	for l := 0; l < linalg.Lanes; l++ {
		if !live.Has(l) {
			continue
		}
		x := m.M
		if x == nil {
			x = ws.Get(m.V.Rows, m.V.Cols)
			m.V.LaneInto(x, l)
		}
		r := res[l]
		for q := 0; q < x.Rows; q++ {
			row := x.Data[q*x.Cols : (q+1)*x.Cols]
			r.SpectralL[i] += form(row[:c], gamma[left][l])
			r.SpectralR[i] += form(row[c:], gamma[right][l])
		}
		if m.M == nil {
			ws.Put(x)
		}
	}
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
