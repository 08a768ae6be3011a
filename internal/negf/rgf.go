package negf

import (
	"context"
	"fmt"
	"math"
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

	// open is the z-independent part of z − H, built by the first solve.
	openOnce sync.Once
	open     *sparse.ShiftedSystem
}

// NewSolver builds a Solver with flat-band leads continued from the device
// end layers.
func NewSolver(h *sparse.BlockTridiag, eta float64) (*Solver, error) {
	if eta <= 0 {
		return nil, fmt.Errorf("negf: broadening must be positive, got %g", eta)
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
	// DOS is the orbital-resolved density of states (A_L + A_R)/2π (1/eV),
	// BallisticDOS of the spectral diagonals below and populated with them.
	DOS []float64
	// SpectralL and SpectralR are the contact-resolved spectral function
	// diagonals [G·Γ_L·G†]_ii and [G·Γ_R·G†]_ii (populated when the solve
	// is run with density output). Electron density follows as
	// n_i = ∫ dE/(2π) [SpectralL·f_L + SpectralR·f_R].
	SpectralL, SpectralR []float64
}

// BallisticDOS returns the density of states (A_L + A_R)/2π of a ballistic
// device from its contact-resolved spectral diagonals: the one definition
// both formalisms report. It differs from −Im(diag G)/π by 2η·[G·G†]_ii/2π,
// the broadening's own absorption, which vanishes with η (DESIGN.md §11).
func BallisticDOS(aL, aR []float64) []float64 {
	dos := make([]float64, len(aL))
	for i := range dos {
		dos[i] = (aL[i] + aR[i]) / (2 * math.Pi)
	}
	return dos
}

// Solve runs the RGF algorithm at energy e. With density=false only the
// transmission is produced (one forward pass plus the boundary column);
// with density=true the contact-resolved spectral diagonals and the DOS
// are also assembled.
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
	z := complex(e, s.Eta)
	sigL, sigR, err := s.selfEnergies(z)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	defer perf.StartPhase("rgf")()
	return s.solveWithSigma(e, z, sigL, sigR, density)
}

// selfEnergies routes through the cache when one is attached.
func (s *Solver) selfEnergies(z complex128) (*linalg.Matrix, *linalg.Matrix, error) {
	return CachedSelfEnergies(s.Cache, s.Leads, z)
}

// solveWithSigma is the RGF kernel. Per layer its one n×n operation is the
// LU of the left-connected block M_i, solved against only the columns S_i
// of the identity that the recursions read of g_i = M_i⁻¹ (leftConnected);
// every product runs on the supports of the couplings (sparse.Coupling: U_i
// on R_i × C_i, L_i on C_i × R_i) and of the contacts (Σ_L on C_Γ × C_Γ, Σ_R
// on R_Γ × R_Γ, read off Σ itself). A dense coupling is the same code with
// r = n. DESIGN.md §11 has the recursions.
func (s *Solver) solveWithSigma(e float64, z complex128, sigL, sigR *linalg.Matrix, density bool) (*Result, error) {
	// Every temporary of the solve lives in one per-solve workspace, so the
	// sweeps run allocation-free and parallel energy points never share
	// buffers.
	ws := linalg.GetWorkspace()
	defer ws.Release()
	sys := s.system()
	nl := s.H.Layers()
	off := s.H.Offsets()
	cG, rG := sparse.RowSupport(sigL), sparse.RowSupport(sigR)
	gamL, gamR := BroadeningOn(sigL, cG, ws), BroadeningOn(sigR, rG, ws)

	// Forward (left-connected) pass: g_i = (D_i − L_{i−1}·g_{i−1}·U_{i−1})⁻¹,
	// the fold formed on C_{i−1} × C_{i−1}; with density also
	// lq_i = l_i·g^L_{i,0}[R_i, C_Γ], the left-connected first block column
	// where the next coupling reads it. Of g_i only the columns W_i ∪ R_i
	// exist (leftConnected), W_i = C_{i−1} (C_Γ at i = 0) and R_i the rows
	// of coupling i (R_Γ on the last layer); every read of g_i goes through
	// the positions of W_i and R_i among them.
	left := make([]leftColumns, nl)
	var lq []*linalg.Matrix
	if density {
		lq = make([]*linalg.Matrix, nl-1)
	}
	for i := 0; i < nl; i++ {
		m := sys.Diag(i, z, ws)
		if i == 0 {
			m.AddScaled(sigL, -1)
		}
		if i == nl-1 {
			m.AddScaled(sigR, -1)
		}
		w, r := cG, rG
		if i > 0 {
			p := sys.Coupling(i - 1)
			w = p.Cols
			grr := ws.Get(len(p.Rows), len(p.Rows))
			sparse.Gather(grr, left[i-1].g, p.Rows, left[i-1].posR)
			lg := ws.Get(len(p.Cols), len(p.Rows))
			linalg.MulInto(lg, p.L, linalg.NoTrans, grr, linalg.NoTrans)
			fold := ws.Get(len(p.Cols), len(p.Cols))
			linalg.GemmInto(fold, -1, lg, linalg.NoTrans, p.U, linalg.NoTrans, 0)
			sparse.ScatterAdd(m, fold, p.Cols, p.Cols)
			ws.Put(grr)
			ws.Put(lg)
			ws.Put(fold)
		}
		if i < nl-1 {
			r = sys.Coupling(i).Rows
		}
		var err error
		left[i], err = leftConnected(m, w, r, ws)
		ws.Put(m)
		if err != nil {
			return nil, fmt.Errorf("negf: RGF forward block %d: %w", i, err)
		}
		if density && i < nl-1 {
			c := sys.Coupling(i)
			q := ws.Get(len(c.Rows), len(cG))
			if i == 0 {
				sparse.Gather(q, left[0].g, c.Rows, left[0].posW)
			} else {
				grw := ws.Get(len(c.Rows), len(w))
				sparse.Gather(grw, left[i].g, c.Rows, left[i].posW)
				linalg.GemmInto(q, -1, grw, linalg.NoTrans, lq[i-1], linalg.NoTrans, 0)
				ws.Put(grw)
			}
			lq[i] = ws.Get(len(c.Cols), len(cG))
			linalg.MulInto(lq[i], c.L, linalg.NoTrans, q, linalg.NoTrans)
			ws.Put(q)
		}
	}

	res := &Result{E: e}
	if density {
		res.SpectralL = make([]float64, s.H.N())
		res.SpectralR = make([]float64, s.H.N())
	}

	// Backward pass. Layer i+1 hands down x = G_{i+1,i+1}[C_i, C_i] and
	// y = G_{i+1,N−1}[C_i, R_Γ]; layer i forms, on all its rows, the columns
	// the next step reads: colW = G_ii[:, W] with W = C_{i−1} (C_Γ at i = 0)
	// and colR = G_{i,N−1}[:, R_Γ].
	var x, y *linalg.Matrix
	for i := nl - 1; i >= 0; i-- {
		ni := left[i].g.Rows
		all := sys.Axis(ni)
		w := cG
		if i > 0 {
			w = sys.Coupling(i - 1).Cols
		}
		colW := ws.Get(ni, len(w))
		sparse.Gather(colW, left[i].g, all, left[i].posW)
		colR := ws.Get(ni, len(rG))
		if i == nl-1 {
			sparse.Gather(colR, left[i].g, all, left[i].posR)
		} else {
			// G_ii[:, W] = g_i[:, W] + T₁·g_i[R_i, W] with
			// T₁ = g_i[:, R_i]·(u_i·x·l_i); G_{i,N−1} = −g_i·U_i·G_{i+1,N−1}.
			c := sys.Coupling(i)
			r := len(c.Rows)
			k := ws.Get(r, r)
			linalg.Mul3Into(k, c.U, linalg.NoTrans, x, linalg.NoTrans, c.L, linalg.NoTrans, ws)
			gR := ws.Get(ni, r)
			sparse.Gather(gR, left[i].g, all, left[i].posR)
			t1 := ws.Get(ni, r)
			linalg.MulInto(t1, gR, linalg.NoTrans, k, linalg.NoTrans)
			gRW := ws.Get(r, len(w))
			sparse.Gather(gRW, left[i].g, c.Rows, left[i].posW)
			linalg.GemmInto(colW, 1, t1, linalg.NoTrans, gRW, linalg.NoTrans, 1)
			uy := ws.Get(r, len(rG))
			linalg.MulInto(uy, c.U, linalg.NoTrans, y, linalg.NoTrans)
			linalg.GemmInto(colR, -1, gR, linalg.NoTrans, uy, linalg.NoTrans, 0)
			for _, m := range [...]*linalg.Matrix{k, gR, t1, gRW, uy, x, y} {
				ws.Put(m)
			}
		}
		if density {
			// G_{i,0}[:, C_Γ] = −G_ii[:, C_{i−1}]·l_{i−1}·g^L_{i−1,0}[R_{i−1}, C_Γ]:
			// the first block column from left-connected quantities alone.
			// Spectral diagonals [G·Γ·G†]_ii are row dots on those columns.
			colL := colW
			if i > 0 {
				colL = ws.Get(ni, len(cG))
				linalg.GemmInto(colL, -1, colW, linalg.NoTrans, lq[i-1], linalg.NoTrans, 0)
			}
			d := ws.Get(ni, 1)
			linalg.DiagMulConjInto(d.Data, colL, gamL, ws)
			for k, v := range d.Data {
				res.SpectralL[off[i]+k] = real(v)
			}
			linalg.DiagMulConjInto(d.Data, colR, gamR, ws)
			for k, v := range d.Data {
				res.SpectralR[off[i]+k] = real(v)
			}
			ws.Put(d)
			if i > 0 {
				ws.Put(colL)
			}
		}
		// Rows W of the two column sets: x and y of the layer below, or at
		// i = 0 the block G_{0,N−1}[C_Γ, R_Γ] of the Caroli trace.
		y = ws.Get(len(w), len(rG))
		sparse.Gather(y, colR, w, sys.Axis(len(rG)))
		if i > 0 {
			x = ws.Get(len(w), len(w))
			sparse.Gather(x, colW, w, sys.Axis(len(w)))
		}
		ws.Put(colW)
		ws.Put(colR)
	}

	// Caroli transmission T = Tr[Γ_L·G_{0,N-1}·Γ_R·G_{0,N-1}†] on the blocks
	// where the Γ are nonzero, with the adjoint folded into the O(n²) trace
	// kernel instead of a fourth product.
	tns := ws.Get(len(cG), len(rG))
	linalg.Mul3Into(tns, gamL, linalg.NoTrans, y, linalg.NoTrans, gamR, linalg.NoTrans, ws)
	res.T = real(linalg.TraceMulConj(tns, y))
	if density {
		res.DOS = BallisticDOS(res.SpectralL, res.SpectralR)
	}
	return res, nil
}

// leftColumns is what the forward pass keeps of g_i = M_i⁻¹: its columns
// S = W ∪ R, ascending, and where W and R sit among them.
type leftColumns struct {
	g          *linalg.Matrix // g_i[:, S]
	posW, posR []int
}

// leftConnected factors the left-connected block m in place and solves it
// against the identity's columns S = W ∪ R, all ws scratch. Every column
// of the solve is bit for bit that column of m's whole inverse (linalg's
// luSolveInPlace), at |S|/n of the solve's cost.
func leftConnected(m *linalg.Matrix, w, r []int, ws *linalg.Workspace) (leftColumns, error) {
	n := m.Rows
	piv := ws.GetInts(n)
	defer ws.PutInts(piv)
	fac, err := linalg.FactorInPlace(m, piv)
	if err != nil {
		return leftColumns{}, err
	}
	// col[o] is orbital o's position in S, or −1 off it: members are marked
	// 0, then numbered in one ascending pass.
	col := ws.GetInts(n)
	defer ws.PutInts(col)
	for o := range col {
		col[o] = -1
	}
	for _, o := range w {
		col[o] = 0
	}
	for _, o := range r {
		col[o] = 0
	}
	var s int
	for o, c := range col {
		if c == 0 {
			col[o] = s
			s++
		}
	}
	lc := leftColumns{g: ws.Get(n, s), posW: ws.GetInts(len(w)), posR: ws.GetInts(len(r))}
	for o, c := range col {
		if c >= 0 {
			lc.g.Data[o*s+c] = 1
		}
	}
	fac.SolveInPlace(lc.g)
	for j, o := range w {
		lc.posW[j] = col[o]
	}
	for j, o := range r {
		lc.posR[j] = col[o]
	}
	return lc, nil
}

// BroadeningOn returns Γ[sup, sup] = i(Σ − Σ†)[sup, sup], the block of the
// broadening outside which Σ — and so Γ — is zero, checked out of ws: how
// both formalisms read a contact, RGF on Σ's own support, the wave-function
// injection and readout on the lead coupling's.
func BroadeningOn(sigma *linalg.Matrix, sup []int, ws *linalg.Workspace) *linalg.Matrix {
	blk := ws.Get(len(sup), len(sup))
	sparse.Gather(blk, sigma, sup, sup)
	gam := ws.Get(len(sup), len(sup))
	BroadeningInto(gam, blk)
	ws.Put(blk)
	return gam
}

// Transmission is a convenience wrapper returning only T(e).
func (s *Solver) Transmission(e float64) (float64, error) {
	r, err := s.Solve(e, false)
	if err != nil {
		return 0, err
	}
	return r.T, nil
}

// system returns the z-independent part of z − H, built by the first solve.
func (s *Solver) system() *sparse.ShiftedSystem {
	s.openOnce.Do(func() { s.open = sparse.NewShiftedSystem(s.H) })
	return s.open
}
