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
	// DOS is the orbital-resolved density of states −Im(diag G)/π (1/eV).
	DOS []float64
	// SpectralL and SpectralR are the contact-resolved spectral function
	// diagonals [G·Γ_L·G†]_ii and [G·Γ_R·G†]_ii (populated when the solve
	// is run with density output). Electron density follows as
	// n_i = ∫ dE/(2π) [SpectralL·f_L + SpectralR·f_R].
	SpectralL, SpectralR []float64
}

// Solve runs the RGF algorithm at energy e. With density=false only the
// transmission and DOS are produced (one forward pass plus the boundary
// column); with density=true the contact-resolved spectral diagonals are
// also assembled.
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
// left-connected inverse g_i; every product runs on the supports of the
// couplings (sparse.Coupling: U_i on R_i × C_i, L_i on C_i × R_i) and of the
// contacts (Σ_L on C_Γ × C_Γ, Σ_R on R_Γ × R_Γ, read off Σ itself). A dense
// coupling is the same code with r = n. DESIGN.md §11 has the recursions.
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
	gamL, gamR := broadeningOn(sigL, cG, ws), broadeningOn(sigR, rG, ws)

	// Forward (left-connected) pass: g_i = (D_i − L_{i−1}·g_{i−1}·U_{i−1})⁻¹,
	// the fold formed on C_{i−1} × C_{i−1}; with density also
	// lq_i = l_i·g^L_{i,0}[R_i, C_Γ], the left-connected first block column
	// where the next coupling reads it.
	g := make([]*linalg.Matrix, nl)
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
		if i > 0 {
			p := sys.Coupling(i - 1)
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
		ni := s.H.LayerSize(i)
		g[i] = ws.Get(ni, ni)
		err := linalg.InverseInto(g[i], m, ws)
		ws.Put(m)
		if err != nil {
			return nil, fmt.Errorf("negf: RGF forward block %d: %w", i, err)
		}
		if density && i < nl-1 {
			c := sys.Coupling(i)
			q := ws.Get(len(c.Rows), len(cG))
			if i == 0 {
				sparse.Gather(q, g[0], c.Rows, cG)
			} else {
				w := sys.Coupling(i - 1).Cols
				grw := ws.Get(len(c.Rows), len(w))
				sparse.Gather(grw, g[i], c.Rows, w)
				linalg.GemmInto(q, -1, grw, linalg.NoTrans, lq[i-1], linalg.NoTrans, 0)
				ws.Put(grw)
			}
			lq[i] = ws.Get(len(c.Cols), len(cG))
			linalg.MulInto(lq[i], c.L, linalg.NoTrans, q, linalg.NoTrans)
			ws.Put(q)
		}
	}

	res := &Result{E: e, DOS: make([]float64, s.H.N())}
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
		ni := g[i].Rows
		all := sys.Axis(ni)
		w := cG
		if i > 0 {
			w = sys.Coupling(i - 1).Cols
		}
		colW := ws.Get(ni, len(w))
		sparse.Gather(colW, g[i], all, w)
		colR := ws.Get(ni, len(rG))
		dos := res.DOS[off[i]:off[i+1]]
		if i == nl-1 {
			sparse.Gather(colR, g[i], all, rG)
			for k := range dos {
				dos[k] = -imag(g[i].Data[k*ni+k]) / math.Pi
			}
		} else {
			// G_ii = g_i + g_i·U_i·G_{i+1,i+1}·L_i·g_i = g_i + T₁·g_i[R_i, :],
			// T₁ = g_i[:, R_i]·(u_i·x·l_i); G_{i,N−1} = −g_i·U_i·G_{i+1,N−1}.
			c := sys.Coupling(i)
			r := len(c.Rows)
			k := ws.Get(r, r)
			linalg.Mul3Into(k, c.U, linalg.NoTrans, x, linalg.NoTrans, c.L, linalg.NoTrans, ws)
			gR := ws.Get(ni, r)
			sparse.Gather(gR, g[i], all, c.Rows)
			t1 := ws.Get(ni, r)
			linalg.MulInto(t1, gR, linalg.NoTrans, k, linalg.NoTrans)
			for kk := range dos {
				d := g[i].Data[kk*ni+kk]
				for j, row := range c.Rows {
					d += t1.Data[kk*r+j] * g[i].Data[row*ni+kk]
				}
				dos[kk] = -imag(d) / math.Pi
			}
			perf.AddFlops(int64(ni) * int64(r) * perf.FlopsCMulAdd)
			gRW := ws.Get(r, len(w))
			sparse.Gather(gRW, g[i], c.Rows, w)
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
	return res, nil
}

// broadeningOn returns Γ[sup, sup] = i(Σ − Σ†)[sup, sup], the block of the
// broadening outside which Σ — and so Γ — is zero, checked out of ws.
func broadeningOn(sigma *linalg.Matrix, sup []int, ws *linalg.Workspace) *linalg.Matrix {
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

// DenseReference solves the same open system by brute force: it embeds the
// self-energies in a dense matrix, inverts it, and applies the Caroli
// formula; with density the spectral diagonals come from the first and last
// block columns of that inverse. It is O(N³) in the total device size and
// exists to validate the RGF and SplitSolve paths in tests and ablation
// benchmarks.
func (s *Solver) DenseReference(e float64, density bool) (*Result, error) {
	z := complex(e, s.Eta)
	sigL, sigR, err := s.selfEnergies(z)
	if err != nil {
		return nil, err
	}
	ws := linalg.GetWorkspace()
	defer ws.Release()
	a := s.system().At(z, ws)
	nl := a.Layers()
	a.AddScaledToDiagBlock(0, sigL, -1)
	a.AddScaledToDiagBlock(nl-1, sigR, -1)
	n := s.H.N()
	g := linalg.New(n, n)
	if err := linalg.InverseInto(g, a.Dense(), ws); err != nil {
		return nil, err
	}
	off := s.H.Offsets()
	n0 := s.H.LayerSize(0)
	nN := s.H.LayerSize(nl - 1)
	g0N := g.Submatrix(0, off[nl-1], n0, nN)
	gamL := Broadening(sigL)
	gamR := Broadening(sigR)
	tns := ws.Get(n0, nN)
	linalg.Mul3Into(tns, gamL, linalg.NoTrans, g0N, linalg.NoTrans, gamR, linalg.NoTrans, ws)
	t := linalg.TraceMulConj(tns, g0N)
	res := &Result{E: e, T: real(t), DOS: make([]float64, n)}
	for i := 0; i < n; i++ {
		res.DOS[i] = -imag(g.At(i, i)) / math.Pi
	}
	if density {
		res.SpectralL, res.SpectralR = make([]float64, n), make([]float64, n)
		aL := linalg.DiagMulConj(g.Submatrix(0, 0, n, n0), gamL)
		aR := linalg.DiagMulConj(g.Submatrix(0, off[nl-1], n, nN), gamR)
		for i := 0; i < n; i++ {
			res.SpectralL[i], res.SpectralR[i] = real(aL[i]), real(aR[i])
		}
	}
	return res, nil
}
