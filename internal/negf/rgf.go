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

func (s *Solver) solveWithSigma(e float64, z complex128, sigL, sigR *linalg.Matrix, density bool) (*Result, error) {
	// Every temporary of the solve — the shifted system matrix, the
	// broadenings, and all recursion blocks — lives in one per-solve
	// workspace, so the sweeps run allocation-free and parallel energy
	// points never share buffers.
	ws := linalg.GetWorkspace()
	defer ws.Release()
	s.openOnce.Do(func() { s.open = sparse.NewShiftedSystem(s.H) })
	a := s.open.At(z, ws)
	nl := a.Layers()
	a.AddScaledToDiagBlock(0, sigL, -1)
	a.AddScaledToDiagBlock(nl-1, sigR, -1)
	n0 := s.H.LayerSize(0)
	nN := s.H.LayerSize(nl - 1)
	gamL := ws.Get(n0, n0)
	BroadeningInto(gamL, sigL)
	gamR := ws.Get(nN, nN)
	BroadeningInto(gamR, sigR)

	// Forward (left-connected) pass.
	gLft := make([]*linalg.Matrix, nl)
	gLft[0] = ws.Get(n0, n0)
	if err := linalg.InverseInto(gLft[0], a.Diag[0], ws); err != nil {
		return nil, fmt.Errorf("negf: RGF forward block 0: %w", err)
	}
	for i := 1; i < nl; i++ {
		ni := s.H.LayerSize(i)
		m := ws.Get(ni, ni)
		linalg.Mul3Into(m, a.Lower[i-1], linalg.NoTrans, gLft[i-1], linalg.NoTrans, a.Upper[i-1], linalg.NoTrans, ws)
		linalg.SubInto(m, a.Diag[i], m)
		gLft[i] = ws.Get(ni, ni)
		err := linalg.InverseInto(gLft[i], m, ws)
		ws.Put(m)
		if err != nil {
			return nil, fmt.Errorf("negf: RGF forward block %d: %w", i, err)
		}
	}

	// Backward pass for the full diagonal G_ii and the column G_{i,N-1}.
	gDiag := make([]*linalg.Matrix, nl)
	gColR := make([]*linalg.Matrix, nl) // G_{i,N-1}
	gDiag[nl-1] = gLft[nl-1]
	gColR[nl-1] = gLft[nl-1]
	for i := nl - 2; i >= 0; i-- {
		ni := s.H.LayerSize(i)
		gu := ws.Get(ni, s.H.LayerSize(i+1))
		linalg.MulInto(gu, gLft[i], linalg.NoTrans, a.Upper[i], linalg.NoTrans)
		// G_ii = g_i + (g_i·U_i·G_{i+1,i+1}·L_i)·g_i
		t := ws.Get(ni, ni)
		linalg.Mul3Into(t, gu, linalg.NoTrans, gDiag[i+1], linalg.NoTrans, a.Lower[i], linalg.NoTrans, ws)
		gDiag[i] = ws.Get(ni, ni)
		gDiag[i].CopyFrom(gLft[i])
		linalg.GemmInto(gDiag[i], 1, t, linalg.NoTrans, gLft[i], linalg.NoTrans, 1)
		ws.Put(t)
		gColR[i] = ws.Get(ni, nN)
		linalg.GemmInto(gColR[i], -1, gu, linalg.NoTrans, gColR[i+1], linalg.NoTrans, 0)
		ws.Put(gu)
	}

	res := &Result{E: e}

	// Caroli transmission T = Tr[Γ_L·G_{0,N-1}·Γ_R·G_{0,N-1}†], with the
	// adjoint folded into the O(n²) trace kernel instead of a fourth
	// product.
	tns := ws.Get(n0, nN)
	linalg.Mul3Into(tns, gamL, linalg.NoTrans, gColR[0], linalg.NoTrans, gamR, linalg.NoTrans, ws)
	res.T = real(linalg.TraceMulConj(tns, gColR[0]))
	ws.Put(tns)

	// Layer DOS from the retarded diagonal.
	res.DOS = make([]float64, s.H.N())
	off := s.H.Offsets()
	for i := 0; i < nl; i++ {
		d := gDiag[i]
		for k := 0; k < d.Rows; k++ {
			res.DOS[off[i]+k] = -imag(d.At(k, k)) / math.Pi
		}
	}

	if density {
		// Right-connected pass for the column G_{i,0}.
		gRgt := make([]*linalg.Matrix, nl)
		gRgt[nl-1] = ws.Get(nN, nN)
		if err := linalg.InverseInto(gRgt[nl-1], a.Diag[nl-1], ws); err != nil {
			return nil, fmt.Errorf("negf: RGF backward block %d: %w", nl-1, err)
		}
		for i := nl - 2; i >= 0; i-- {
			ni := s.H.LayerSize(i)
			m := ws.Get(ni, ni)
			linalg.Mul3Into(m, a.Upper[i], linalg.NoTrans, gRgt[i+1], linalg.NoTrans, a.Lower[i], linalg.NoTrans, ws)
			linalg.SubInto(m, a.Diag[i], m)
			gRgt[i] = ws.Get(ni, ni)
			err := linalg.InverseInto(gRgt[i], m, ws)
			ws.Put(m)
			if err != nil {
				return nil, fmt.Errorf("negf: RGF backward block %d: %w", i, err)
			}
		}
		gColL := make([]*linalg.Matrix, nl) // G_{i,0}
		gColL[0] = gDiag[0]
		for i := 1; i < nl; i++ {
			ni := s.H.LayerSize(i)
			t := ws.Get(ni, n0)
			linalg.MulInto(t, a.Lower[i-1], linalg.NoTrans, gColL[i-1], linalg.NoTrans)
			gColL[i] = ws.Get(ni, n0)
			linalg.GemmInto(gColL[i], -1, gRgt[i], linalg.NoTrans, t, linalg.NoTrans, 0)
			ws.Put(t)
		}
		// Spectral diagonals [G·Γ·G†]_ii via row dots — O(n·m²) per layer
		// instead of materializing the full G·Γ·G† products.
		res.SpectralL = make([]float64, s.H.N())
		res.SpectralR = make([]float64, s.H.N())
		for i := 0; i < nl; i++ {
			ni := s.H.LayerSize(i)
			d := ws.Get(ni, 1)
			linalg.DiagMulConjInto(d.Data, gColL[i], gamL, ws)
			for k := 0; k < ni; k++ {
				res.SpectralL[off[i]+k] = real(d.Data[k])
			}
			linalg.DiagMulConjInto(d.Data, gColR[i], gamR, ws)
			for k := 0; k < ni; k++ {
				res.SpectralR[off[i]+k] = real(d.Data[k])
			}
			ws.Put(d)
		}
	}
	return res, nil
}

// Transmission is a convenience wrapper returning only T(e).
func (s *Solver) Transmission(e float64) (float64, error) {
	r, err := s.Solve(e, false)
	if err != nil {
		return 0, err
	}
	return r.T, nil
}

// DenseReference solves the same open system by brute force: it embeds the
// self-energies in a dense matrix, inverts it, and applies the Caroli
// formula. It is O(N³) in the total device size and exists to validate the
// RGF and SplitSolve paths in tests and ablation benchmarks.
func (s *Solver) DenseReference(e float64) (*Result, error) {
	z := complex(e, s.Eta)
	sigL, sigR, err := s.selfEnergies(z)
	if err != nil {
		return nil, err
	}
	a := sparse.ShiftedFromHermitian(s.H, z)
	nl := a.Layers()
	a.AddScaledToDiagBlock(0, sigL, -1)
	a.AddScaledToDiagBlock(nl-1, sigR, -1)
	ws := linalg.GetWorkspace()
	defer ws.Release()
	g := linalg.New(s.H.N(), s.H.N())
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
	res := &Result{E: e, T: real(t), DOS: make([]float64, s.H.N())}
	for i := 0; i < g.Rows; i++ {
		res.DOS[i] = -imag(g.At(i, i)) / math.Pi
	}
	return res, nil
}
