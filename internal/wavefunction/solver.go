package wavefunction

import (
	"context"
	"fmt"
	"math"
	"sync"

	"repro/internal/linalg"
	"repro/internal/negf"
	"repro/internal/perf"
	"repro/internal/sched"
	"repro/internal/sparse"
	"repro/internal/splitsolve"
)

// Solver runs ballistic wave-function (QTBM) calculations on a fixed
// device Hamiltonian. It shares the contact self-energy machinery with the
// NEGF package — the two formalisms differ only in how the open-boundary
// linear system is solved: here a single block-Thomas direct solve for the
// two contact column blocks, instead of the layer-recursive inversion of
// the RGF algorithm. Results agree to solver precision; cost does not,
// which is the point.
type Solver struct {
	// H is the Hermitian device Hamiltonian in block-tridiagonal layer form,
	// fixed once the first energy is solved.
	H *sparse.BlockTridiag
	// Leads are the semi-infinite contacts.
	Leads *negf.Leads
	// Eta is the imaginary energy broadening in eV (typical: 1e-6).
	Eta float64
	// Domains > 1 solves the open-boundary system by SplitSolve over that
	// many spatial domains instead of one serial block-Thomas solve; the
	// domain stages borrow workers from Pool (nil: a private one).
	Domains int
	Pool    *sched.Pool
	// Cache optionally memoizes the contact self-energies across solves
	// (valid while the lead blocks stay fixed).
	Cache *negf.SelfEnergyCache

	// open is the z-independent part of z − H, built by the first solve.
	openOnce sync.Once
	open     *sparse.ShiftedSystem
}

// NewSolver builds a wave-function solver with flat-band leads continued
// from the device end layers.
func NewSolver(h *sparse.BlockTridiag, eta float64) (*Solver, error) {
	if eta <= 0 {
		return nil, fmt.Errorf("wavefunction: broadening must be positive, got %g", eta)
	}
	leads, err := negf.LeadsFromDevice(h)
	if err != nil {
		return nil, err
	}
	return &Solver{H: h, Leads: leads, Eta: eta}, nil
}

// Solve computes transmission and (optionally) the contact-resolved
// spectral functions at energy e. The returned Result uses the same type
// as the NEGF package so downstream integration code is solver-agnostic,
// and the density fields follow its rule: the spectral diagonals and the
// DOS, negf.BallisticDOS of them, exist exactly when density is asked for.
func (s *Solver) Solve(e float64, density bool) (*negf.Result, error) {
	return s.SolveCtx(context.Background(), e, density)
}

// SolveCtx is Solve with cooperative cancellation: the solve aborts
// between its phases (self-energies, injection, linear solve) when ctx is
// canceled, and passes ctx on to SplitSolve so a domain-decomposed solve
// can abort between its stages too.
func (s *Solver) SolveCtx(ctx context.Context, e float64, density bool) (*negf.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	z := complex(e, s.Eta)
	sigL, sigR, err := negf.CachedSelfEnergies(s.Cache, s.Leads, z)
	if err != nil {
		return nil, err
	}
	// Per-solve workspace for the broadenings, the injection columns, the
	// block-Thomas factors and solution, and the transmission contraction;
	// the shifted system matrix also lives here since SplitSolve's domains
	// only read it, while this goroutine waits.
	ws := linalg.GetWorkspace()
	defer ws.Release()
	s.openOnce.Do(func() { s.open = sparse.NewShiftedSystem(s.H) })
	a := s.open.At(z, ws)
	nl := a.Layers()
	a.AddScaledToDiagBlock(0, sigL, -1)
	a.AddScaledToDiagBlock(nl-1, sigR, -1)
	gamL := ws.Get(sigL.Rows, sigL.Cols)
	negf.BroadeningInto(gamL, sigL)
	gamR := ws.Get(sigR.Rows, sigR.Cols)
	negf.BroadeningInto(gamR, sigR)

	// Injection vectors: the broadening matrices are positive
	// semidefinite with rank equal to the number of (effectively)
	// propagating contact modes, so Γ = Σᵢ wᵢwᵢ† with only a handful of
	// significant wᵢ. Solving the open system against those few columns —
	// instead of full contact blocks — is the cost advantage of the
	// wave-function formalism that the paper exploits.
	wL, err := injectionVectors(gamL, ws)
	if err != nil {
		return nil, fmt.Errorf("wavefunction: left injection: %w", err)
	}
	var wR *linalg.Matrix
	width := wL.Cols
	if density {
		wR, err = injectionVectors(gamR, ws)
		if err != nil {
			return nil, fmt.Errorf("wavefunction: right injection: %w", err)
		}
		width += wR.Cols
	}
	res := &negf.Result{E: e}
	if width == 0 {
		// No open or evanescent channels at this energy: everything is 0,
		// and the density fields exist exactly when density was asked for.
		if density {
			res.SpectralL = make([]float64, s.H.N())
			res.SpectralR = make([]float64, s.H.N())
			res.DOS = negf.BallisticDOS(res.SpectralL, res.SpectralR)
		}
		return res, nil
	}
	n0 := s.H.LayerSize(0)
	nN := s.H.LayerSize(nl - 1)
	rhs := make([]*linalg.Matrix, nl)
	for i := 0; i < nl; i++ {
		rhs[i] = ws.Get(s.H.LayerSize(i), width)
	}
	for k := 0; k < n0; k++ {
		for j := 0; j < wL.Cols; j++ {
			rhs[0].Set(k, j, wL.At(k, j))
		}
	}
	if density {
		for k := 0; k < nN; k++ {
			for j := 0; j < wR.Cols; j++ {
				rhs[nl-1].Set(k, wL.Cols+j, wR.At(k, j))
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var x []*linalg.Matrix
	stop := perf.StartPhase("wf-solve")
	if s.Domains > 1 {
		x, err = splitsolve.Solve(ctx, a, rhs, s.Domains, s.Pool)
	} else {
		x, err = a.SolveBlocks(rhs, ws)
	}
	stop()
	if err != nil {
		return nil, fmt.Errorf("wavefunction: open-boundary solve: %w", err)
	}

	// T = Tr[Γ_R·G·Γ_L·G†] = Σᵢ (G·wᵢ)†_N-1 · Γ_R · (G·wᵢ)_N-1, contracted
	// as Tr[(Γ_R·gw)·gw†] so the adjoint is never materialized and the
	// trace costs O(n·rank).
	gwL := ws.Get(nN, wL.Cols)
	for k := 0; k < nN; k++ {
		copy(gwL.Data[k*wL.Cols:(k+1)*wL.Cols], x[nl-1].Data[k*width:k*width+wL.Cols])
	}
	ggw := ws.Get(nN, wL.Cols)
	linalg.MulInto(ggw, gamR, linalg.NoTrans, gwL, linalg.NoTrans)
	res.T = real(linalg.TraceMulConj(ggw, gwL))
	ws.Put(ggw)
	ws.Put(gwL)

	if density {
		off := s.H.Offsets()
		res.SpectralL = make([]float64, s.H.N())
		res.SpectralR = make([]float64, s.H.N())
		for i := 0; i < nl; i++ {
			ni := s.H.LayerSize(i)
			for k := 0; k < ni; k++ {
				var sl, sr float64
				for j := 0; j < wL.Cols; j++ {
					v := x[i].At(k, j)
					sl += real(v)*real(v) + imag(v)*imag(v)
				}
				for j := 0; j < wR.Cols; j++ {
					v := x[i].At(k, wL.Cols+j)
					sr += real(v)*real(v) + imag(v)*imag(v)
				}
				res.SpectralL[off[i]+k] = sl
				res.SpectralR[off[i]+k] = sr
			}
		}
		res.DOS = negf.BallisticDOS(res.SpectralL, res.SpectralR)
	}
	return res, nil
}

// injectionRankCutoff discards Γ eigenmodes whose broadening is below this
// fraction of the largest one; the kept set spans the propagating modes
// plus the slowly decaying evanescent tails that still matter numerically.
const injectionRankCutoff = 1e-12

// injectionVectors spectrally factorizes a broadening matrix,
// Γ = Σᵢ λᵢvᵢvᵢ†, and returns the weighted columns wᵢ = √λᵢ·vᵢ above the
// rank cutoff, so that Γ ≈ W·W†. Γ = i(Σ − Σ†) is nonzero only on the
// orbitals the contact couples to — the support of Σ — so the eigenproblem
// is solved on that r×r block and the vectors scattered back into
// layer-sized columns that are zero elsewhere; a Γ that is zero everywhere
// injects nothing.
func injectionVectors(gamma *linalg.Matrix, ws *linalg.Workspace) (*linalg.Matrix, error) {
	n := gamma.Rows
	sup := sparse.RowSupport(gamma) // Γ is Hermitian: its rows and columns share a support
	block := ws.Get(len(sup), len(sup))
	defer ws.Put(block)
	sparse.Gather(block, gamma, sup, sup)
	eig, err := linalg.EigH(block)
	if err != nil {
		return nil, err
	}
	var maxLam float64
	for _, l := range eig.Values {
		if l > maxLam {
			maxLam = l
		}
	}
	cols := make([]int, 0, len(sup))
	for j, l := range eig.Values {
		if l > injectionRankCutoff*maxLam && l > 0 {
			cols = append(cols, j)
		}
	}
	w := linalg.New(n, len(cols))
	for jj, j := range cols {
		s := complex(math.Sqrt(eig.Values[j]), 0)
		for i, row := range sup {
			w.Set(row, jj, s*eig.Vectors.At(i, j))
		}
	}
	return w, nil
}

// Transmission is a convenience wrapper returning only T(e).
func (s *Solver) Transmission(e float64) (float64, error) {
	r, err := s.Solve(e, false)
	if err != nil {
		return 0, err
	}
	return r.T, nil
}
