// Package wavefunction implements the scattering-state (wave-function /
// quantum transmitting boundary) formalism for ballistic transport — the
// production solver of the paper, mathematically equivalent to NEGF but
// cheaper in the ballistic limit because it solves the open-boundary
// linear system for the contact column blocks instead of recursively
// inverting every layer.
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
// contact injection columns, instead of the layer-recursive inversion of
// the RGF algorithm. The system solved is the open system reduced to the
// couplings' supports (sparse.ReducedSystem): each layer's interior, which
// no coupling, self-energy or readout touches, is eliminated through its
// eigenpairs once per solver. Results agree to solver precision; cost does
// not, which is the point.
type Solver struct {
	// H is the Hermitian device Hamiltonian in block-tridiagonal layer form,
	// fixed once the first energy is solved.
	H *sparse.BlockTridiag
	// Leads are the semi-infinite contacts; their couplings L01 and R01 fix
	// the contact supports with the first solve.
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

	// open is the reduced open system, built by the first solve.
	openOnce sync.Once
	open     *sparse.ReducedSystem
	openErr  error
}

// NewSolver builds a wave-function solver with flat-band leads continued
// from the device end layers. H must be Hermitian (CheckHermitian).
func NewSolver(h *sparse.BlockTridiag, eta float64) (*Solver, error) {
	if eta <= 0 {
		return nil, fmt.Errorf("wavefunction: broadening must be positive, got %g", eta)
	}
	if err := h.CheckHermitian(); err != nil {
		return nil, fmt.Errorf("wavefunction: %w", err)
	}
	leads, err := negf.LeadsFromDevice(h)
	if err != nil {
		return nil, err
	}
	return &Solver{H: h, Leads: leads, Eta: eta}, nil
}

// Solve computes transmission and (optionally) the layer-resolved contact
// spectra at energy e. The returned Result uses the same type as the NEGF
// package so downstream integration code is solver-agnostic, and the
// density fields follow its rule: SpectralL and SpectralR, one entry per
// layer, exist exactly when density is asked for.
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
	sigL, sigR, err := negf.CachedSelfEnergies(s.Cache, s.Leads, complex(e, s.Eta))
	if err != nil {
		return nil, err
	}
	return s.SolveWithSigma(ctx, e, sigL, sigR, density)
}

// SolveWithSigma is SolveCtx with the contact self-energies at e + iη
// given — Σ_L and Σ_R as Leads.SelfEnergies returns them — instead of
// computed: what a transmission sweep runs with Σ taken from a lane group
// (negf.SigmaGroup).
func (s *Solver) SolveWithSigma(ctx context.Context, e float64, sigL, sigR *linalg.Matrix, density bool) (*negf.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	z := complex(e, s.Eta)
	s.openOnce.Do(func() {
		left, right := s.Leads.Supports()
		s.open, s.openErr = sparse.NewReducedSystem(s.H, left, right)
	})
	if s.openErr != nil {
		return nil, fmt.Errorf("wavefunction: %w", s.openErr)
	}
	// Per-solve workspace for the broadenings, the injection columns, the
	// reduced system, its block-Thomas factors and solution, and the
	// transmission contraction; SplitSolve's domains only read the reduced
	// system, while this goroutine waits.
	ws := linalg.GetWorkspace()
	defer ws.Release()
	posL, posR := s.open.LeftContact(), s.open.RightContact()
	gamL, gamR := ws.Get(len(posL), len(posL)), ws.Get(len(posR), len(posR))
	negf.BroadeningInto(gamL, sigL)
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
	wR := ws.Get(len(posR), 0)
	if density {
		if wR, err = injectionVectors(gamR, ws); err != nil {
			return nil, fmt.Errorf("wavefunction: right injection: %w", err)
		}
	}
	kL, width := wL.Cols, wL.Cols+wR.Cols
	res := &negf.Result{E: e}
	if density {
		res.SpectralL = make([]float64, s.H.Layers())
		res.SpectralR = make([]float64, s.H.Layers())
	}
	if width == 0 {
		// No open or evanescent channels at this energy: everything is 0,
		// and the density fields exist exactly when density was asked for.
		return res, nil
	}
	red := s.open.At(z, sigL, sigR, ws)
	a := red.A
	nl := a.Layers()
	rhs := make([]*linalg.Matrix, nl)
	for i := range rhs {
		rhs[i] = ws.Get(a.LayerSize(i), width)
	}
	for p, row := range posL {
		copy(rhs[0].Data[row*width:row*width+kL], wL.Data[p*kL:(p+1)*kL])
	}
	for p, row := range posR {
		copy(rhs[nl-1].Data[row*width+kL:(row+1)*width], wR.Data[p*wR.Cols:(p+1)*wR.Cols])
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Transmission reads the last layer's block alone: one forward sweep.
	// Density reads every layer, and SplitSolve solves every layer anyway.
	var x []*linalg.Matrix
	var last *linalg.Matrix
	stop := perf.StartPhase("wf-solve")
	switch {
	case s.Domains > 1:
		x, err = splitsolve.Solve(ctx, a, rhs, s.Domains, s.Pool)
	case density:
		x, err = a.SolveBlocks(rhs, ws)
	default:
		last, err = a.SolveLast(rhs, ws)
	}
	stop()
	if err != nil {
		return nil, fmt.Errorf("wavefunction: open-boundary solve: %w", err)
	}
	if x != nil {
		last = x[nl-1]
	}

	// T = Tr[Γ_R·G·Γ_L·G†] = Σᵢ (G·wᵢ)†·Γ_R·(G·wᵢ) on the right contact's
	// support R_Γ, contracted as Tr[(Γ_R·gw)·gw†] so the adjoint is never
	// materialized: r_Γ-sized.
	gw := ws.Get(len(posR), kL)
	for p, row := range posR {
		copy(gw.Data[p*kL:(p+1)*kL], last.Data[row*width:row*width+kL])
	}
	ggw := ws.Get(len(posR), kL)
	linalg.MulInto(ggw, gamR, linalg.NoTrans, gw, linalg.NoTrans)
	res.T = real(linalg.TraceMulConj(ggw, gw))

	// A_L and A_R of layer i are |G·wᵢ|² summed over its orbitals and the
	// kL left (kR right) injection columns: the rows of x_i and of its
	// interior in the eigenbasis, y_i = Reduced.Interior(x_i), whose Gram
	// is the interior orbitals'.
	if density {
		for i := 0; i < nl; i++ {
			y := red.Interior(i, x[i], ws)
			var sl, sr float64
			for _, m := range []*linalg.Matrix{x[i], y} {
				for k := 0; k < m.Rows; k++ {
					row := m.Data[k*width : (k+1)*width]
					for _, v := range row[:kL] {
						sl += real(v)*real(v) + imag(v)*imag(v)
					}
					for _, v := range row[kL:] {
						sr += real(v)*real(v) + imag(v)*imag(v)
					}
				}
			}
			res.SpectralL[i], res.SpectralR[i] = sl, sr
			perf.AddFlops(int64((x[i].Rows+y.Rows)*width) * 2 * perf.FlopsCAdd)
			ws.Put(y)
		}
	}
	return res, nil
}

// injectionRankCutoff discards Γ eigenmodes whose broadening is below this
// fraction of the largest one; the kept set spans the propagating modes
// plus the slowly decaying evanescent tails that still matter numerically.
const injectionRankCutoff = 1e-12

// injectionVectors spectrally factorizes a broadening matrix,
// Γ = Σᵢ λᵢvᵢvᵢ†, and returns the weighted columns wᵢ = √λᵢ·vᵢ above the
// rank cutoff, so that Γ ≈ W·W†. It is handed Γ on the contact's support —
// the r×r block outside which Σ, and so Γ, is zero — and the vectors live
// there too; a Γ that is zero everywhere injects nothing.
func injectionVectors(gamma *linalg.Matrix, ws *linalg.Workspace) (*linalg.Matrix, error) {
	eig, err := linalg.EigH(gamma)
	if err != nil {
		return nil, err
	}
	var maxLam float64
	for _, l := range eig.Values {
		if l > maxLam {
			maxLam = l
		}
	}
	cols := make([]int, 0, len(eig.Values))
	for j, l := range eig.Values {
		if l > injectionRankCutoff*maxLam && l > 0 {
			cols = append(cols, j)
		}
	}
	w := ws.Get(gamma.Rows, len(cols))
	for jj, j := range cols {
		s := complex(math.Sqrt(eig.Values[j]), 0)
		for i := 0; i < gamma.Rows; i++ {
			w.Set(i, jj, s*eig.Vectors.At(i, j))
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
