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
	"math/bits"
	"slices"
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

	// shape is what transmissionFlops reads of open, every record
	// eliminating, built by the first lane group.
	shapeOnce sync.Once
	shape     flopShape
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
// (negf.Group).
func (s *Solver) SolveWithSigma(ctx context.Context, e float64, sigL, sigR *linalg.Matrix, density bool) (*negf.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	z := complex(e, s.Eta)
	if _, err := s.reduced(); err != nil {
		return nil, err
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
	wL, err := injectionVectors(gamL, ws, true)
	if err != nil {
		return nil, fmt.Errorf("wavefunction: left injection: %w", err)
	}
	wR := ws.Get(len(posR), 0)
	if density {
		if wR, err = injectionVectors(gamR, ws, true); err != nil {
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
// there too; a Γ that is zero everywhere injects nothing. The eigensolve
// counts its flops where count is set (linalg.EigH) and none where a lane
// group counts at take (EigHSetup); its scratch, and the returned columns,
// are ws's.
func injectionVectors(gamma *linalg.Matrix, ws *linalg.Workspace, count bool) (*linalg.Matrix, error) {
	eig, err := linalg.EigHIn(gamma, ws, count)
	if err != nil {
		return nil, err
	}
	defer ws.Put(eig.Vectors)
	var maxLam float64
	for _, l := range eig.Values {
		if l > maxLam {
			maxLam = l
		}
	}
	cols := ws.GetInts(len(eig.Values))[:0]
	defer ws.PutInts(cols)
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

// reduced returns the reduced open system, built by the first solve from H
// and the contacts' supports (Leads.Supports).
func (s *Solver) reduced() (*sparse.ReducedSystem, error) {
	s.openOnce.Do(func() {
		left, right := s.Leads.Supports()
		s.open, s.openErr = sparse.NewReducedSystem(s.H, left, right)
	})
	if s.openErr != nil {
		return nil, fmt.Errorf("wavefunction: %w", s.openErr)
	}
	return s.open, nil
}

// SolveGroup solves the energies es — at most linalg.Lanes of them — in
// lanes (negf.Group), with density output or without: the transmission
// solve on one domain runs in lockstep (laneKernel), Σ from the cache when
// the solver has one and in lanes otherwise. Density and SplitSolve
// (Domains > 1) solve each energy solo at take, on the Σ the group looked
// up — or alone where the solver's σ-cache has it: nil, as wherever the
// energies share nothing (negf.LaneSolver.Group).
func (s *Solver) SolveGroup(es []float64, density bool) *negf.Group {
	ls := negf.LaneSolver{Solo: s, Leads: s.Leads, Eta: s.Eta, Cache: s.Cache}
	ls.Sys, _ = s.reduced() // a failure makes no group: each solo solve returns it
	if !density && s.Domains <= 1 {
		ls.Kernel = s.laneKernel
	}
	return ls.Group(es, density)
}

// laneKernel is the transmission solve (SolveWithSigma, density off, one
// domain) on a lane group's lanes: per lane the injection vectors, on the
// solo kernels; then the reduced system, the right-hand side and the
// block-Thomas sweep in lockstep (sparse.LaneReduced.SolveLast); then T
// from each lane's last block. The group's injection width is the one most
// of its lanes have (the first lane's on a tie); a lane whose injection
// fails, or whose width is 0 or another, is left to solo, and so is every
// lane where fewer than two remain. It counts nothing: a finished lane's
// take counts transmissionFlops at that width.
func (s *Solver) laneKernel(set *sparse.Set, in *negf.LaneInput) (failed linalg.LaneMask, flops int64) {
	ws := set.Workspace()
	var w [linalg.Lanes]*linalg.Matrix
	for l := 0; l < linalg.Lanes; l++ {
		if !in.Live.Has(l) {
			continue
		}
		wl, err := injectionVectors(in.Gamma[0][l], ws, false)
		if err != nil || wl.Cols == 0 {
			failed |= 1 << l
			continue
		}
		w[l] = wl
	}
	live := in.Live &^ failed
	k, most := 0, 0
	for l := 0; l < linalg.Lanes; l++ {
		n := 0
		for m := 0; m < linalg.Lanes; m++ {
			if live.Has(l) && live.Has(m) && w[m].Cols == w[l].Cols {
				n++
			}
		}
		if n > most {
			k, most = w[l].Cols, n
		}
	}
	for l := 0; l < linalg.Lanes; l++ {
		if live.Has(l) && w[l].Cols != k {
			live &^= 1 << l
		}
	}
	if bits.OnesCount8(uint8(live)) < 2 {
		return in.Live, 0
	}
	red := s.open.LanesAt(set, &in.Z, &in.Sigma[0], &in.Sigma[1], live)
	rhs := make([]*linalg.LaneMatrix, len(red.Diag))
	for i, d := range red.Diag {
		rhs[i] = set.Zeroed(d.Rows, k).V
	}
	posL, posR := s.open.LeftContact(), s.open.RightContact()
	for l := 0; l < linalg.Lanes; l++ {
		if !live.Has(l) {
			continue
		}
		for p, row := range posL {
			for j, v := range w[l].Data[p*k : (p+1)*k] {
				rhs[0].Set(l, row, j, v)
			}
		}
	}
	stop := perf.StartPhase("wf-solve")
	last, bad, _ := red.SolveLast(rhs, live)
	stop()
	if live &^= bad; live == 0 {
		return in.Live, 0
	}
	// T as the solo solve contracts it, Tr[(Γ_R·gw)·gw†], in every lane.
	gw, ggw := set.Get(len(posR), k), set.Get(len(posR), k)
	set.Gather(gw, sparse.Block{V: last}, posR, sparse.Range(0, k))
	set.Gemm(ggw, 1, set.PerLane(&in.Gamma[1], live), gw, 0)
	for l, t := range set.TraceMulConj(ggw, gw) {
		if live.Has(l) {
			in.Res[l] = &negf.Result{E: real(in.Z[l]), T: real(t)}
		}
	}
	return in.Live &^ live, s.transmissionFlops(k)
}

// flopShape is what transmissionFlops reads of the reduced system.
type flopShape struct {
	sizes, kept        []int
	shared             []bool
	rows, cols, floors []int
	cG, rG             int
}

// transmissionFlops returns transmissionFlops at width k on the solver's
// reduced system, every record eliminating: what a lane group counts at
// take for each finished lane.
func (s *Solver) transmissionFlops(k int) int64 {
	s.shapeOnce.Do(func() {
		sys := s.open
		sh := &s.shape
		sh.sizes, sh.kept, sh.shared = sys.Shape()
		nc := len(sh.sizes) - 1
		sh.rows, sh.cols, sh.floors = make([]int, nc), make([]int, nc), make([]int, nc)
		for i := range sh.rows {
			c := sys.Coupling(i)
			sh.rows[i], sh.cols[i], sh.floors[i] = len(c.Rows), len(c.Cols), slices.Min(c.Rows)
		}
		sh.cG, sh.rG = len(sys.LeftContact()), len(sys.RightContact())
	})
	sh := &s.shape
	return transmissionFlops(sh.sizes, sh.kept, sh.shared, sh.rows, sh.cols, sh.floors, sh.cG, sh.rG, k)
}

// transmissionFlops returns the flops one transmission solve
// (SolveWithSigma, density off, one domain) counts past its self-energies
// at injection width k > 0: Γ_L and Γ_R on their c_Γ×c_Γ and r_Γ×r_Γ
// supports, Γ_L's eigendecomposition (linalg.EigHFlops), the reduced
// system (sparse.ReducedFlops) and its forward sweep
// (sparse.BlockThomasFlops on the kept layers, layer i's solve stopped at
// floors[i] = min R_i), and T = Tr[(Γ_R·gw)·gw†]. Layer i has sizes[i]
// orbitals of which kept[i] stay; coupling i has rows[i] rows and cols[i]
// columns; shared is ReducedFlops'. TestWFTransmissionFlopCount holds the
// solo solve to it.
func transmissionFlops(sizes, kept []int, shared []bool, rows, cols, floors []int, cG, rG, k int) int64 {
	return int64(cG*cG+rG*rG)*(perf.FlopsCAdd+perf.FlopsCMul) + linalg.EigHFlops(cG) +
		sparse.ReducedFlops(sizes, kept, shared, cG, rG, k, false) +
		sparse.BlockThomasFlops(kept, rows, cols, floors, k) +
		perf.GemmFlops(rG, rG, k) + int64(rG*k)*perf.FlopsCMulAdd
}
