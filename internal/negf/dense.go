package negf

import (
	"repro/internal/linalg"
	"repro/internal/sparse"
)

// DenseReference solves the same open system by brute force: it embeds the
// self-energies in a dense matrix, inverts it, and applies the Caroli
// formula; with density the spectral diagonals come from the first and last
// block columns of that inverse, and the DOS from them as in the kernel.
// It is O(N³) in the total device size and exists to validate the RGF and
// SplitSolve paths in tests and ablation benchmarks.
func (s *Solver) DenseReference(e float64, density bool) (*Result, error) {
	g, sigL, sigR, err := s.denseGreen(e)
	if err != nil {
		return nil, err
	}
	ws := linalg.GetWorkspace()
	defer ws.Release()
	n, nl := s.H.N(), s.H.Layers()
	off := s.H.Offsets()
	n0 := s.H.LayerSize(0)
	nN := s.H.LayerSize(nl - 1)
	g0N := g.Submatrix(0, off[nl-1], n0, nN)
	gamL, gamR := ws.Get(n0, n0), ws.Get(nN, nN)
	BroadeningInto(gamL, sigL)
	BroadeningInto(gamR, sigR)
	tns := ws.Get(n0, nN)
	linalg.Mul3Into(tns, gamL, linalg.NoTrans, g0N, linalg.NoTrans, gamR, linalg.NoTrans, ws)
	t := linalg.TraceMulConj(tns, g0N)
	res := &Result{E: e, T: real(t)}
	if density {
		res.SpectralL = linalg.DiagMulConj(g.Submatrix(0, 0, n, n0), gamL)
		res.SpectralR = linalg.DiagMulConj(g.Submatrix(0, off[nl-1], n, nN), gamR)
		res.DOS = BallisticDOS(res.SpectralL, res.SpectralR)
	}
	return res, nil
}

// denseGreen returns the retarded Green's function of the whole open
// device, G = (z − H − Σ_L − Σ_R)⁻¹ as one dense N×N inverse, and the
// self-energies it embeds.
func (s *Solver) denseGreen(e float64) (g, sigL, sigR *linalg.Matrix, err error) {
	z := complex(e, s.Eta)
	if sigL, sigR, err = s.selfEnergies(z); err != nil {
		return nil, nil, nil, err
	}
	ws := linalg.GetWorkspace()
	defer ws.Release()
	a := sparse.NewShiftedSystem(s.H).At(z, ws)
	a.AddScaledToDiagBlock(0, sigL, -1)
	a.AddScaledToDiagBlock(a.Layers()-1, sigR, -1)
	g = linalg.New(s.H.N(), s.H.N())
	if err := linalg.InverseInto(g, a.Dense(), ws); err != nil {
		return nil, nil, nil, err
	}
	return g, sigL, sigR, nil
}
