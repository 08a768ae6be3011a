package tb

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/linalg"
)

// BandStructure holds the dispersion of a periodic lead: Energies[ik][band]
// in eV, sorted ascending per k-point, for wave numbers K[ik] in rad/nm.
type BandStructure struct {
	K        []float64
	Energies [][]float64
}

// LeadBands diagonalizes the Bloch Hamiltonian of a periodic lead,
// H(k) = H00 + H01·e^{ik·a} + H01†·e^{−ik·a}, at each of the nk wave
// numbers spanning the first Brillouin zone [−π/a, π/a).
func LeadBands(h00, h01 *linalg.Matrix, period float64, nk int) (*BandStructure, error) {
	if h00.Rows != h00.Cols || h01.Rows != h00.Rows || h01.Cols != h00.Rows {
		return nil, fmt.Errorf("tb: lead blocks must be square and equally sized")
	}
	if nk < 1 {
		return nil, fmt.Errorf("tb: need at least one k-point")
	}
	bs := &BandStructure{
		K:        make([]float64, nk),
		Energies: make([][]float64, nk),
	}
	h10 := h01.ConjTranspose()
	for ik := 0; ik < nk; ik++ {
		k := -math.Pi/period + 2*math.Pi/period*float64(ik)/float64(nk)
		bs.K[ik] = k
		hk := BlochHamiltonian(h00, h01, h10, k*period)
		vals, err := linalg.EigHValues(hk)
		if err != nil {
			return nil, fmt.Errorf("tb: diagonalization failed at k=%g: %w", k, err)
		}
		bs.Energies[ik] = vals
	}
	return bs, nil
}

// BlochHamiltonian returns H00 + H01·e^{iφ} + H10·e^{−iφ} for the phase
// φ = k·a.
func BlochHamiltonian(h00, h01, h10 *linalg.Matrix, phi float64) *linalg.Matrix {
	hk := h00.Clone()
	hk.AddInPlace(h01.Scale(cmplx.Exp(complex(0, phi))))
	hk.AddInPlace(h10.Scale(cmplx.Exp(complex(0, -phi))))
	return hk
}

// NumBands returns the number of bands per k-point.
func (b *BandStructure) NumBands() int {
	if len(b.Energies) == 0 {
		return 0
	}
	return len(b.Energies[0])
}

// BandRange returns the global minimum and maximum energy of band index n
// over all k-points.
func (b *BandStructure) BandRange(n int) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, e := range b.Energies {
		if e[n] < lo {
			lo = e[n]
		}
		if e[n] > hi {
			hi = e[n]
		}
	}
	return lo, hi
}

// GapAround scans for the largest energy gap that separates two consecutive
// bands at every k-point and whose midpoint lies within [eLo, eHi], and
// returns its edges (top of the lower band, bottom of the upper band); ok
// is false when there is none. Restricting the midpoint picks, in a
// multi-gap spectrum, the transport gap around the Fermi level rather than
// the widest spectral gap.
func (b *BandStructure) GapAround(eLo, eHi float64) (evTop, ecBottom float64, ok bool) {
	nb := b.NumBands()
	best := 0.0
	for n := 0; n+1 < nb; n++ {
		_, hiN := b.BandRange(n)
		loN1, _ := b.BandRange(n + 1)
		mid := (hiN + loN1) / 2
		if g := loN1 - hiN; g > best && mid >= eLo && mid <= eHi {
			best = g
			evTop, ecBottom = hiN, loN1
			ok = true
		}
	}
	return evTop, ecBottom, ok
}
