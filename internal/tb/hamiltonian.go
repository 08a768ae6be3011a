package tb

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/lattice"
	"repro/internal/linalg"
	"repro/internal/sparse"
)

// pow is math.Pow specialized for readability at the call site.
func pow(x, y float64) float64 { return math.Pow(x, y) }

// Options configures Hamiltonian assembly.
type Options struct {
	// Spin doubles the basis and adds the intra-atomic spin-orbit
	// interaction on the p block.
	Spin bool
	// Ky is the transverse Bloch momentum in rad/nm for structures that
	// are periodic in y; bonds wrapping the period acquire the phase
	// exp(i·Ky·PeriodY·wrap).
	Ky float64
	// Potential is the electrostatic potential energy per atom in eV,
	// added to every orbital's on-site energy. Nil means zero everywhere.
	Potential []float64
	// PassivationShift is the on-site energy (eV) added per dangling bond
	// to push surface states out of the transport window — the standard
	// lightweight substitute for explicit hydrogen passivation. Zero
	// leaves surfaces unpassivated.
	PassivationShift float64
	// HarrisonExponent applies Harrison's bond-length scaling to every
	// two-center integral in strained structures:
	// V(d) = V(d₀)·(d₀/d)^η with d₀ the unstrained bond length. Zero
	// disables scaling; the universal value is η = 2.
	HarrisonExponent float64
}

// OrbitalsPerAtom returns the per-atom block size of material mat under
// the given options (orbital count, doubled when spin is on).
func OrbitalsPerAtom(mat *Material, opt Options) int {
	n := mat.Model.NumOrbitals()
	if opt.Spin {
		n *= 2
	}
	return n
}

// Assemble builds the device Hamiltonian of structure s with material mat
// as a block-tridiagonal matrix over principal layers. The result is
// Hermitian for real Ky and carries units of eV.
func Assemble(s *lattice.Structure, mat *Material, opt Options) (*sparse.BlockTridiag, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	for i, a := range s.Atoms {
		if a.Species < 0 || a.Species >= len(mat.Species) {
			return nil, fmt.Errorf("tb: atom %d has species %d but material %q defines %d species",
				i, a.Species, mat.Name, len(mat.Species))
		}
	}
	if opt.Potential != nil && len(opt.Potential) != s.NAtoms() {
		return nil, fmt.Errorf("tb: potential has %d entries for %d atoms", len(opt.Potential), s.NAtoms())
	}
	if opt.Ky != 0 && !s.PeriodicY {
		return nil, fmt.Errorf("tb: transverse momentum given for a non-periodic structure")
	}

	norb := mat.Model.NumOrbitals()
	spinFactor := 1
	if opt.Spin {
		spinFactor = 2
	}
	bs := norb * spinFactor // per-atom block size

	// Atom → (layer, position within layer).
	local := make([]int, s.NAtoms())
	for _, la := range s.LayerAtoms {
		for pos, idx := range la {
			local[idx] = pos
		}
	}

	nl := s.NLayers()
	diag := make([]*linalg.Matrix, nl)
	upper := make([]*linalg.Matrix, nl-1)
	lower := make([]*linalg.Matrix, nl-1)
	for i := 0; i < nl; i++ {
		diag[i] = linalg.New(s.LayerSize(i)*bs, s.LayerSize(i)*bs)
	}
	for i := 0; i < nl-1; i++ {
		upper[i] = linalg.New(s.LayerSize(i)*bs, s.LayerSize(i+1)*bs)
		lower[i] = linalg.New(s.LayerSize(i+1)*bs, s.LayerSize(i)*bs)
	}

	// On-site terms.
	for ai, atom := range s.Atoms {
		sp := mat.Species[atom.Species]
		shift := float64(atom.Dangling) * opt.PassivationShift
		if opt.Potential != nil {
			shift += opt.Potential[ai]
		}
		blk := diag[atom.Layer]
		base := local[ai] * bs
		for sigma := 0; sigma < spinFactor; sigma++ {
			for o := 0; o < norb; o++ {
				var e float64
				switch mat.Model.classOf(o) {
				case classS:
					e = sp.Es
				case classP:
					e = sp.Ep
				case classD:
					e = sp.Ed
				case classSstar:
					e = sp.Es2
				}
				idx := base + sigma*norb + o
				blk.Set(idx, idx, complex(e+shift, 0))
			}
		}
		if opt.Spin && mat.Model.hasP() && sp.SOLambda != 0 {
			addSpinOrbit(blk, base, norb, sp.SOLambda)
		}
	}

	// Hopping terms: every directed bond contributes its Slater-Koster
	// block; Hermiticity follows from the mutually reversed bond tables.
	hop := make([][]float64, norb)
	for i := range hop {
		hop[i] = make([]float64, norb)
	}
	for ai, nbrs := range s.Neighbors {
		la := s.Atoms[ai].Layer
		for _, nb := range nbrs {
			lj := s.Atoms[nb.Index].Layer
			var dst *linalg.Matrix
			switch lj - la {
			case 0:
				dst = diag[la]
			case 1:
				dst = upper[la]
			case -1:
				dst = lower[lj]
			}
			r := nb.Delta.Norm()
			l, m, n := nb.Delta.X/r, nb.Delta.Y/r, nb.Delta.Z/r
			bp := mat.Bonds[s.Atoms[ai].Species][s.Atoms[nb.Index].Species]
			skBlock(mat.Model, bp, l, m, n, hop)
			if opt.HarrisonExponent != 0 && math.Abs(r-s.BondLength) > 1e-9*s.BondLength {
				scale := pow(s.BondLength/r, opt.HarrisonExponent)
				for o1 := 0; o1 < norb; o1++ {
					for o2 := 0; o2 < norb; o2++ {
						hop[o1][o2] *= scale
					}
				}
			}
			phase := complex(1, 0)
			if nb.WrapY != 0 {
				phase = cmplx.Exp(complex(0, opt.Ky*s.PeriodY*float64(nb.WrapY)))
			}
			rb, cb := local[ai]*bs, local[nb.Index]*bs
			for sigma := 0; sigma < spinFactor; sigma++ {
				so := sigma * norb
				for o1 := 0; o1 < norb; o1++ {
					for o2 := 0; o2 < norb; o2++ {
						if hop[o1][o2] == 0 {
							continue
						}
						i0, j0 := rb+so+o1, cb+so+o2
						dst.Set(i0, j0, dst.At(i0, j0)+phase*complex(hop[o1][o2], 0))
					}
				}
			}
		}
	}

	return sparse.NewBlockTridiag(diag, upper, lower)
}

// addSpinOrbit adds the intra-atomic p-block spin-orbit Hamiltonian
// λ·L·S (Chadi's convention) to the on-site block of one atom.
// Basis per atom: [orbitals↑..., orbitals↓...], p orbitals at
// offsets orbPx..orbPz within each spin sector.
func addSpinOrbit(blk *linalg.Matrix, base, norb int, lambda float64) {
	up := func(o int) int { return base + o }
	dn := func(o int) int { return base + norb + o }
	l := complex(lambda, 0)
	il := complex(0, lambda)
	add := func(i, j int, v complex128) {
		blk.Set(i, j, blk.At(i, j)+v)
		blk.Set(j, i, blk.At(j, i)+cmplx.Conj(v))
	}
	// ⟨x↑|H|y↑⟩ = −iλ, ⟨x↓|H|y↓⟩ = +iλ
	add(up(orbPx), up(orbPy), -il)
	add(dn(orbPx), dn(orbPy), il)
	// ⟨x↑|H|z↓⟩ = λ, ⟨y↑|H|z↓⟩ = −iλ
	add(up(orbPx), dn(orbPz), l)
	add(up(orbPy), dn(orbPz), -il)
	// ⟨z↑|H|x↓⟩ = −λ, ⟨z↑|H|y↓⟩ = ... from Hermitian pairs below:
	// ⟨x↓|H|z↑⟩ = −λ  → add as ⟨z↑|H|x↓⟩ = −λ (conjugate real)
	add(up(orbPz), dn(orbPx), -l)
	// ⟨y↓|H|z↑⟩ = −iλ → add its adjoint ⟨z↑|H|y↓⟩ = +iλ
	add(up(orbPz), dn(orbPy), il)
}

// LeadBlocks extracts the periodic-lead Hamiltonian blocks from a device:
// h00 is the principal-layer block and h01 the coupling to the next layer,
// taken from the device end specified by right. The device interior must
// be a uniform repetition of the lead cell for these to be meaningful; on
// a flat device the lattice generators make every layer's blocks the same
// bits, so both ends give one lead bit for bit.
func LeadBlocks(h *sparse.BlockTridiag, right bool) (h00, h01 *linalg.Matrix) {
	if right {
		nl := h.Layers()
		return h.Diag[nl-1].Clone(), h.Upper[nl-2].Clone()
	}
	return h.Diag[0].Clone(), h.Upper[0].Clone()
}
