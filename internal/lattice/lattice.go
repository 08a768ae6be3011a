// Package lattice generates the atomistic structures the simulator
// transports electrons through: diamond/zinc-blende nanowires and
// ultra-thin bodies along [100], honeycomb graphene nanoribbons, and
// single-orbital chains for analytic validation.
//
// A structure is a finite stack of identical "principal layers"
// perpendicular to the transport direction x. Nearest-neighbor bonds only
// ever connect a layer to itself or to the adjacent layers — the property
// that makes the device Hamiltonian block-tridiagonal and that every
// open-boundary solver in this repository relies on. Structures may be
// periodic in y (ultra-thin bodies), in which case bonds crossing the
// boundary carry a wrap index and the Hamiltonian acquires a transverse
// Bloch phase exp(±i·k·W).
package lattice

import (
	"fmt"
	"math"
	"sort"
)

// Vec3 is a point or displacement in 3-D space, in nanometers.
type Vec3 struct{ X, Y, Z float64 }

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v − w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns s·v.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{s * v.X, s * v.Y, s * v.Z} }

// Dot returns the scalar product v·w.
func (v Vec3) Dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Norm returns the Euclidean length of v.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Atom is one lattice site.
type Atom struct {
	// Species indexes the material's species table: 0 for the anion (or
	// the single species of an elemental crystal), 1 for the cation.
	Species int
	// Pos is the position in nm.
	Pos Vec3
	// Layer is the principal-layer index along the transport direction.
	Layer int
	// Dangling counts missing nearest neighbors (surface bonds), which the
	// tight-binding assembly passivates with an on-site energy shift.
	Dangling int
}

// Neighbor is one directed nearest-neighbor bond from a given atom.
type Neighbor struct {
	// Index is the target atom.
	Index int
	// Delta is the bond vector from source to target in nm, including any
	// periodic image displacement.
	Delta Vec3
	// WrapY is −1, 0 or +1: how many transverse periods the bond crosses.
	WrapY int
}

// Structure is a finite layered atomistic device region.
type Structure struct {
	// Atoms in global index order, sorted by layer.
	Atoms []Atom
	// Neighbors lists the nearest-neighbor bonds of each atom.
	Neighbors [][]Neighbor
	// LayerAtoms[i] lists the atom indices of principal layer i, in a
	// consistent intra-layer order across layers.
	LayerAtoms [][]int
	// LayerPeriod is the extent of one principal layer along x, in nm.
	LayerPeriod float64
	// PeriodY is the transverse period in nm when PeriodicY is true.
	PeriodY float64
	// PeriodicY marks ultra-thin-body-like structures that are Bloch
	// periodic in y.
	PeriodicY bool
	// BondLength is the ideal nearest-neighbor distance in nm.
	BondLength float64
	// CoordMax is the bulk coordination number (4 for tetrahedral, 3 for
	// honeycomb, 2 for a chain).
	CoordMax int
}

// NLayers returns the number of principal layers.
func (s *Structure) NLayers() int { return len(s.LayerAtoms) }

// NAtoms returns the total number of atoms.
func (s *Structure) NAtoms() int { return len(s.Atoms) }

// LayerSize returns the number of atoms in layer i.
func (s *Structure) LayerSize(i int) int { return len(s.LayerAtoms[i]) }

// Validate checks the layered-structure invariants: every bond connects
// layers at distance ≤ 1, every layer is non-empty, all layers have the
// same atom count (required for the leads to be periodic continuations of
// the end layers), and every bond is its reference bond's exact copy
// (referenceBonds) — the periodicity that makes every layer block of a
// flat device, and with them both leads, the same bits.
func (s *Structure) Validate() error {
	if len(s.LayerAtoms) == 0 {
		return fmt.Errorf("lattice: structure has no layers")
	}
	n0 := len(s.LayerAtoms[0])
	for i, la := range s.LayerAtoms {
		if len(la) == 0 {
			return fmt.Errorf("lattice: layer %d is empty", i)
		}
		if len(la) != n0 {
			return fmt.Errorf("lattice: layer %d has %d atoms, layer 0 has %d", i, len(la), n0)
		}
	}
	for i, nbrs := range s.Neighbors {
		for _, nb := range nbrs {
			dl := s.Atoms[nb.Index].Layer - s.Atoms[i].Layer
			if dl < -1 || dl > 1 {
				return fmt.Errorf("lattice: bond %d→%d spans %d layers; structure is not block-tridiagonal",
					i, nb.Index, dl)
			}
		}
	}
	ref, local := s.referenceBonds()
	for i, nbrs := range s.Neighbors {
		for _, nb := range nbrs {
			k := s.bondKey(i, nb, local)
			if d, ok := ref[k]; !ok || d != nb.Delta {
				return fmt.Errorf("lattice: bond %d→%d (layer %d, Δlayer %+d, wrap %+d) is no copy of a reference-layer bond; structure is not periodic",
					i, nb.Index, s.Atoms[i].Layer, k.dLayer, k.wrap)
			}
		}
	}
	return nil
}

// bondKey names a bond by where it sits in its layer: the positions of its
// source and target within their layers (local), the layers it crosses and
// the transverse periods it wraps. Bonds of a periodic structure with the
// same key are one bond repeated.
type bondKey struct{ from, dLayer, to, wrap int }

func (s *Structure) bondKey(i int, nb Neighbor, local []int) bondKey {
	return bondKey{local[i], s.Atoms[nb.Index].Layer - s.Atoms[i].Layer, local[nb.Index], nb.WrapY}
}

// referenceBonds returns the vector of every bond key — layer 0's bonds
// within the layer and to +x, layer 1's to −x, each exactly
// Pos_target − Pos_source — and every atom's position within its layer.
// A layer-1 bond to −x is the negation of its layer-0 reverse bit for bit,
// as IEEE subtraction is sign-symmetric.
func (s *Structure) referenceBonds() (map[bondKey]Vec3, []int) {
	local := make([]int, len(s.Atoms))
	for _, la := range s.LayerAtoms {
		for p, idx := range la {
			local[idx] = p
		}
	}
	ref := make(map[bondKey]Vec3)
	for l, la := range s.LayerAtoms[:min(2, len(s.LayerAtoms))] {
		for _, i := range la {
			for _, nb := range s.Neighbors[i] {
				if k := s.bondKey(i, nb, local); (l == 0) == (k.dLayer >= 0) {
					ref[k] = nb.Delta
				}
			}
		}
	}
	return ref, local
}

// ApplyStrain deforms the structure homogeneously: positions, periods and
// bond vectors are scaled by (1+exx, 1+eyy, 1+ezz) while the bond topology
// (who is bonded to whom) is preserved — the standard treatment of
// moderate homogeneous strain in atomistic device simulation. BondLength
// keeps its unstrained reference value so the tight-binding assembly can
// scale hoppings by the actual bond-length change (Harrison's rule).
func (s *Structure) ApplyStrain(exx, eyy, ezz float64) error {
	if exx <= -1 || eyy <= -1 || ezz <= -1 {
		return fmt.Errorf("lattice: strain collapses the crystal: (%g, %g, %g)", exx, eyy, ezz)
	}
	sx, sy, sz := 1+exx, 1+eyy, 1+ezz
	for i := range s.Atoms {
		p := &s.Atoms[i].Pos
		p.X *= sx
		p.Y *= sy
		p.Z *= sz
	}
	s.LayerPeriod *= sx
	s.PeriodY *= sy
	for i := range s.Neighbors {
		for k := range s.Neighbors[i] {
			d := &s.Neighbors[i][k].Delta
			d.X *= sx
			d.Y *= sy
			d.Z *= sz
		}
	}
	return nil
}

// buildNeighbors fills s.Neighbors with all atom pairs at the ideal bond
// length (within tol, relative), honoring y-periodicity, using uniform
// spatial binning so construction stays O(N), and makes every bond an
// exact copy of its reference bond (referenceBonds).
func (s *Structure) buildNeighbors(tol float64) {
	n := len(s.Atoms)
	s.Neighbors = make([][]Neighbor, n)
	cut := s.BondLength * (1 + tol)
	cell := cut * 1.001
	type key struct{ x, y, z int }
	bins := make(map[key][]int, n)
	binOf := func(p Vec3) key {
		return key{int(math.Floor(p.X / cell)), int(math.Floor(p.Y / cell)), int(math.Floor(p.Z / cell))}
	}
	for i, a := range s.Atoms {
		k := binOf(a.Pos)
		bins[k] = append(bins[k], i)
	}
	images := []float64{0}
	if s.PeriodicY {
		images = []float64{0, s.PeriodY, -s.PeriodY}
	}
	for i, a := range s.Atoms {
		for wi, shift := range images {
			p := a.Pos
			p.Y += shift
			kb := binOf(p)
			for dx := -1; dx <= 1; dx++ {
				for dy := -1; dy <= 1; dy++ {
					for dz := -1; dz <= 1; dz++ {
						for _, j := range bins[key{kb.x + dx, kb.y + dy, kb.z + dz}] {
							if j == i && wi == 0 {
								continue
							}
							d := s.Atoms[j].Pos.Sub(p)
							if r := d.Norm(); math.Abs(r-s.BondLength) <= tol*s.BondLength {
								wrap := 0
								if wi == 1 {
									wrap = 1 // bond leaves through +y, lands on the -y image
								} else if wi == 2 {
									wrap = -1
								}
								s.Neighbors[i] = append(s.Neighbors[i],
									Neighbor{Index: j, Delta: d, WrapY: wrap})
							}
						}
					}
				}
			}
		}
	}
	// Every bond takes its reference bond's vector: positions one period
	// apart differ by rounding, so searched vectors would too, and with
	// them every layer block. A bond without a reference is left for
	// Validate to refuse.
	ref, local := s.referenceBonds()
	for i, nbrs := range s.Neighbors {
		for k, nb := range nbrs {
			if d, ok := ref[s.bondKey(i, nb, local)]; ok {
				nbrs[k].Delta = d
			}
		}
	}
	// Dangling-bond counting treats the transport direction as periodic:
	// the end layers continue into semi-infinite contacts, so their
	// missing ±x neighbors are not surface bonds and must not be
	// passivated. Only genuinely missing transverse neighbors count.
	for i := range s.Atoms {
		s.Atoms[i].Dangling = s.CoordMax - len(s.Neighbors[i]) - s.virtualXBonds(i, tol)
		if s.Atoms[i].Dangling < 0 {
			s.Atoms[i].Dangling = 0
		}
	}
}

// virtualXBonds counts the bonds atom i would gain if the structure were
// continued periodically along the transport direction (combined with the
// transverse period when present) — the neighbors it will have once the
// contacts are attached.
func (s *Structure) virtualXBonds(i int, tol float64) int {
	last := 0
	for _, a := range s.Atoms {
		if a.Layer > last {
			last = a.Layer
		}
	}
	lx := float64(last+1) * s.LayerPeriod
	cut := s.BondLength * (1 + 2*tol)
	// Only atoms near the x boundaries can gain wrapped bonds.
	if x := s.Atoms[i].Pos.X; x > cut && x < lx-cut {
		return 0
	}
	yShifts := []float64{0}
	if s.PeriodicY {
		yShifts = []float64{0, s.PeriodY, -s.PeriodY}
	}
	count := 0
	for _, xShift := range []float64{lx, -lx} {
		for _, yShift := range yShifts {
			p := s.Atoms[i].Pos
			p.X += xShift
			p.Y += yShift
			for j := range s.Atoms {
				d := s.Atoms[j].Pos.Sub(p)
				if r := d.Norm(); math.Abs(r-s.BondLength) <= tol*s.BondLength {
					count++
				}
			}
		}
	}
	return count
}

// sortIntoLayers orders s.Atoms by (layer, y, z, x) and rebuilds LayerAtoms.
// A deterministic intra-layer order makes every layer's Hamiltonian block
// identical for uniform structures, which the lead construction requires.
func (s *Structure) sortIntoLayers(nLayers int) {
	perm := make([]int, len(s.Atoms))
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(a, b int) bool {
		aa, bb := s.Atoms[perm[a]], s.Atoms[perm[b]]
		if aa.Layer != bb.Layer {
			return aa.Layer < bb.Layer
		}
		const eps = 1e-9
		// Compare x within the layer first (sub-layer atomic planes), then
		// y, z for a lexicographic intra-plane order.
		axr := aa.Pos.X - float64(aa.Layer)*s.LayerPeriod
		bxr := bb.Pos.X - float64(bb.Layer)*s.LayerPeriod
		if math.Abs(axr-bxr) > eps {
			return axr < bxr
		}
		if math.Abs(aa.Pos.Y-bb.Pos.Y) > eps {
			return aa.Pos.Y < bb.Pos.Y
		}
		return aa.Pos.Z < bb.Pos.Z
	})
	inv := make([]int, len(perm))
	newAtoms := make([]Atom, len(s.Atoms))
	for newIdx, oldIdx := range perm {
		newAtoms[newIdx] = s.Atoms[oldIdx]
		inv[oldIdx] = newIdx
	}
	s.Atoms = newAtoms
	// Remap neighbor lists if already built (callers normally build after).
	if s.Neighbors != nil {
		newN := make([][]Neighbor, len(s.Neighbors))
		for oldIdx, lst := range s.Neighbors {
			cp := make([]Neighbor, len(lst))
			for k, nb := range lst {
				cp[k] = Neighbor{Index: inv[nb.Index], Delta: nb.Delta, WrapY: nb.WrapY}
			}
			newN[inv[oldIdx]] = cp
		}
		s.Neighbors = newN
	}
	s.LayerAtoms = make([][]int, nLayers)
	for i, a := range s.Atoms {
		s.LayerAtoms[a.Layer] = append(s.LayerAtoms[a.Layer], i)
	}
}
