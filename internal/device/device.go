// Package device describes the benchmark devices of the reproduced
// evaluation — gate-all-around silicon nanowire FETs, ultra-thin bodies,
// graphene nanoribbons, and single-band chains — and builds their
// atomistic structures and tight-binding materials. It also derives the
// bookkeeping numbers (atoms, orbitals, layers, matrix sizes) reported in
// the paper-style device table (experiment T1).
package device

import (
	"fmt"

	"repro/internal/lattice"
	"repro/internal/tb"
)

// Kind enumerates the supported device families.
type Kind int

const (
	// SiNanowire is a [100] gate-all-around silicon nanowire.
	SiNanowire Kind = iota
	// SiUTB is an ultra-thin-body silicon film, periodic in y.
	SiUTB
	// GaAsNanowire is a [100] GaAs nanowire.
	GaAsNanowire
	// GeNanowire is a [100] germanium nanowire (sp3d5s*).
	GeNanowire
	// InAsNanowire is a [100] InAs nanowire (sp3s*).
	InAsNanowire
	// ArmchairGNR is an armchair graphene nanoribbon.
	ArmchairGNR
	// ZigzagGNR is a zigzag graphene nanoribbon.
	ZigzagGNR
	// Chain is the single-band analytic reference device.
	Chain
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case SiNanowire:
		return "Si nanowire [100]"
	case SiUTB:
		return "Si ultra-thin body"
	case GaAsNanowire:
		return "GaAs nanowire [100]"
	case GeNanowire:
		return "Ge nanowire [100]"
	case InAsNanowire:
		return "InAs nanowire [100]"
	case ArmchairGNR:
		return "armchair GNR"
	case ZigzagGNR:
		return "zigzag GNR"
	case Chain:
		return "single-band chain"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// PeriodicY reports whether the family's structures are Bloch-periodic
// in y, and so take a transverse momentum grid.
func (k Kind) PeriodicY() bool { return k == SiUTB }

// Description parameterizes a device build.
type Description struct {
	Name string
	Kind Kind
	// CellsX/CellsY/CellsZ size zinc-blende devices in conventional cells
	// (CellsX = transport length). For GNRs, CellsY is the row/chain count
	// and CellsX the cell count; for chains CellsX is the site count.
	CellsX, CellsY, CellsZ int
	// FullBand selects sp3d5s* for silicon devices (else sp3s*).
	FullBand bool
	// Spin enables spin doubling with spin-orbit coupling.
	Spin bool
	// PassivationShift (eV per dangling bond); 0 picks the default 12 eV
	// for semiconductor surfaces and none for GNR/chain.
	PassivationShift float64
}

// Built bundles the outcome of a device build.
type Built struct {
	Structure *lattice.Structure
	Material  *tb.Material
	Options   tb.Options
}

// Build constructs the structure and material of the description.
func (d Description) Build() (*Built, error) {
	if d.CellsX < 2 {
		return nil, fmt.Errorf("device: %q needs at least 2 transport cells", d.Name)
	}
	pass := d.PassivationShift
	var (
		s   *lattice.Structure
		m   *tb.Material
		err error
	)
	switch d.Kind {
	case SiNanowire, SiUTB, GaAsNanowire, GeNanowire, InAsNanowire:
		if d.CellsY < 1 || d.CellsZ < 1 {
			return nil, fmt.Errorf("device: %q needs a positive cross-section", d.Name)
		}
		if pass == 0 {
			pass = 12
		}
		switch d.Kind {
		case SiNanowire:
			s, err = lattice.NewZincblendeNanowire(0.5431, d.CellsX, d.CellsY, d.CellsZ)
			if d.FullBand {
				m = tb.Silicon()
			} else {
				m = tb.SiliconSP3S()
			}
		case SiUTB:
			s, err = lattice.NewZincblendeUTB(0.5431, d.CellsX, d.CellsY, d.CellsZ)
			if d.FullBand {
				m = tb.Silicon()
			} else {
				m = tb.SiliconSP3S()
			}
		case GaAsNanowire:
			s, err = lattice.NewZincblendeNanowire(0.56533, d.CellsX, d.CellsY, d.CellsZ)
			m = tb.GaAs()
		case GeNanowire:
			s, err = lattice.NewZincblendeNanowire(0.5658, d.CellsX, d.CellsY, d.CellsZ)
			m = tb.Germanium()
		case InAsNanowire:
			s, err = lattice.NewZincblendeNanowire(0.60583, d.CellsX, d.CellsY, d.CellsZ)
			m = tb.InAs()
		}
	case ArmchairGNR:
		s, err = lattice.NewArmchairGNR(d.CellsY, d.CellsX)
		m = tb.Graphene()
	case ZigzagGNR:
		s, err = lattice.NewZigzagGNR(d.CellsY, d.CellsX)
		m = tb.Graphene()
	case Chain:
		s, err = lattice.NewLinearChain(0.5, d.CellsX)
		m = tb.SingleBandChain(0, -1)
	default:
		return nil, fmt.Errorf("device: unknown kind %d", d.Kind)
	}
	if err != nil {
		return nil, fmt.Errorf("device: %q: %w", d.Name, err)
	}
	return &Built{
		Structure: s,
		Material:  m,
		Options:   tb.Options{Spin: d.Spin, PassivationShift: pass},
	}, nil
}

// Stats are the bookkeeping numbers of a built device.
type Stats struct {
	Name         string
	Kind         string
	Atoms        int
	Layers       int
	OrbitalsAtom int
	MatrixOrder  int
	BlockSize    int
	CrossSection float64 // nm² (0 when not applicable)
	TransportLen float64 // nm
}

// Stats derives the bookkeeping numbers for the device table.
func (b *Built) Stats(name, kind string) Stats {
	orb := tb.OrbitalsPerAtom(b.Material, b.Options)
	s := b.Structure
	return Stats{
		Name:         name,
		Kind:         kind,
		Atoms:        s.NAtoms(),
		Layers:       s.NLayers(),
		OrbitalsAtom: orb,
		MatrixOrder:  s.NAtoms() * orb,
		BlockSize:    s.LayerSize(0) * orb,
		TransportLen: float64(s.NLayers()) * s.LayerPeriod,
	}
}

// BenchmarkSuite returns the devices of the reconstructed T1 table at
// laptop scale, in the order they appear in EXPERIMENTS.md.
func BenchmarkSuite() []Description {
	return []Description{
		{Name: "SiNW-sp3d5s*", Kind: SiNanowire, CellsX: 8, CellsY: 1, CellsZ: 1, FullBand: true},
		{Name: "SiNW-sp3s*", Kind: SiNanowire, CellsX: 8, CellsY: 1, CellsZ: 1},
		{Name: "SiNW-2x2", Kind: SiNanowire, CellsX: 6, CellsY: 2, CellsZ: 2},
		{Name: "SiUTB", Kind: SiUTB, CellsX: 6, CellsY: 1, CellsZ: 1},
		{Name: "GaAsNW", Kind: GaAsNanowire, CellsX: 6, CellsY: 1, CellsZ: 1},
		{Name: "AGNR-7", Kind: ArmchairGNR, CellsX: 12, CellsY: 7},
		{Name: "ZGNR-6", Kind: ZigzagGNR, CellsX: 12, CellsY: 6},
	}
}
