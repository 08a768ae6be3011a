// Package core is the public façade of the simulator: it wires the
// atomistic structure generators, tight-binding Hamiltonians, contact
// self-energies, quantum solvers (wave-function / NEGF / SplitSolve),
// electrostatics, and the multi-level parallel runner into device-level
// operations — band structures, transmission spectra (momentum-averaged
// where applicable), charge, and self-consistent I-V characteristics of
// gate-all-around nanowire FETs, the paper's flagship application.
package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/device"
	"repro/internal/sparse"
	"repro/internal/tb"
	"repro/internal/transport"
	"repro/internal/units"
)

// Simulator evaluates transport observables for one built device.
type Simulator struct {
	// Desc is the device description the simulator was built from.
	Desc device.Description
	// Built holds the structure and material.
	Built *device.Built
	// Transport selects the formalism and its numerics.
	Transport transport.Config
	// NK is the number of transverse momentum points for y-periodic
	// structures (ignored otherwise; 1 means Γ only).
	NK int
}

// New builds a simulator for the device description.
func New(desc device.Description, cfg transport.Config) (*Simulator, error) {
	b, err := desc.Build()
	if err != nil {
		return nil, err
	}
	return &Simulator{Desc: desc, Built: b, Transport: cfg, NK: 1}, nil
}

// kPoints returns the transverse momenta to sample (uniform BZ grid,
// symmetric around Γ).
func (s *Simulator) kPoints() []float64 {
	if !s.Built.Structure.PeriodicY || s.NK <= 1 {
		return []float64{0}
	}
	ks := make([]float64, s.NK)
	w := 2 * math.Pi / s.Built.Structure.PeriodY
	for j := 0; j < s.NK; j++ {
		ks[j] = -w/2 + w*(float64(j)+0.5)/float64(s.NK)
	}
	return ks
}

// Hamiltonian assembles the device Hamiltonian at transverse momentum ky
// with the given per-atom potential energy (eV, nil for flat bands).
func (s *Simulator) Hamiltonian(potential []float64, ky float64) (*sparse.BlockTridiag, error) {
	opt := s.Built.Options
	opt.Ky = ky
	opt.Potential = potential
	return tb.Assemble(s.Built.Structure, s.Built.Material, opt)
}

// Bands computes the lead band structure at ky = 0 with nk longitudinal
// k-points.
func (s *Simulator) Bands(nk int) (*tb.BandStructure, error) {
	h, err := s.Hamiltonian(nil, 0)
	if err != nil {
		return nil, err
	}
	h00, h01 := tb.LeadBlocks(h, false)
	return tb.LeadBands(h00, h01, s.Built.Structure.LayerPeriod, nk)
}

// Transmission returns the momentum-averaged transmission T(E) over the
// energy grid: the plain form of TransmissionResumable — the same (k, E)
// sweep with no journal, no retries and no quarantine.
func (s *Simulator) Transmission(ctx context.Context, energies []float64, potential []float64) ([]float64, error) {
	sweep, err := s.TransmissionResumable(ctx, energies, potential, cluster.SweepOptions{})
	if err != nil {
		return nil, err
	}
	return sweep.T, nil
}

// Stats reports the device bookkeeping numbers.
func (s *Simulator) Stats() device.Stats {
	return s.Built.Stats(s.Desc.Name, s.Desc.Kind.String())
}

// ConductionBandEdge locates the lead valence-band maximum and
// conduction-band minimum from the flat-band lead spectrum, searching for
// the transport gap within the window [lo, hi].
func (s *Simulator) ConductionBandEdge(lo, hi float64) (ev, ec float64, err error) {
	bands, err := s.Bands(65)
	if err != nil {
		return 0, 0, err
	}
	ev, ec, ok := bands.GapAround(lo, hi)
	if !ok {
		return 0, 0, fmt.Errorf("core: no transport gap found in [%g, %g] — device is metallic", lo, hi)
	}
	return ev, ec, nil
}

// SpinDegeneracy returns 2 for spinless Hamiltonians, 1 for spin-resolved.
func (s *Simulator) SpinDegeneracy() float64 {
	if s.Built.Options.Spin {
		return 1
	}
	return 2
}

// CurrentFromSpectrum integrates a Landauer current with the device's spin
// convention.
func (s *Simulator) CurrentFromSpectrum(energies, transmissions []float64, bias transport.Bias) (float64, error) {
	return transport.Current(energies, transmissions, bias, s.SpinDegeneracy())
}

// LayerVolume returns the volume of one principal layer in nm³, using the
// device cross-section for wire-like devices and a 1 nm² nominal area for
// low-dimensional ones (chains, ribbons).
func (s *Simulator) LayerVolume() float64 {
	area := 1.0
	switch s.Desc.Kind {
	case device.SiNanowire, device.GaAsNanowire, device.SiUTB, device.GeNanowire, device.InAsNanowire:
		a := s.Built.Material.LatticeConstant
		area = float64(s.Desc.CellsY) * a * float64(s.Desc.CellsZ) * a
	}
	return area * s.Built.Structure.LayerPeriod
}

// KT re-exports the thermal energy helper for drivers.
func KT(temperature float64) float64 { return units.KT(temperature) }
