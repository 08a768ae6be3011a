package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/device"
	"repro/internal/transport"
)

func gnrSim(t *testing.T, cells int) *Simulator {
	t.Helper()
	sim, err := New(device.Description{
		Name: "AGNR7", Kind: device.ArmchairGNR, CellsX: cells, CellsY: 7,
	}, transport.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

func TestSimulatorStats(t *testing.T) {
	sim := gnrSim(t, 8)
	st := sim.Stats()
	if st.Atoms != 8*14 || st.Layers != 8 {
		t.Fatalf("stats: %+v", st)
	}
	if st.MatrixOrder != st.Atoms*st.OrbitalsAtom {
		t.Fatal("matrix order inconsistent")
	}
	if st.BlockSize != 14 {
		t.Fatalf("block size %d, want 14", st.BlockSize)
	}
}

func TestSimulatorBandsAndGap(t *testing.T) {
	sim := gnrSim(t, 6)
	ev, ec, err := sim.ConductionBandEdge(-2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ec <= ev {
		t.Fatalf("inverted gap: ev=%g ec=%g", ev, ec)
	}
	// 7-AGNR pz gap ≈ 1.4-1.6 eV, symmetric about 0.
	if g := ec - ev; g < 0.8 || g > 2.2 {
		t.Fatalf("7-AGNR gap %g eV outside expectation", g)
	}
	if math.Abs(ec+ev) > 0.05 {
		t.Fatalf("gap not centered: ev=%g ec=%g", ev, ec)
	}
}

func TestSimulatorTransmissionFlat(t *testing.T) {
	sim := gnrSim(t, 6)
	_, ec, err := sim.ConductionBandEdge(-2, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Inside the first conduction plateau, T = 1 for a clean ribbon; in
	// the gap, T ≈ 0.
	ts, err := sim.Transmission(context.Background(), []float64{0, ec + 0.1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ts[0] > 1e-4 {
		t.Fatalf("in-gap transmission %g", ts[0])
	}
	if math.Abs(ts[1]-1) > 1e-3 {
		t.Fatalf("first-plateau transmission %g, want 1", ts[1])
	}
}

func TestSimulatorPotentialBarrier(t *testing.T) {
	sim := gnrSim(t, 8)
	_, ec, err := sim.ConductionBandEdge(-2, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.Built.Structure
	pot := make([]float64, s.NAtoms())
	for i, a := range s.Atoms {
		if a.Layer >= 3 && a.Layer <= 4 {
			pot[i] = 0.4
		}
	}
	e := ec + 0.15
	tFlat, err := sim.Transmission(context.Background(), []float64{e}, nil)
	if err != nil {
		t.Fatal(err)
	}
	tBarrier, err := sim.Transmission(context.Background(), []float64{e}, pot)
	if err != nil {
		t.Fatal(err)
	}
	if tBarrier[0] >= tFlat[0] {
		t.Fatalf("barrier did not suppress transmission: %g vs %g", tBarrier[0], tFlat[0])
	}
}

func TestUTBMomentumAverage(t *testing.T) {
	sim, err := New(device.Description{
		Name: "UTB", Kind: device.SiUTB, CellsX: 3, CellsY: 1, CellsZ: 1,
	}, transport.Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, ec, err := sim.ConductionBandEdge(-2, 6)
	if err != nil {
		t.Fatal(err)
	}
	e := []float64{ec + 0.3}
	sim.NK = 1
	t1, err := sim.Transmission(context.Background(), e, nil)
	if err != nil {
		t.Fatal(err)
	}
	sim.NK = 4
	t4, err := sim.Transmission(context.Background(), e, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Averaging over transverse momentum must change the answer for a
	// dispersive UTB (the Γ-only sample is not exact).
	if math.Abs(t1[0]-t4[0]) < 1e-9 {
		t.Fatal("k-averaging had no effect on UTB transmission")
	}
	if t4[0] < 0 {
		t.Fatal("negative averaged transmission")
	}
}

// fetForTest returns a fast GNR FET configuration.
func fetForTest(t *testing.T) *FET {
	sim := gnrSim(t, 20)
	fet, err := NewFET(sim)
	if err != nil {
		t.Fatal(err)
	}
	fet.NE = 120
	return fet
}

func TestFETGateControl(t *testing.T) {
	if testing.Short() {
		t.Skip("self-consistent FET loop in -short mode")
	}
	fet := fetForTest(t)
	points, err := fet.GateSweep(context.Background(), []float64{-0.4, 0.0, 0.4}, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		if !p.Converged {
			t.Fatalf("Vg=%g did not converge in %d iterations", p.VGate, p.Iterations)
		}
		if p.Current <= 0 {
			t.Fatalf("Vg=%g: non-positive current %g", p.VGate, p.Current)
		}
	}
	// n-FET turn-on: monotonically increasing current.
	if !(points[0].Current < points[1].Current && points[1].Current < points[2].Current) {
		t.Fatalf("I-V not monotonic: %g, %g, %g",
			points[0].Current, points[1].Current, points[2].Current)
	}
	// Meaningful on/off ratio across the sweep.
	if points[2].Current/points[0].Current < 10 {
		t.Fatalf("on/off ratio %g too small", points[2].Current/points[0].Current)
	}
	// Channel barrier must fall with gate voltage.
	mid := len(points[0].Potential) / 2
	if !(points[0].Potential[mid] > points[2].Potential[mid]) {
		t.Fatal("gate did not lower the channel barrier")
	}
	// Subthreshold slope: physical bound is 60 mV/dec at 300 K.
	ss, err := SubthresholdSlope(points[0], points[1])
	if err != nil {
		t.Fatal(err)
	}
	if ss < 59 {
		t.Fatalf("subthreshold slope %g mV/dec beats the thermionic limit", ss)
	}
}

func TestFETRequiresSemiconductor(t *testing.T) {
	sim, err := New(device.Description{
		Name: "chain", Kind: device.Chain, CellsX: 10,
	}, transport.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewFET(sim); err == nil {
		t.Fatal("FET accepted a gapless device")
	}
}

func TestSubthresholdSlopeValidation(t *testing.T) {
	if _, err := SubthresholdSlope(IVPoint{Current: 0}, IVPoint{Current: 1}); err == nil {
		t.Fatal("accepted zero current")
	}
	if _, err := SubthresholdSlope(IVPoint{Current: 1, VGate: 0}, IVPoint{Current: 1, VGate: 0.1}); err == nil {
		t.Fatal("accepted equal currents")
	}
	ss, err := SubthresholdSlope(
		IVPoint{Current: 1e-9, VGate: 0},
		IVPoint{Current: 1e-8, VGate: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ss-100) > 1e-9 {
		t.Fatalf("slope %g, want 100 mV/dec", ss)
	}
}

func TestSpinDegeneracyAndCurrent(t *testing.T) {
	spinless := gnrSim(t, 6)
	if spinless.SpinDegeneracy() != 2 {
		t.Fatal("spinless device should carry degeneracy 2")
	}
	spinful, err := New(device.Description{
		Name: "w", Kind: device.SiNanowire, CellsX: 2, CellsY: 1, CellsZ: 1, Spin: true,
	}, transport.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if spinful.SpinDegeneracy() != 1 {
		t.Fatal("spin-resolved device should carry degeneracy 1")
	}
	// The Landauer integral must scale with the degeneracy factor.
	grid := []float64{0, 0.1, 0.2}
	ts := []float64{1, 1, 1}
	bias := transport.Bias{MuL: 0.15, MuR: 0.05, Temperature: 300}
	i2, err := spinless.CurrentFromSpectrum(grid, ts, bias)
	if err != nil {
		t.Fatal(err)
	}
	i1, err := spinful.CurrentFromSpectrum(grid, ts, bias)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(i2-2*i1) > 1e-15*math.Abs(i2) {
		t.Fatalf("spin factor broken: %g vs 2×%g", i2, i1)
	}
}

func TestLayerVolume(t *testing.T) {
	wire, err := New(device.Description{
		Name: "w", Kind: device.SiNanowire, CellsX: 2, CellsY: 2, CellsZ: 3,
	}, transport.Config{})
	if err != nil {
		t.Fatal(err)
	}
	a := wire.Built.Material.LatticeConstant
	want := 2 * a * 3 * a * wire.Built.Structure.LayerPeriod
	if math.Abs(wire.LayerVolume()-want) > 1e-12 {
		t.Fatalf("wire layer volume %g, want %g", wire.LayerVolume(), want)
	}
	gnr := gnrSim(t, 4)
	if math.Abs(gnr.LayerVolume()-gnr.Built.Structure.LayerPeriod) > 1e-12 {
		t.Fatal("GNR layer volume should use the 1 nm² nominal area")
	}
}

func TestHamiltonianRejectsKyOnWire(t *testing.T) {
	sim, err := New(device.Description{
		Name: "w", Kind: device.SiNanowire, CellsX: 2, CellsY: 1, CellsZ: 1,
	}, transport.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Hamiltonian(nil, 0.5); err == nil {
		t.Fatal("accepted transverse momentum on a non-periodic wire")
	}
}
