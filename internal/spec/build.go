package spec

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/negf"
	"repro/internal/resilience"
	"repro/internal/sched"
	"repro/internal/transport"
)

// Built is the runnable realization of a RunSpec: the constructed
// simulator, the shared scheduler pool, the sampling
// grids, and accessors for the resilience machinery — everything the
// CLIs used to assemble by hand from flags.
type Built struct {
	// Spec is the validated spec this was built from.
	Spec RunSpec
	// Sim is the device simulator.
	Sim *core.Simulator
	// Cache is the I-V sweep's contact self-energy cache (iv mode; nil
	// otherwise): the one place an energy comes back. A
	// transmission sweep solves each (k, E) once and runs uncached.
	Cache *negf.SelfEnergyCache
	// Pool is the worker pool every parallel level draws from.
	Pool *sched.Pool
	// Grid is the transmission energy grid (transmission mode).
	Grid []float64
	// GateGrid is the gate-voltage grid (iv mode).
	GateGrid []float64
}

// Build validates the spec and constructs its runnable pieces. It does
// not open journals or sockets — those are per-invocation concerns the
// caller wires from the spec's Resilience/Exec sections (fsync policy
// and resume gating differ between serial and coordinator runs).
func Build(s RunSpec) (*Built, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	b := &Built{Spec: s, Pool: sched.New(s.Exec.Workers)}

	desc, ok := device.Lookup(s.Device.Name)
	if !ok {
		// Validate already vouched for the name; a miss here is a bug.
		return nil, fmt.Errorf("spec: unknown device %q", s.Device.Name)
	}
	if s.Device.CellsX > 0 {
		desc.CellsX = s.Device.CellsX
	}
	if s.Device.CellsY > 0 {
		desc.CellsY = s.Device.CellsY
	}
	if s.Device.CellsZ > 0 {
		desc.CellsZ = s.Device.CellsZ
	}

	cfg := transport.Config{
		Domains: s.Solver.Domains,
		Pool:    b.Pool,
	}
	switch s.Solver.Formalism {
	case "wf":
		cfg.Formalism = transport.WaveFunction
	case "negf":
		cfg.Formalism = transport.NEGFRGF
	}
	sim, err := core.New(desc, cfg)
	if err != nil {
		return nil, err
	}
	sim.NK = s.Grid.NK
	b.Sim = sim

	switch s.Mode {
	case ModeTransmission:
		b.Grid = s.EnergyGrid()
	case ModeIV:
		b.GateGrid = transport.UniformGrid(s.Grid.VGMin, s.Grid.VGMax, s.Grid.NVG)
		b.Cache = negf.NewSelfEnergyCache()
	}
	return b, nil
}

// RetryPolicy assembles the per-task retry policy of the spec.
func (b *Built) RetryPolicy() resilience.Policy {
	return resilience.Policy{
		MaxAttempts:    b.Spec.Resilience.MaxRetries + 1,
		AttemptTimeout: b.Spec.Resilience.TaskTimeout.Std(),
		JitterFrac:     0.2,
		Seed:           b.Spec.Resilience.FaultSeed,
	}
}

// Injector returns the deterministic fault injector of the spec's
// drill settings, or nil when no drill is configured.
func (b *Built) Injector() *resilience.Injector {
	if b.Spec.Resilience.FaultRate <= 0 {
		return nil
	}
	return &resilience.Injector{
		Seed: b.Spec.Resilience.FaultSeed,
		Rate: b.Spec.Resilience.FaultRate,
	}
}

// SweepOptions assembles the sweep-engine options of the spec: pool,
// retry policy, injector, and quarantine. The journal and progress
// observer stay with the caller (journals carry fsync and header
// decisions Build deliberately does not make).
func (b *Built) SweepOptions() cluster.SweepOptions {
	return cluster.SweepOptions{
		Pool:       b.Pool,
		Retry:      b.RetryPolicy(),
		Injector:   b.Injector(),
		Quarantine: b.Spec.Resilience.Quarantine,
	}
}
