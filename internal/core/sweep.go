package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"repro/internal/cluster"
	"repro/internal/negf"
	"repro/internal/resilience"
	"repro/internal/sched"
	"repro/internal/transport"
)

// TransmissionSweep is the outcome of a fault-tolerant transmission sweep:
// the momentum-averaged T(E) over the surviving grid, plus the sweep
// report (restored/completed/retried/quarantined accounting).
type TransmissionSweep struct {
	// Energies is the surviving energy grid — the input grid minus any
	// point whose every momentum sample was quarantined.
	Energies []float64
	// T is the transmission averaged over the surviving momentum points at
	// each surviving energy (renormalized by the surviving k count, so a
	// lost (k,E) sample degrades the average instead of biasing it).
	T []float64
	// Report is the underlying sweep accounting.
	Report *cluster.SweepReport
}

// TransmissionPlan is a transmission sweep decomposed into the three
// roles the distributed engine separates: executing one (k, E) task
// (Run), reinstating a task's payload into the accumulators (Restore),
// and folding the accumulators into observables once every task is
// accounted for (Assemble). The local path wires all three into
// cluster.RunTasksResumable; in a distributed run the workers use only
// Run while the coordinator uses only Restore and Assemble — which is
// what makes the two paths bitwise-identical, since the payload is the
// single point of truth either way.
type TransmissionPlan struct {
	sim      *Simulator
	cfg      transport.Config
	energies []float64
	ks       []float64
	perK     [][]float64

	engines   []*transport.Engine
	engErrs   []error
	onces     []sync.Once
	potential []float64
}

// PlanTransmission prepares a transmission sweep over the energy grid at
// the given potential without running anything.
func (s *Simulator) PlanTransmission(energies, potential []float64) (*TransmissionPlan, error) {
	if len(energies) == 0 {
		return nil, fmt.Errorf("core: empty energy grid")
	}
	ks := s.kPoints()
	nk := len(ks)
	cfg := s.Transport
	if cfg.Pool == nil {
		cfg.Pool = sched.New(0)
	}
	p := &TransmissionPlan{
		sim:       s,
		cfg:       cfg,
		energies:  energies,
		ks:        ks,
		perK:      make([][]float64, nk),
		engines:   make([]*transport.Engine, nk),
		engErrs:   make([]error, nk),
		onces:     make([]sync.Once, nk),
		potential: potential,
	}
	for k := range p.perK {
		p.perK[k] = make([]float64, len(energies))
	}
	return p, nil
}

// Dims returns the task-grid shape (nBias, nK, nE) — the numbers every
// process of a distributed run must agree on.
func (p *TransmissionPlan) Dims() (nBias, nK, nE int) { return 1, len(p.ks), len(p.energies) }

// Pool returns the transport-level scheduler pool the plan solves on.
func (p *TransmissionPlan) Pool() *sched.Pool { return p.cfg.Pool }

// engineFor builds the momentum point's engine on first use, so a run
// that never touches a k (a resume, or a worker leased a subset) never
// pays for its Hamiltonian assembly.
func (p *TransmissionPlan) engineFor(k int) (*transport.Engine, error) {
	p.onces[k].Do(func() {
		h, err := p.sim.Hamiltonian(p.potential, p.ks[k])
		if err != nil {
			p.engErrs[k] = err
			return
		}
		p.engines[k], p.engErrs[k] = transport.NewEngine(h, p.cfg)
	})
	if p.engErrs[k] != nil {
		// Assembly failures are deterministic; retrying cannot help.
		return nil, resilience.MarkPermanent(p.engErrs[k])
	}
	return p.engines[k], nil
}

// Run executes one task and returns its payload — the 8-byte
// little-endian transmission value, a deterministic function of (k, E).
// It also deposits the value locally so a purely local run needs no
// Restore round-trip. Safe for concurrent use across distinct tasks.
func (p *TransmissionPlan) Run(ctx context.Context, t cluster.Task) ([]byte, error) {
	eng, err := p.engineFor(t.K)
	if err != nil {
		return nil, err
	}
	r, err := solveInGroup(ctx, eng, p.energies, t, false)
	if err != nil {
		return nil, err
	}
	p.perK[t.K][t.E] = r.T
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(r.T))
	return b[:], nil
}

// solveInGroup solves grid[t.E] on eng, with density output or without,
// where t is a task of the lane group ctx carries (cluster.GroupFrom): the
// group's first task solves all its energies in lockstep
// (transport.Engine.SolveGroup) unless ctx is already done, and each task
// takes its own (SolveFrom). A group's tasks are consecutive energies of
// one grid. Outside a group, and where its energies share nothing, t is
// solved alone.
func solveInGroup(ctx context.Context, eng *transport.Engine, grid []float64, t cluster.Task, density bool) (*negf.Result, error) {
	grp := cluster.GroupFrom(ctx)
	lane := grp.Lane(t)
	if lane < 0 {
		return eng.SolveAt(ctx, grid[t.E], density)
	}
	g, _ := grp.Lanes(func(first cluster.Task, n int) any {
		if ctx.Err() != nil {
			return (*negf.Group)(nil)
		}
		return eng.SolveGroup(grid[first.E:first.E+n], density)
	}).(*negf.Group)
	if g == nil {
		return eng.SolveAt(ctx, grid[t.E], density)
	}
	return eng.SolveFrom(ctx, g, lane)
}

// TransmissionValue decodes a task payload — Run's encoding, which
// every reader of a journaled or wire-delivered result goes through.
func TransmissionValue(payload []byte) (float64, error) {
	if len(payload) != 8 {
		return 0, fmt.Errorf("core: transmission payload is %d bytes, want 8", len(payload))
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(payload)), nil
}

// Restore reinstates one task's journaled (or wire-delivered) payload.
// Its callers name the task in the error.
func (p *TransmissionPlan) Restore(t cluster.Task, payload []byte) (err error) {
	p.perK[t.K][t.E], err = TransmissionValue(payload)
	return err
}

// Assemble folds the accumulated per-(k,E) values into the
// momentum-averaged observables, renormalizing each energy over its
// surviving momentum samples per the report's quarantined set.
func (p *TransmissionPlan) Assemble(rep *cluster.SweepReport) *TransmissionSweep {
	_, nk, ne := p.Dims()
	sweep := &TransmissionSweep{Report: rep}
	bad := rep.QuarantinedSet(nk, ne)
	for e := 0; e < ne; e++ {
		var sum float64
		cnt := 0
		for k := 0; k < nk; k++ {
			if bad[k*ne+e] {
				continue
			}
			sum += p.perK[k][e]
			cnt++
		}
		if cnt == 0 {
			continue // every momentum sample of this energy was lost
		}
		sweep.Energies = append(sweep.Energies, p.energies[e])
		sweep.T = append(sweep.T, sum/float64(cnt))
	}
	return sweep
}

// TransmissionResumable computes the momentum-averaged transmission like
// Transmission, but through the fault-tolerant sweep engine
// (cluster.RunTasksResumable): each (k, E) point is one journaled,
// retryable task whose payload is the 8-byte transmission value. With a
// journal in opts, a killed run resumes from its checkpoint and — because
// each task is a deterministic function of (k, E) — reproduces the
// observables of an uninterrupted run bit for bit. With quarantine
// enabled, unsalvageable points are dropped and the momentum average is
// renormalized over the surviving samples.
//
// Even on error the returned sweep carries the report, so drivers can
// print partial-progress summaries after an interrupt.
func (s *Simulator) TransmissionResumable(ctx context.Context, energies, potential []float64, opts cluster.SweepOptions) (*TransmissionSweep, error) {
	plan, err := s.PlanTransmission(energies, potential)
	if err != nil {
		return nil, err
	}
	if opts.Pool == nil {
		opts.Pool = plan.Pool()
	}
	opts.Restore = plan.Restore
	nBias, nk, ne := plan.Dims()
	rep, err := cluster.RunTasksResumable(ctx, nBias, nk, ne, opts, plan.Run)
	if err != nil {
		return &TransmissionSweep{Report: rep}, err
	}
	return plan.Assemble(rep), nil
}
