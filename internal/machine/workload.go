package machine

import (
	"fmt"

	"repro/internal/negf"
	"repro/internal/sparse"
	"repro/internal/splitsolve"
)

// Workload describes one self-consistent-iteration sweep of the simulator:
// the outer product of bias points, transverse momentum points, and energy
// points, each requiring one open-boundary solve on a device of NLayers
// principal layers with BlockSize orbitals per layer and RHSWidth
// right-hand-side columns (contact injection width).
type Workload struct {
	NBias     int
	NK        int
	NE        int
	NLayers   int
	BlockSize int
	RHSWidth  int
	// SelfEnergyIterations is the decimation depth of the contact surface
	// Green's functions (per solve).
	SelfEnergyIterations int
	// CouplingRank is the number of nonzero coupling columns between
	// adjacent layers (the boundary atomic planes). Zero means full rank
	// (dense coupling); zinc-blende [100] layers have rank BlockSize/4.
	CouplingRank int
	// EnergyCostCV is the coefficient of variation of per-energy-point
	// solve cost (adaptive grids and decimation depth make energy points
	// heterogeneous). Zero models perfectly uniform points; production
	// sweeps sit near 0.1.
	EnergyCostCV float64
}

// Validate reports parameter errors.
func (w Workload) Validate() error {
	if w.NBias < 1 || w.NK < 1 || w.NE < 1 {
		return fmt.Errorf("machine: task counts must be positive")
	}
	if w.NLayers < 2 || w.BlockSize < 1 || w.RHSWidth < 1 {
		return fmt.Errorf("machine: device dimensions invalid")
	}
	if w.RHSWidth > 2*w.rank() { // each contact injects at most its Γ support
		return fmt.Errorf("machine: %d injection columns exceed twice the coupling rank %d", w.RHSWidth, w.rank())
	}
	if w.SelfEnergyIterations < 1 {
		return fmt.Errorf("machine: self-energy iteration count must be positive")
	}
	return nil
}

// Tasks returns the number of independent (bias, k, E) points.
func (w Workload) Tasks() int { return w.NBias * w.NK * w.NE }

// rank is the coupling rank the model charges; 0 is dense, the paper's case.
func (w Workload) rank() int {
	if w.CouplingRank > 0 {
		return min(w.CouplingRank, w.BlockSize)
	}
	return w.BlockSize
}

// layers is the device as the kernels' cost functions read it: every layer
// of BlockSize orbitals keeps sups of them in the reduced open system — the
// supports of its two couplings, rank each and disjoint — and eliminates
// the rest; every coupling is rank × rank.
func (w Workload) layers() (sizes, sups, ranks []int) {
	s := min(w.BlockSize, 2*w.rank())
	for range w.NLayers {
		sizes, sups, ranks = append(sizes, w.BlockSize), append(sups, s), append(ranks, w.rank())
	}
	return sizes, sups, ranks[1:]
}

// reductionFlops returns the flops of one energy's reduced open system:
// every layer a record of its own (a gated device), both contacts on a
// rank-wide support.
func (w Workload) reductionFlops() int64 {
	sizes, sups, _ := w.layers()
	return sparse.ReducedFlops(sizes, sups, nil, w.rank(), w.rank(), w.RHSWidth, false)
}

// SelfEnergyFlops returns the flops of the contact self-energies of one
// solve: one paired decimation, r = c = rank.
func (w Workload) SelfEnergyFlops() int64 {
	r := w.rank()
	return negf.SelfEnergyFlops(w.BlockSize, min(w.BlockSize, 2*r), r, r, w.SelfEnergyIterations)
}

// WFSolveFlops returns the flops of one wave-function transmission solve at
// a single energy with P = 1: the reduced open system and SolveLast on it,
// each layer's solve stopped at the first row of R_i, which a layer keeps
// last — its orbitals run from the face C_{i−1} lands on to the one R_i
// leaves from.
func (w Workload) WFSolveFlops() int64 {
	_, sups, ranks := w.layers()
	floors := make([]int, len(ranks))
	for i, r := range ranks {
		floors[i] = sups[i] - r
	}
	return w.reductionFlops() + sparse.BlockThomasFlops(sups, ranks, ranks, floors, w.RHSWidth)
}

// SplitSolveCost describes the parallel cost structure of one SplitSolve
// execution over P spatial domains.
type SplitSolveCost struct {
	// CriticalFlops is the work on the critical path outside the interface
	// system: the reduced open system, built serially ahead of the domains,
	// and the costliest domain.
	CriticalFlops int64
	// ReducedFlops is the serial Schur-complement interface solve.
	ReducedFlops int64
	// Flops is every domain's work and the reduced system's.
	Flops int64
	// Messages and BytesPerMessage describe the interface exchange.
	Messages        int
	BytesPerMessage int64
}

// SplitSolve returns the cost model of one energy-point solve decomposed
// over p spatial domains of the reduced open system: its reduction and the
// costliest domain on the critical path, splitsolve's own flops, and each
// interface exchanging its coupling block.
func (w Workload) SplitSolve(p int) (SplitSolveCost, error) {
	if p < 1 || p > w.NLayers {
		return SplitSolveCost{}, fmt.Errorf("machine: %d domains invalid for %d layers", p, w.NLayers)
	}
	_, sups, ranks := w.layers()
	domains, reduced := splitsolve.Flops(sups, ranks, ranks, w.RHSWidth, p)
	reduction := w.reductionFlops()
	cost := SplitSolveCost{ReducedFlops: reduced, Flops: reduction + reduced}
	var costliest int64
	for _, f := range domains {
		costliest, cost.Flops = max(costliest, f), cost.Flops+f
	}
	cost.CriticalFlops = reduction + costliest
	if p > 1 { // interface blocks (complex128) gathered to the reduced solve and scattered back
		cost.Messages, cost.BytesPerMessage = 2*(p-1), 16*int64(sups[0])*int64(w.rank())
	}
	return cost, nil
}

// TaskFlops returns the useful flops of one (bias, k, E) point: both
// contact self-energies and the serial (P = 1) wave-function solve.
func (w Workload) TaskFlops() int64 { return w.SelfEnergyFlops() + w.WFSolveFlops() }

// UsefulFlops returns the algorithmically necessary flops of the whole
// workload with the serial (P = 1) solver — the numerator of the sustained
// performance metric, held fixed across decompositions so that parallel
// overhead never inflates the reported Flop/s.
func (w Workload) UsefulFlops() int64 { return int64(w.Tasks()) * w.TaskFlops() }
