package machine

import (
	"fmt"

	"repro/internal/perf"
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
	if w.SelfEnergyIterations < 1 {
		return fmt.Errorf("machine: self-energy iteration count must be positive")
	}
	return nil
}

// Tasks returns the number of independent (bias, k, E) points.
func (w Workload) Tasks() int { return w.NBias * w.NK * w.NE }

// SelfEnergyFlops returns the flops of the two contact self-energies of
// one solve: each Sancho-Rubio iteration costs one block LU, one solve
// against two operand groups, and four block products.
func (w Workload) SelfEnergyFlops() int64 {
	n := w.BlockSize
	perIter := perf.LUFlops(n) + perf.SolveFlops(n, n) + 4*perf.GemmFlops(n, n, n)
	return 2 * int64(w.SelfEnergyIterations) * perIter
}

// WFSolveFlops returns the flops of one wave-function (block-Thomas) solve
// at a single energy with P = 1: per layer one block LU, triangular solves
// against the coupling block and the RHS, and two block products.
func (w Workload) WFSolveFlops() int64 {
	n, l, k := w.BlockSize, w.NLayers, w.RHSWidth
	perLayer := perf.LUFlops(n) +
		perf.SolveFlops(n, n+k) +
		perf.GemmFlops(n, n, n) + perf.GemmFlops(n, n, k) +
		perf.GemmFlops(n, n, k) // back substitution product
	return int64(l) * perLayer
}

// SplitSolveCost describes the parallel cost structure of one SplitSolve
// execution over P spatial domains.
type SplitSolveCost struct {
	// CriticalFlops is the per-domain (parallel) work on the critical path.
	CriticalFlops int64
	// ReducedFlops is the serial Schur-complement interface solve.
	ReducedFlops int64
	// Messages and BytesPerMessage describe the interface exchange.
	Messages        int
	BytesPerMessage int64
}

// SplitSolve returns the cost model of one energy-point solve decomposed
// over p spatial domains. The spike columns widen the local solves from
// RHSWidth to RHSWidth + 2·BlockSize; the reduced interface system is
// block-tridiagonal over domains with 2·BlockSize groups (solved serially
// on the critical path, O(p·n³) like the implementation in
// internal/splitsolve); each interface exchanges its boundary blocks.
func (w Workload) SplitSolve(p int) (SplitSolveCost, error) {
	if p < 1 || p > w.NLayers {
		return SplitSolveCost{}, fmt.Errorf("machine: %d domains invalid for %d layers", p, w.NLayers)
	}
	n := int64(w.BlockSize)
	if p == 1 {
		return SplitSolveCost{CriticalFlops: w.WFSolveFlops()}, nil
	}
	layersPerDomain := (w.NLayers + p - 1) / p
	c := w.CouplingRank
	if c <= 0 || c > w.BlockSize {
		c = w.BlockSize
	}
	width := w.RHSWidth + 2*c
	perLayer := perf.LUFlops(w.BlockSize) +
		perf.SolveFlops(w.BlockSize, w.BlockSize+width) +
		perf.GemmFlops(w.BlockSize, w.BlockSize, w.BlockSize) +
		2*perf.GemmFlops(w.BlockSize, w.BlockSize, width)
	group := 2 * w.BlockSize
	perGroup := perf.LUFlops(group) +
		perf.SolveFlops(group, group+w.RHSWidth) +
		2*perf.GemmFlops(group, group, group)
	reduced := int64(p) * perGroup
	return SplitSolveCost{
		CriticalFlops: int64(layersPerDomain) * perLayer,
		ReducedFlops:  reduced,
		// Gather interface blocks to the reduced solve and scatter back.
		Messages:        2 * (p - 1),
		BytesPerMessage: 16 * n * int64(c), // complex128 boundary coupling block
	}, nil
}

// TaskFlops returns the useful flops of one (bias, k, E) point: both
// contact self-energies and the serial (P = 1) wave-function solve.
func (w Workload) TaskFlops() int64 { return w.SelfEnergyFlops() + w.WFSolveFlops() }

// UsefulFlops returns the algorithmically necessary flops of the whole
// workload with the serial (P = 1) solver — the numerator of the sustained
// performance metric, held fixed across decompositions so that parallel
// overhead never inflates the reported Flop/s.
func (w Workload) UsefulFlops() int64 { return int64(w.Tasks()) * w.TaskFlops() }
