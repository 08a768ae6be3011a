// Package machine is the analytic performance model of a large
// distributed-memory machine — the substitution for the Cray XT5
// "Jaguar" of the paper (see DESIGN.md §2/§3).
//
// Correctness-level parallelism (worker pools over bias, momentum, and
// energy points; goroutine-parallel SplitSolve domains) lives in the
// physics packages and runs on real cores, and the code that executes,
// journals and ships a sweep lives in internal/cluster and
// internal/distrib. This package is only the *projection*: a machine model
// charging each kernel's own cost function (sparse.BlockThomasFlops,
// negf.SelfEnergyFlops, splitsolve.Flops), a multi-level decomposition
// scheduler (bias × momentum × energy × spatial domains, the paper's four levels), and
// predicted wall times, sustained Flop/s, and parallel efficiencies for
// core counts up to the full 221,400-core machine. The scaling *shapes* —
// where each level saturates, where the SplitSolve reduced system bites,
// where communication flattens the curve — emerge from the same
// algorithmic quantities that governed the real machine. It journals
// nothing and opens no socket.
package machine

import "fmt"

// MachineModel is an analytic description of a distributed-memory machine.
type MachineModel struct {
	Name string
	// TotalCores is the largest usable core count.
	TotalCores int
	// CoresPerNode groups cores into shared-memory nodes.
	CoresPerNode int
	// PeakFlopsPerCore is the per-core double-precision peak (flop/s).
	PeakFlopsPerCore float64
	// KernelEfficiency is the fraction of peak the dense complex kernels
	// sustain (ZGEMM/LU-dominated inner loops).
	KernelEfficiency float64
	// Latency is the point-to-point message latency in seconds.
	Latency float64
	// Bandwidth is the per-link bandwidth in bytes/s.
	Bandwidth float64
}

// Jaguar returns a model of the Cray XT5 at ORNL as of 2011: 18,688
// dual-socket hex-core Opteron nodes (224,256 cores, 2.6 GHz, 4 flops per
// cycle per core), SeaStar2+ interconnect. The kernel efficiency is the
// fraction of peak the ZGEMM/ZGETRF-dominated inner loops sustain on that
// core (~72%), so that dense-solver-dominated full-machine runs land in
// the 1-1.5 PFlop/s band the paper reports.
func Jaguar() MachineModel {
	return MachineModel{
		Name:             "Cray XT5 (Jaguar)",
		TotalCores:       224256,
		CoresPerNode:     12,
		PeakFlopsPerCore: 2.6e9 * 4,
		KernelEfficiency: 0.72,
		Latency:          6e-6,
		Bandwidth:        2.0e9,
	}
}

// Validate reports configuration errors.
func (m MachineModel) Validate() error {
	if m.TotalCores < 1 || m.CoresPerNode < 1 {
		return fmt.Errorf("machine: machine needs positive core counts")
	}
	if m.PeakFlopsPerCore <= 0 || m.KernelEfficiency <= 0 || m.KernelEfficiency > 1 {
		return fmt.Errorf("machine: invalid flop rates")
	}
	if m.Latency < 0 || m.Bandwidth <= 0 {
		return fmt.Errorf("machine: invalid network parameters")
	}
	return nil
}

// SustainedFlopsPerCore returns the modeled per-core sustained rate.
func (m MachineModel) SustainedFlopsPerCore() float64 {
	return m.PeakFlopsPerCore * m.KernelEfficiency
}
