// Package perf provides performance accounting shared by the numerical
// kernels: a sharded global floating-point operation counter, per-phase
// wall-time/flop attribution, and formatting helpers used by the benchmark
// harness.
//
// The flop counter is the foundation of the repository's performance model:
// every dense/sparse kernel in internal/linalg and internal/sparse reports
// the exact number of real floating-point operations it executed, and the
// machine model (internal/machine) charges the closed forms those counts
// are tested against to reproduce the paper's sustained-Flop/s figures.
package perf

import (
	"sync/atomic"
	"unsafe"
)

// shardCount is the number of independent counter cells the global flop
// counter is split over. A power of two so the shard pick is a mask. 32
// cells keep the collision probability low for the worker counts the
// transport integrators run (GOMAXPROCS-sized pools) while the whole
// array stays a few cache lines.
const shardCount = 32

// shardShift drops the offset within one 8 KiB span of stack — a fresh
// goroutine's whole stack — from the address AddFlops picks its shard by.
const shardShift = 13

// paddedCounter is one counter cell, padded to its own pair of cache
// lines so concurrent workers hitting different shards never false-share
// (128 bytes covers adjacent-line prefetching on common x86 parts).
type paddedCounter struct {
	n atomic.Int64
	_ [120]byte
}

// flopShards is the sharded global operation counter. Each AddFlops call
// lands on exactly one shard, so the total over shards is exact; sharding
// only removes the single contended cache line that a lone atomic.Int64
// becomes under 8+ concurrent kernel goroutines (see
// BenchmarkFlopCounter*).
var flopShards [shardCount]paddedCounter

// AddFlops adds n real floating-point operations to the global counter.
// Kernels count a complex multiply-add as 8 real flops (4 mul + 4 add),
// a complex add as 2, a complex multiply as 6, and a complex divide as 11
// (following the LINPACK/LAPACK convention). Callers report at kernel
// granularity (one call per GEMM/LU/solve), which next to the r-sized
// products of the support-space solvers is hundreds of calls per energy
// point, so the call must cost one atomic add and nothing else.
//
// The shard is picked from the calling goroutine's stack address: a
// goroutine keeps writing one cache line for as long as its stack stays
// put, and distinct goroutines, whose stacks are distinct spans, land on
// different shards. A moved stack only moves later adds to another shard;
// Flops/ResetFlops sum the fixed array, so no count is ever stranded.
func AddFlops(n int64) {
	var local byte
	flopShards[uintptr(unsafe.Pointer(&local))>>shardShift&(shardCount-1)].n.Add(n)
}

// Flops returns the current value of the global flop counter. The shard
// sum is not a single atomic snapshot: counts added concurrently with the
// read may or may not be included, exactly as with the previous single
// atomic counter read under concurrent writers; no count is ever lost.
func Flops() int64 {
	var sum int64
	for i := range flopShards {
		sum += flopShards[i].n.Load()
	}
	return sum
}

// ResetFlops zeroes the global flop counter and returns the previous
// value. Counts added concurrently with the reset land either in the
// returned value or in the fresh counter, never both and never neither.
func ResetFlops() int64 {
	var sum int64
	for i := range flopShards {
		sum += flopShards[i].n.Swap(0)
	}
	return sum
}

// Complex-arithmetic flop-cost constants used by the kernels.
const (
	// FlopsCMulAdd is the cost of one fused complex multiply-accumulate.
	FlopsCMulAdd = 8
	// FlopsCMul is the cost of one complex multiplication.
	FlopsCMul = 6
	// FlopsCAdd is the cost of one complex addition or subtraction.
	FlopsCAdd = 2
	// FlopsCDiv is the cost of one complex division (Smith's algorithm).
	FlopsCDiv = 11
)

// LUFlops returns the flop count of an n×n complex LU factorization,
// (8/3)n³ to leading order.
func LUFlops(n int) int64 {
	nn := int64(n)
	return 8 * nn * nn * nn / 3
}

// GemmFlops returns the flop count of an (m×k)·(k×n) complex matrix product.
func GemmFlops(m, k, n int) int64 {
	return int64(FlopsCMulAdd) * int64(m) * int64(k) * int64(n)
}

// SolveFlops returns the flop count of triangular solves with an already
// factorized n×n system and nrhs right-hand sides: 8n²·nrhs.
func SolveFlops(n, nrhs int) int64 {
	return 8 * int64(n) * int64(n) * int64(nrhs)
}

// SolveFromRowFlops returns the flop count of the same solves with the back
// sweep stopped at row r0 (linalg's SolveFromRow): the forward sweep's half
// of SolveFlops, 4n²·nrhs, and the back sweep of the trailing n − r0 rows,
// 4(n − r0)²·nrhs. r0 = 0 is SolveFlops.
func SolveFromRowFlops(n, r0, nrhs int) int64 {
	m := int64(n - r0)
	return 4 * (int64(n)*int64(n) + m*m) * int64(nrhs)
}
