// Package repro is a from-scratch Go reproduction of the SC11 paper
// "Atomistic nanoelectronic device engineering with sustained performances
// up to 1.44 PFlop/s" (Luisier, Boykin, Klimeck, Fichtner): an atomistic
// quantum-transport device simulator in the OMEN tradition — nearest-
// neighbor tight-binding Hamiltonians up to sp3d5s* with spin-orbit
// coupling, wave-function and NEGF ballistic transport solvers, the
// SplitSolve spatial domain-decomposition linear solver, self-consistent
// Poisson coupling, and a four-level parallel execution model calibrated
// to reproduce the paper's petascale performance figures.
//
// The public API lives in internal/core (Simulator, FET); the benchmark
// harness in bench_test.go regenerates the tables and figures of the
// reconstructed evaluation, cmd/scaling the machine-model studies (see
// DESIGN.md and EXPERIMENTS.md).
package repro
