//go:build layertrace

package main

// layers.go is the only file of the benchmark that imports
// repro/internal. The traced run composes the same pipelines cmd/omen,
// cmd/omend and internal/server compose, out of the layers' public
// functions, and every symbol it needs is named here once — so a
// refactor of those layers sees, in one place, exactly which signatures
// the ledger pins. The end-to-end run uses none of it. README.md lists
// these symbols.

import (
	"repro/internal/cluster"
	"repro/internal/comms"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/linalg"
	"repro/internal/negf"
	"repro/internal/perf"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/sparse"
	"repro/internal/spec"
	"repro/internal/wavefunction"
)

// Types.
type (
	runSpec   = spec.RunSpec
	builtSpec = spec.Built

	task         = cluster.Task
	taskRecord   = cluster.TaskRecord
	checkpointer = cluster.Checkpointer
	sweepFunc    = cluster.SweepFunc
	sweepReport  = cluster.SweepReport
	fileJournal  = cluster.FileJournal

	transmissionPlan  = core.TransmissionPlan
	transmissionSweep = core.TransmissionSweep
	ivPoint           = core.IVPoint

	serveOptions  = distrib.Options
	workerOptions = distrib.WorkerOptions
	serveReport   = distrib.Report

	perfSnapshot = perf.Snapshot
	taskEvent    = sched.TaskEvent

	serverConfig  = server.Config
	serverManager = server.Manager
	serverAPI     = server.API

	blockTridiag = sparse.BlockTridiag
	binWriter    = comms.BinWriter
	msgType      = comms.MsgType
)

// Constants.
const (
	roleLocal       = spec.RoleLocal
	roleCoordinator = spec.RoleCoordinator
	leaseBatch      = distrib.DefaultLeaseBatch
	noTrans         = linalg.NoTrans
)

// Functions. Methods the traced run calls on the types above —
// RunSpec.{ValidateFor,SpecHash,WorkerVariant},
// Built.{SweepOptions,RetryPolicy,Injector} and its Sim/Pool/Cache/Grid/
// GateGrid fields, Simulator.{PlanTransmission,Hamiltonian},
// TransmissionPlan.{Dims,Pool,Run,Restore,Assemble},
// FET.GateSweep and its Lambda/SourceDoping/GateStart/GateEnd/Cache
// fields, FileJournal.{ReadHeader,LatestEpoch,Load,Append,Close},
// Tail.Poll, Snapshot.Diff, Pool.Hook, Manager.{Close,JournalPath},
// API.Handler, SelfEnergyCache.SelfEnergies, Solver.Solve,
// Codec.{SendBin,Recv}, BlockTridiag.LayerSize — are pinned
// with them.
var (
	specParse       = spec.Parse
	specBuild       = spec.Build
	specOpenJournal = spec.OpenJournal

	runTasksResumable = cluster.RunTasksResumable
	openFileJournal   = cluster.OpenFileJournal
	withFsync         = cluster.WithFsync
	newTail           = cluster.NewTail

	newFET        = core.NewFET
	writeSweep    = core.WriteSweep
	writeCounters = core.WriteCounters
	distribServe  = distrib.Serve
	distribWorker = distrib.RunWorker
	tcpListen     = comms.TCP{}.Listen
	dialRetry     = comms.DialRetry
	dialableAddr  = comms.DialableAddr
	newCodec      = comms.NewCodec
	takeSnapshot  = perf.TakeSnapshot
	newManager    = server.NewManager
	inProcSpawner = server.InProcessSpawner
	leadsFromDev  = negf.LeadsFromDevice
	newSigmaCache = negf.NewSelfEnergyCache
	newRGFSolver  = negf.NewSolver
	newWFSolver   = wavefunction.NewSolver
	newMatrix     = linalg.New
	gemmInto      = linalg.GemmInto
	tcpTransport  = comms.TCP{}
)
