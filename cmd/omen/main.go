// Command omen is the device-simulation driver: it builds one of the
// benchmark devices, computes its transmission spectrum (and optionally a
// self-consistent gate sweep), and prints tab-separated results suitable
// for plotting.
//
// Every run is described by one serializable spec.RunSpec. The flags
// below are a thin parser for it: they overlay a base spec (the built-in
// defaults, or a file given with -spec), and -dump-spec prints the fully
// resolved spec plus its content hashes and exits. Distributed child
// workers are launched with the serialized spec itself (-spec-json), so
// no per-flag argv mirroring can drift; the coordinator/worker handshake
// and the checkpoint journal both carry the spec's content hash, so a
// mismatched worker or a -resume against a foreign journal fails loudly.
//
// Transmission sweeps run on the fault-tolerant sweep engine: per-task
// retries with backoff (-max-retries, -task-timeout), checkpoint/restart
// through an append-only journal (-checkpoint, -resume), graceful
// degradation of unsalvageable energy points (-quarantine), and
// deterministic fault injection for failure drills (-fault-rate,
// -fault-seed). An interrupt (SIGINT) cancels the sweep cooperatively,
// prints a partial-progress summary, and exits non-zero; with a journal,
// rerunning with -resume picks up where the interrupt landed.
//
// Examples:
//
//	omen -device agnr7 -mode transmission -emin -3 -emax 3 -ne 200
//	omen -device agnr7 -mode iv -vd 0.2 -vgmin -0.4 -vgmax 0.6 -nvg 11
//	omen -device agnr7 -checkpoint sweep.journal -max-retries 3 -fault-rate 0.1
//	omen -device agnr7 -checkpoint sweep.journal -resume
//	omen -spec run.json
//	omen -spec run.json -ne 500 -dump-spec
//	omen -device sinw-full -mode stats
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/distrib"
	"repro/internal/perf"
	"repro/internal/run"
	"repro/internal/sched"
	"repro/internal/spec"
)

// progress tracks completed/total tasks for the interrupt summary.
type progress struct {
	done, total atomic.Int64
}

func (p *progress) set(done, total int) {
	p.done.Store(int64(done))
	p.total.Store(int64(total))
}

// options are the flags that steer this invocation rather than describe
// the run: they have no RunSpec field.
type options struct {
	specPath, specJSON     string
	dumpSpec, version      bool
	serveAddr, workerAddr  string
	cpuprofile, memprofile string
}

// specFlags is the table of spec-backed flags: each is declared once,
// together with the RunSpec field it sets. The flags are registered on
// the fields of a scratch spec seeded from spec.Default() — which is
// where their defaults come from — and overlay copies the ones set on
// the command line onto the resolved base.
type specFlags struct {
	fs      *flag.FlagSet
	scratch spec.RunSpec
	apply   map[string]func(dst *spec.RunSpec)
}

// bind registers flag name on the spec field that field selects.
func bind[T any](sf *specFlags, name string, field func(*spec.RunSpec) *T, usage string) {
	switch p := any(field(&sf.scratch)).(type) {
	case *string:
		sf.fs.StringVar(p, name, *p, usage)
	case *bool:
		sf.fs.BoolVar(p, name, *p, usage)
	case *int:
		sf.fs.IntVar(p, name, *p, usage)
	case *uint64:
		sf.fs.Uint64Var(p, name, *p, usage)
	case *float64:
		sf.fs.Float64Var(p, name, *p, usage)
	case *spec.Duration:
		sf.fs.DurationVar((*time.Duration)(p), name, p.Std(), usage)
	default:
		panic(fmt.Sprintf("omen: flag -%s: no flag type for %T", name, p))
	}
	sf.apply[name] = func(dst *spec.RunSpec) { *field(dst) = *field(&sf.scratch) }
}

// bindSpecFlags declares every spec-backed flag of omen on fs.
func bindSpecFlags(fs *flag.FlagSet) *specFlags {
	sf := &specFlags{fs: fs, scratch: spec.Default(), apply: make(map[string]func(*spec.RunSpec))}

	bind(sf, "device", func(s *spec.RunSpec) *string { return &s.Device.Name }, "device: "+strings.Join(device.Names(), ", "))
	bind(sf, "mode", func(s *spec.RunSpec) *string { return &s.Mode }, "mode: transmission, iv, stats")
	bind(sf, "formalism", func(s *spec.RunSpec) *string { return &s.Solver.Formalism }, "single-energy solver: wf, negf")
	bind(sf, "domains", func(s *spec.RunSpec) *int { return &s.Solver.Domains }, "SplitSolve spatial domains (wf only)")
	bind(sf, "nk", func(s *spec.RunSpec) *int { return &s.Grid.NK }, "transverse momentum points (y-periodic devices only; rejected elsewhere)")
	bind(sf, "emin", func(s *spec.RunSpec) *float64 { return &s.Grid.EMin }, "spectrum lower bound (eV)")
	bind(sf, "emax", func(s *spec.RunSpec) *float64 { return &s.Grid.EMax }, "spectrum upper bound (eV)")
	bind(sf, "ne", func(s *spec.RunSpec) *int { return &s.Grid.NE }, "energy points")
	bind(sf, "vd", func(s *spec.RunSpec) *float64 { return &s.Grid.VDrain }, "drain bias (V) for iv mode")
	bind(sf, "vgmin", func(s *spec.RunSpec) *float64 { return &s.Grid.VGMin }, "gate sweep start (V)")
	bind(sf, "vgmax", func(s *spec.RunSpec) *float64 { return &s.Grid.VGMax }, "gate sweep end (V)")
	bind(sf, "nvg", func(s *spec.RunSpec) *int { return &s.Grid.NVG }, "gate sweep points")
	bind(sf, "cellsx", func(s *spec.RunSpec) *int { return &s.Device.CellsX }, "override transport cells")
	bind(sf, "workers", func(s *spec.RunSpec) *int { return &s.Exec.Workers }, "total worker budget across all parallel levels (0: GOMAXPROCS); with -serve: worker processes to self-spawn (0: wait for external -worker processes)")

	bind(sf, "lease-timeout", func(s *spec.RunSpec) *spec.Duration { return &s.Exec.LeaseTimeout }, "coordinator: how long a worker may hold a task lease before it is re-dispatched")
	bind(sf, "rejoin-window", func(s *spec.RunSpec) *spec.Duration { return &s.Exec.RejoinWindow }, "worker: keep re-dialing for this long after losing the coordinator mid-sweep before giving up (0: a coordinator crash ends the worker)")
	bind(sf, "drain-timeout", func(s *spec.RunSpec) *spec.Duration { return &s.Exec.DrainTimeout }, "coordinator: on SIGTERM, stop granting leases and accept in-flight results for up to this long before exiting with a resumable journal")
	bind(sf, "shards", func(s *spec.RunSpec) *int { return &s.Exec.Shards }, "coordinator: partition the task grid across this many scheduling shards; idle shards steal capacity-sized batches from loaded ones (0 or 1: single queue)")
	bind(sf, "wire", func(s *spec.RunSpec) *string { return &s.Exec.WireFormat }, "coordinator/worker wire format for hot messages: binary (compact, default) or json (same messages, JSON payloads); pure transport knob, results are bitwise identical")

	bind(sf, "checkpoint", func(s *spec.RunSpec) *string { return &s.Resilience.Checkpoint }, "sweep journal file for checkpoint/restart (transmission mode)")
	bind(sf, "resume", func(s *spec.RunSpec) *bool { return &s.Resilience.Resume }, "resume from an existing -checkpoint journal, rerunning only unfinished tasks")
	bind(sf, "max-retries", func(s *spec.RunSpec) *int { return &s.Resilience.MaxRetries }, "retries per task after the first attempt (exponential backoff)")
	bind(sf, "task-timeout", func(s *spec.RunSpec) *spec.Duration { return &s.Resilience.TaskTimeout }, "per-attempt deadline for one task (0: none)")
	bind(sf, "quarantine", func(s *spec.RunSpec) *bool { return &s.Resilience.Quarantine }, "after retries are exhausted, drop the failed point and renormalize instead of failing the sweep")
	bind(sf, "fault-rate", func(s *spec.RunSpec) *float64 { return &s.Resilience.FaultRate }, "fault-injection drill: fraction of tasks that fail (mixed errors and panics) on their first attempt")
	bind(sf, "fault-seed", func(s *spec.RunSpec) *uint64 { return &s.Resilience.FaultSeed }, "seed for deterministic fault injection and retry jitter")
	return sf
}

// resolveSpec parses args on fs and resolves the run spec: the base
// (the built-in defaults, or the -spec file, or -spec-json), then every
// spec-backed flag explicitly set on the command line laid over it.
func resolveSpec(fs *flag.FlagSet, args []string) (spec.RunSpec, options, error) {
	var o options
	fs.StringVar(&o.specPath, "spec", "", "load the run spec from this JSON file; flags set on the command line override its fields")
	fs.StringVar(&o.specJSON, "spec-json", "", "inline JSON run spec (how a coordinator launches self-spawned workers); mutually exclusive with -spec")
	fs.BoolVar(&o.dumpSpec, "dump-spec", false, "print the fully resolved run spec (canonical JSON plus content hashes) and exit")
	fs.BoolVar(&o.version, "version", false, "print the build version (module version plus VCS revision) and exit")
	fs.StringVar(&o.serveAddr, "serve", "", "run as distributed-sweep coordinator listening on this TCP address (transmission mode); workers connect with -worker")
	fs.StringVar(&o.workerAddr, "worker", "", "run as distributed-sweep worker dialing the coordinator at this TCP address (transmission mode)")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile (pprof format) to this file")
	fs.StringVar(&o.memprofile, "memprofile", "", "write a heap profile (pprof format) to this file on exit")
	sf := bindSpecFlags(fs)
	if err := fs.Parse(args); err != nil {
		return spec.RunSpec{}, o, err
	}

	s := spec.Default()
	var err error
	switch {
	case o.specPath != "" && o.specJSON != "":
		err = errors.New("-spec and -spec-json are mutually exclusive")
	case o.specPath != "":
		s, err = spec.LoadFile(o.specPath)
	case o.specJSON != "":
		s, err = spec.Parse([]byte(o.specJSON))
	}
	if err != nil {
		return s, o, err
	}
	fs.Visit(func(f *flag.Flag) {
		if set, ok := sf.apply[f.Name]; ok {
			set(&s)
		}
	})
	return s, o, nil
}

func main() {
	s, o, err := resolveSpec(flag.CommandLine, os.Args[1:])
	if o.version {
		fmt.Printf("omen %s\n", buildinfo.Version())
		return
	}
	if err != nil {
		usageErr(err)
	}
	if o.dumpSpec {
		if err := s.Validate(); err != nil {
			usageErr(err)
		}
		printSpec(s)
		return
	}

	if o.serveAddr != "" && o.workerAddr != "" {
		usageErr(errors.New("-serve and -worker are mutually exclusive"))
	}
	role := spec.RoleLocal
	switch {
	case o.serveAddr != "":
		role = spec.RoleCoordinator
	case o.workerAddr != "":
		role = spec.RoleWorker
	}
	if err := s.ValidateFor(role); err != nil {
		usageErr(err)
	}

	if err := startProfiles(o.cpuprofile, o.memprofile); err != nil {
		fmt.Fprintln(os.Stderr, "omen:", err)
		os.Exit(1)
	}
	defer stopProfiles()

	// Interrupts cancel the in-flight solves cooperatively through ctx; the
	// summary printed on exit reports how far the sweep got.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	var prog progress

	if o.workerAddr != "" {
		// One worker of a distributed run: the harness builds the spec,
		// dials, and pulls leases until the coordinator dismisses it.
		fmt.Fprintf(os.Stderr, "omen: %s — worker dialing %s\n", s.Summary(), o.workerAddr)
		if err := run.Work(ctx, s, o.workerAddr); err != nil {
			fatal(ctx, &prog, err)
		}
		return
	}

	b, err := spec.Build(s)
	if err != nil {
		fatal(ctx, &prog, err)
	}

	switch s.Mode {
	case spec.ModeStats:
		st := b.Sim.Stats()
		fmt.Printf("device\t%s (%s)\n", st.Name, st.Kind)
		fmt.Printf("atoms\t%d\nlayers\t%d\norbitals/atom\t%d\n", st.Atoms, st.Layers, st.OrbitalsAtom)
		fmt.Printf("matrix order\t%d\nlayer block\t%d\nlength\t%.2f nm\n",
			st.MatrixOrder, st.BlockSize, st.TransportLen)
	case spec.ModeTransmission:
		if o.serveAddr != "" {
			coordinate(ctx, b, o.serveAddr, &prog)
			return
		}
		opts, closeJournal, err := sweepOptions(b, &prog)
		if err != nil {
			fatal(ctx, &prog, err)
		}
		defer closeJournal()
		fmt.Fprintf(os.Stderr, "omen: %s\n", s.Summary())
		before := perf.TakeSnapshot()
		sweep, err := b.Sim.TransmissionResumable(ctx, b.Grid, nil, opts)
		if err != nil {
			fatal(ctx, &prog, err)
		}
		// What this process spent, plus what the journal says the restored
		// tasks cost the runs before it.
		d := perf.TakeSnapshot().Diff(before)
		d.Add(sweep.Report.Perf)
		core.WriteSweep(os.Stdout, sweep, d)
	case spec.ModeIV:
		fmt.Fprintf(os.Stderr, "omen: %s\n", s.Summary())
		fet, err := core.NewFET(b.Sim)
		if err != nil {
			fatal(ctx, &prog, err)
		}
		// One cache spans the whole sweep: the FET's pinned contacts keep
		// their blocks, so every gate point addresses the same entries.
		fet.Cache = b.Cache
		vgs := b.GateGrid
		// Count finished bias points so an interrupt can report progress.
		prog.set(0, len(vgs))
		b.Pool.Hook = func(ev sched.TaskEvent) {
			if ev.Phase == "bias" && ev.Err == nil {
				prog.done.Add(1)
			}
		}
		before := perf.TakeSnapshot()
		points, err := fet.GateSweep(ctx, vgs, s.Grid.VDrain)
		if err != nil {
			fatal(ctx, &prog, err)
		}
		d := perf.TakeSnapshot().Diff(before)
		core.WriteCounters(os.Stdout, d)
		fmt.Println("# Vg(V)\tId(A)\titers\tconverged")
		for _, p := range points {
			fmt.Printf("%.4f\t%.6e\t%d\t%v\n", p.VGate, p.Current, p.Iterations, p.Converged)
		}
	default:
		usageErr(fmt.Errorf("unknown mode %q", s.Mode))
	}
}

// coordinate runs the transmission sweep as the coordinator of a
// distributed run through the shared harness (internal/run), which owns
// the journal, the run identity and the worker fleet; a failed run exits
// with the journal resumable, and -resume is its recovery. What is omen's
// own: SIGTERM as the graceful-drain signal
// (SIGINT stays the hard cooperative cancel), workers re-exec'ed from
// this binary, stderr as the log, and exit status 143 for a drained —
// deliberately resumable — run.
func coordinate(ctx context.Context, b *spec.Built, addr string, prog *progress) {
	drain := make(chan struct{})
	sigC := make(chan os.Signal, 1)
	signal.Notify(sigC, syscall.SIGTERM)
	defer signal.Stop(sigC)
	go func() {
		<-sigC
		fmt.Fprintf(os.Stderr, "omen: SIGTERM — draining (accepting in-flight results for up to %v)\n",
			b.Spec.Exec.DrainTimeout.Std())
		close(drain)
	}()

	out, err := run.Coordinate(ctx, b, run.Hooks{
		Addr:       addr,
		Spawn:      run.ReExec,
		Drain:      drain,
		OnProgress: prog.set,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "omen: "+format+"\n", args...)
		},
	})
	if errors.Is(err, distrib.ErrDrained) {
		// Every committed result is journaled (the harness has closed the
		// journal), and 143 (128+SIGTERM) tells the supervisor upstream
		// this was the graceful path, not a crash. os.Exit skips the
		// deferred profile flush, so do it here.
		stopProfiles()
		fmt.Fprintf(os.Stderr, "omen: drained — completed %d/%d tasks; rerun with -resume to finish\n",
			prog.done.Load(), prog.total.Load())
		os.Exit(143)
	}
	if err != nil {
		fatal(ctx, prog, err)
	}
	core.WriteSweep(os.Stdout, out.Sweep, out.Perf, out.ClusterLines()...)
}

// printSpec emits the resolved canonical spec and its content hashes —
// the -dump-spec output the golden check in `make check` pins.
func printSpec(s spec.RunSpec) {
	b, err := s.CanonicalIndent()
	if err != nil {
		usageErr(err)
	}
	fmt.Printf("%s\n", b)
	fmt.Printf("# device-hash\t%s\n", s.DeviceHash())
	fmt.Printf("# grid-hash\t%s\n", s.GridHash())
	fmt.Printf("# solver-hash\t%s\n", s.SolverHash())
	fmt.Printf("# spec-hash\t%s\n", s.SpecHash())
}

// sweepOptions assembles the serial sweep's fault-tolerance configuration
// from the built spec, opening its checkpoint journal through
// spec.OpenJournal (fresh journals get a spec-hash header; resumed ones
// are verified against it). The returned cleanup closes the journal (a
// no-op without one).
func sweepOptions(b *spec.Built, prog *progress) (cluster.SweepOptions, func(), error) {
	opts := b.SweepOptions()
	opts.OnProgress = prog.set
	j, err := spec.OpenJournal(b.Spec, func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "omen: warning: "+format+"\n", args...)
	})
	if err != nil {
		return opts, nil, err
	}
	if j == nil {
		return opts, func() {}, nil
	}
	opts.Journal = j
	return opts, func() { j.Close() }, nil
}

// stopProfiles flushes any active CPU/heap profiles. It is safe to call
// more than once; fatal invokes it because os.Exit skips the deferred
// call in main, and losing the profile on a failed run would defeat the
// point of profiling a failure.
var stopProfiles = func() {}

// startProfiles begins CPU profiling (when cpu is non-empty) and arranges
// for a heap profile to be written at exit (when mem is non-empty),
// installing the shared stopProfiles flush.
func startProfiles(cpu, mem string) error {
	var cpuFile *os.File
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		cpuFile = f
	}
	if cpuFile == nil && mem == "" {
		return nil
	}
	var once sync.Once
	stopProfiles = func() {
		once.Do(func() {
			if cpuFile != nil {
				pprof.StopCPUProfile()
				cpuFile.Close()
			}
			if mem != "" {
				f, err := os.Create(mem)
				if err != nil {
					fmt.Fprintln(os.Stderr, "omen: memprofile:", err)
					return
				}
				runtime.GC() // flush recently freed objects for an accurate live-heap picture
				if err := pprof.WriteHeapProfile(f); err != nil {
					fmt.Fprintln(os.Stderr, "omen: memprofile:", err)
				}
				f.Close()
			}
		})
	}
	return nil
}

// usageErr reports a configuration error and exits with the
// conventional usage status.
func usageErr(err error) {
	fmt.Fprintln(os.Stderr, "omen:", err)
	os.Exit(2)
}

// fatal reports err and exits non-zero. An interrupt gets the
// conventional 128+SIGINT code and a partial-progress summary so
// operators can see how much of the sweep a -resume run will skip.
func fatal(ctx context.Context, prog *progress, err error) {
	stopProfiles()
	if ctx.Err() != nil {
		fmt.Fprintf(os.Stderr, "omen: interrupted — completed %d/%d tasks\n",
			prog.done.Load(), prog.total.Load())
		os.Exit(130)
	}
	fmt.Fprintln(os.Stderr, "omen:", err)
	os.Exit(1)
}
