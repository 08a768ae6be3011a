//go:build layertrace

package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// The traced run of one workload: a few real processes for start-up
// time and peak RSS, the machine probes, then alternating untraced and
// traced in-process units (the same composition, with and without
// decorators), then the direct layer probes. End-to-end numbers are
// never taken here.

const tracedPairs = 2 // untraced/traced unit pairs per traced run

func init() { runTraced = (*env).runTraced }

// layerRun is the state of one traced run.
type layerRun struct {
	e    *env
	rep  *runReport
	gen  *generator
	tr   *tracer
	unit int
	ctx  context.Context

	// The unit probeProcesses ran through the real binary, and what it
	// printed: the first traced unit reruns this spec in-process and must
	// reproduce these observables, or the recomposition has drifted from
	// the product and the trace describes some other pipeline.
	realUnit unitSpec
	realOut  []byte
}

// zeroAll pre-sets every per-layer metric to 0: a layer the workload
// never executes reports exactly that.
func zeroAll(rep *runReport) {
	for _, d := range perLayer {
		rep.set(d.Name, 0, d.Unit)
	}
}

func (e *env) runTraced(wl string, seed uint64, seconds float64, traceDir string) *runReport {
	rep := newReport(wl, seed, seconds, true)
	zeroAll(rep)
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	lr := &layerRun{e: e, rep: rep, gen: newGenerator(wl, seed), tr: &tracer{}, ctx: ctx}
	rep.set("setup.go_build_s", e.buildSeconds, "s")

	// Real processes first: a child's peak RSS, as wait4 reports it, is
	// never below its parent's at fork time, so they must run while this
	// process is still small.
	rep.Attempted++
	if err := lr.probeProcesses(); err != nil {
		rep.fail("process probes: %v", err)
	}
	probeMachine(rep)
	var err error
	if wl == wlService {
		err = lr.tracedService()
	} else {
		err = lr.tracedCLI()
	}
	rep.Attempted++
	if err != nil {
		rep.fail("traced run: %v", err)
	}

	spans := lr.tr.snapshot()
	packLanes(spans)
	rep.set("trace.spans", float64(len(spans)), "count")
	path := filepath.Join(traceDir, "trace."+wl+".json")
	if err := writeChromeTrace(path, spans); err != nil {
		rep.fail("write trace: %v", err)
	} else {
		rep.note("Chrome trace: %s (%d spans)", path, len(spans))
	}
	return rep
}

// packLanes gives spans recorded without a lane (pool-hook tasks, whose
// goroutine is unknown) a display lane: the first one free at their
// start.
func packLanes(spans []span) {
	var idx []int
	for i, s := range spans {
		if s.Lane < 0 {
			idx = append(idx, i)
		}
	}
	sort.Slice(idx, func(a, b int) bool { return spans[idx[a]].Start.Before(spans[idx[b]].Start) })
	var free []time.Time // per lane: when it frees up
	for _, i := range idx {
		lane := -1
		for l, t := range free {
			if !t.After(spans[i].Start) {
				lane = l
				break
			}
		}
		if lane < 0 {
			free = append(free, time.Time{})
			lane = len(free) - 1
		}
		free[lane] = spans[i].End
		spans[i].Lane = lane + 1
	}
}

// runUnit runs one in-process unit of a CLI workload, traced or not.
func (lr *layerRun) runUnit(u unitSpec, tr *tracer) (*unitMeasure, error) {
	s, err := specParse(u.specJSON())
	if err != nil {
		return nil, err
	}
	lr.unit++
	switch lr.rep.Workload {
	case wlWire:
		if err := s.ValidateFor(roleLocal); err != nil {
			return nil, err
		}
		return serialSweep(lr.ctx, s, tr, lr.unit)
	case wlFET:
		if err := s.ValidateFor(roleLocal); err != nil {
			return nil, err
		}
		return ivSweep(lr.ctx, s, tr, lr.unit)
	default:
		if err := s.ValidateFor(roleCoordinator); err != nil {
			return nil, err
		}
		return fabricSweep(lr.ctx, s, filepath.Join(lr.e.runDir, fmt.Sprintf("traced-%d.journal", lr.unit)), tr, lr.unit)
	}
}

// tracedCLI is the traced run of the three CLI workloads.
func (lr *layerRun) tracedCLI() error {
	rep := lr.rep
	var untraced, traced []*unitMeasure
	var lastUnit unitSpec
	for i := 0; i < tracedPairs; i++ {
		u := lr.realUnit
		if i > 0 {
			u = lr.gen.next(streamTimed)
		}
		lastUnit = u
		a, err := lr.runUnit(u, nil)
		if err != nil {
			return fmt.Errorf("untraced unit: %w", err)
		}
		b, err := lr.runUnit(u, lr.tr)
		if err != nil {
			return fmt.Errorf("traced unit: %w", err)
		}
		// The two compositions must agree with each other byte for byte,
		// and the first pair with the real binary's run of the same spec.
		rep.Attempted++
		if err := diffObservables(b.out, a.out); err != nil {
			rep.fail("traced unit vs untraced unit: %v", err)
		}
		if i == 0 {
			rep.Attempted++
			if err := diffObservables(b.out, lr.realOut); err != nil {
				rep.fail("traced unit vs the omen binary on the same spec: %v", err)
			}
		}
		untraced, traced = append(untraced, a), append(traced, b)
	}
	// Tracing overhead from the fastest of each kind: the minimum is the
	// run least disturbed by anything else on the box.
	minWall := func(ms []*unitMeasure) float64 {
		w := ms[0].wall.Seconds()
		for _, m := range ms[1:] {
			w = min(w, m.wall.Seconds())
		}
		return w
	}
	rep.set("trace.overhead_frac", minWall(traced)/minWall(untraced)-1, "ratio")

	m := traced[len(traced)-1] // the unit the per-layer numbers describe
	plain := untraced[len(untraced)-1]
	lr.unitMetrics(m, plain)

	// Direct probes on the workload's own device and energies: those of
	// the unit just solved.
	u := lastUnit
	s, err := specParse(u.specJSON())
	if err != nil {
		return err
	}
	if err := probeSpec(rep, u.specJSON(), s); err != nil {
		return fmt.Errorf("spec probe: %w", err)
	}
	blockN, err := probeKernels(rep, s)
	if err != nil {
		return fmt.Errorf("kernel probe: %w", err)
	}
	lr.roofline(blockN)
	if rep.Workload == wlRibbon {
		if err := lr.fabricProbes(m); err != nil {
			return err
		}
	}
	return nil
}

// roofline places the workload's dominant kernel — dense complex
// products of its layer blocks — against the machine balance the probes
// measured. Bytes are computed from block sizes, not measured: a product
// of n×n complex blocks does 8n³ flops and must move at least three
// blocks of 16n² bytes.
func (lr *layerRun) roofline(blockN int) {
	rep := lr.rep
	if blockN <= 0 {
		return
	}
	bpf := 6 / float64(blockN)
	rep.set("linalg.bytes_per_flop_computed", bpf, "B/flop")
	balance := rep.Metrics["linalg.machine_balance_bytes_per_flop"].Value
	side := "compute-bound side (needs fewer bytes per flop than the machine can feed)"
	if bpf > balance {
		side = "memory-bound side (needs more bytes per flop than the machine can feed)"
	}
	rep.note("roofline, computed not measured: %d×%d blocks need %.3f B/flop against a machine balance of %.2f B/flop — %s",
		blockN, blockN, bpf, balance, side)
}

// engineMetrics sets what the engine's own counters and the wrapped task
// function say about a stretch of work: σ-cache behaviour, counted
// flops per point and per busy second, and the task-time distribution.
// busy is per-task busy time in ms; the busy seconds are returned.
func engineMetrics(rep *runReport, d perfSnapshot, points int, busy []float64) (busyS float64) {
	pts := float64(points)
	c := d.Counters
	if tot := c["sigma-hits"] + c["sigma-misses"] + c["sigma-coalesced"]; tot > 0 {
		rep.set("negf.sigma_hit_ratio", float64(c["sigma-hits"]+c["sigma-coalesced"])/float64(tot), "ratio")
	}
	rep.set("negf.decimations_per_point", float64(c["sigma-decimations"])/pts, "count")
	rep.set("linalg.flops_per_point", float64(d.Flops)/pts, "count")
	busyS = sum(busy) / 1e3
	if busyS > 0 {
		g := float64(d.Flops) / busyS / 1e9
		rep.set("linalg.sustained_gflops", g, "GFlop/s")
		if z := rep.Metrics["linalg.zgemm_probe_gflops"].Value; z > 0 {
			rep.set("linalg.frac_of_zgemm_probe", g/z, "ratio")
		}
	}
	rep.set("transport.task_busy_p50_ms", percentile(busy, 50), "ms")
	rep.set("transport.task_busy_p99_ms", percentile(busy, 99), "ms")
	rep.describe("transport.task_busy_p50_ms", busy, "")
	return busyS
}

// unitMetrics turns one traced unit (and its untraced twin, for the
// allocation counts) into the per-layer metrics every pipeline shares.
func (lr *layerRun) unitMetrics(m, plain *unitMeasure) {
	rep := lr.rep
	pts := float64(m.points)
	busyS := engineMetrics(rep, m.perf, m.points, m.busy)
	rep.set("linalg.allocs_per_point", float64(plain.mallocs)/pts, "count")
	rep.set("linalg.alloc_bytes_per_point", float64(plain.allocB)/pts, "B")
	rep.set("core.plan_ms", ms(m.stage["core.PlanTransmission"]+m.stage["core.NewFET"]), "ms")
	rep.set("core.assemble_ms", ms(m.stage["core.Assemble"]), "ms")
	rep.set("core.write_sweep_ms", ms(m.stage["core.WriteSweep"]), "ms")
	if len(m.iters) > 0 {
		rep.set("core.scf_iters_per_bias", sum(m.iters)/float64(len(m.iters)), "count")
		rep.set("core.bias_point_s", median(m.biasWalls), "s")
	}
	if p, ok := m.perf.Phases["poisson"]; ok {
		rep.set("poisson.phase_wall_frac", p.Wall.Seconds()/m.wall.Seconds(), "ratio")
	}

	// Where the unit's wall went, in lane-seconds: the unit ran on
	// m.lanes lanes for m.wall each.
	laneS := float64(m.lanes) * m.wall.Seconds()
	spans := lr.tr.snapshot()
	kinds := selfByKind(spans, lr.unit)
	task := kinds[kindTask].Seconds()
	journal := kinds[kindJournal].Seconds()
	wire := kinds[kindWire].Seconds()
	idle := kinds[kindWait].Seconds()
	poolIdle := max(0, float64(m.lanes)*m.sweepWall.Seconds()-busyS)
	if m.fabric == nil {
		// Pool pipelines have no connection to wait on: a lane is idle when
		// the pool gives it no task.
		idle = poolIdle
		rep.set("sched.pool_idle_frac", poolIdle/(float64(m.lanes)*m.sweepWall.Seconds()), "ratio")
	}
	rep.set("self.task_frac", task/laneS, "ratio")
	rep.set("self.journal_frac", journal/laneS, "ratio")
	rep.set("self.wire_frac", wire/laneS, "ratio")
	rep.set("self.idle_frac", idle/laneS, "ratio")
	rep.set("self.accounted_frac", (task+journal+wire+idle)/laneS, "ratio")
	rep.note("traced unit: %.3f s wall on %d lane(s), %d points, %d spans so far",
		m.wall.Seconds(), m.lanes, m.points, len(spans))
}

// fabricProbes fills the cluster, comms and distrib metrics of
// ribbon_fabric: from the traced unit's decorators, and from the
// fabric-only probes.
func (lr *layerRun) fabricProbes(m *unitMeasure) error {
	rep := lr.rep
	fm := m.fabric
	pts := float64(m.points)
	sweepS := m.sweepWall.Seconds()
	rep.set("cluster.journal_bytes_per_task", float64(m.jBytes)/pts, "B")
	rep.set("cluster.journal_busy_frac", fm.appendDur.Seconds()/sweepS, "ratio")
	rep.set("comms.bytes_per_task", float64(fm.coordBytes)/pts, "B")
	c := m.perf.Counters
	// Worker-side frame counts; in-process workers share the counters, so
	// this is the sum over both.
	rep.set("comms.frames_per_task", float64(c["wire-frames-sent"]+c["wire-frames-recv"])/pts, "count")
	rep.set("distrib.worker_idle_frac", 1-sum(m.busy)/1e3/(float64(m.lanes)*sweepS), "ratio")
	var delays []float64
	for idx, end := range fm.taskEnd {
		if at, ok := fm.commitAt[idx]; ok {
			delays = append(delays, float64(at.Sub(end))/1e6)
		}
	}
	rep.set("distrib.commit_delay_p50_ms", percentile(delays, 50), "ms")
	rep.set("distrib.commit_delay_p99_ms", percentile(delays, 99), "ms")
	rep.describe("distrib.commit_delay_p50_ms", delays, "task end on the worker to OnResult on the coordinator")
	rep.set("distrib.redispatched", float64(m.report.Redispatched), "count")
	rep.set("distrib.steals", float64(m.report.Steals), "count")

	// One worker, no journal, against the serial sweep of the same grid
	// in the same process: what the fabric costs when it adds nothing.
	small := lr.gen.next(streamCheck)
	small.Workers = 1
	s, err := specParse(small.specJSON())
	if err != nil {
		return err
	}
	lr.unit++
	dist, err := fabricSweep(lr.ctx, s, "", nil, lr.unit)
	if err != nil {
		return fmt.Errorf("1-worker fabric: %w", err)
	}
	ser, err := serialSweep(lr.ctx, s, nil, lr.unit)
	if err != nil {
		return fmt.Errorf("serial twin: %w", err)
	}
	rep.Attempted++
	if err := diffObservables(dist.out, ser.out); err != nil {
		rep.fail("1-worker fabric vs serial: %v", err)
	}
	rep.set("distrib.overhead_ratio_1w", dist.wall.Seconds()/ser.wall.Seconds(), "ratio")

	// A typical per-task perf delta, for records and frames of real size.
	var delta perfSnapshot
	delta.Flops = m.perf.Flops / int64(m.points)
	delta.Phases = m.perf.Phases
	if err := probeJournal(rep, lr.e.runDir, delta); err != nil {
		return fmt.Errorf("journal probe: %w", err)
	}
	frames := float64(c["wire-frames-sent"] + c["wire-frames-recv"])
	if err := probeWire(rep, int(float64(fm.coordBytes)/max(frames, 1))); err != nil {
		return fmt.Errorf("wire probe: %w", err)
	}
	if err := probeFabric(lr.ctx, rep, lr.e.runDir); err != nil {
		return fmt.Errorf("fabric probe: %w", err)
	}
	return nil
}

// probeProcesses runs a few real processes: `omen -mode stats` for
// start-up cost (exec plus spec.Build), and one unit of the workload
// for peak resident memory by role.
func (lr *layerRun) probeProcesses() error {
	rep, e := lr.rep, lr.e
	u := lr.gen.next(streamCheck)
	var starts []float64
	for i := 0; i < 5; i++ {
		pr, err := runProc(e.omen, "-mode", "stats", "-device", u.Device)
		if err != nil {
			return err
		}
		starts = append(starts, ms(pr.wall))
	}
	rep.set("proc.startup_ms", median(starts), "ms")

	switch rep.Workload {
	case wlWire, wlFET:
		lr.realUnit = lr.gen.next(streamTimed)
		o, err := e.runCLIUnit(rep.Workload, lr.realUnit, "rss")
		if err != nil {
			return err
		}
		lr.realOut = o.stdout
		rep.set("proc.peak_rss_mb.serial", o.rssMB, "MB")
	case wlRibbon:
		lr.realUnit = lr.gen.next(streamTimed)
		return lr.probeFabricRSS(lr.realUnit)
	case wlService:
		d, err := startDaemon(e.omend, filepath.Join(e.runDir, "rss-data"))
		if err != nil {
			return err
		}
		cl := newSvcClient("rss", d.base)
		defer cl.close()
		for i := 0; i < 3; i++ {
			ju := lr.gen.next(streamCheck)
			o, err := cl.runJob(ju.specJSON(), 202)
			if err == nil {
				err = checkJob(o, ju, false)
			}
			if err != nil {
				d.kill()
				return err
			}
			lr.realUnit, lr.realOut = ju, o.result
		}
		rep.set("proc.peak_rss_mb.daemon", procPeakRSSMB(d.cmd.Process.Pid), "MB")
		return d.stop()
	}
	return nil
}

// probeFabricRSS runs one ribbon unit with the roles in separate
// process trees — a coordinator that spawns nothing, and one worker
// dialing it — so each role's peak RSS is its own.
func (lr *layerRun) probeFabricRSS(u unitSpec) error {
	e := lr.e
	u.Workers = 0
	journal := filepath.Join(e.runDir, "rss.journal")
	coord := exec.Command(e.omen, append(u.flags(), "-serve", "127.0.0.1:0", "-checkpoint", journal)...)
	var stdout bytes.Buffer
	coord.Stdout = &stdout
	stderr, err := coord.StderrPipe()
	if err != nil {
		return err
	}
	if err := startGroup(coord); err != nil {
		return err
	}
	pgid := coord.Process.Pid
	defer reapGroup(pgid)
	// A coordinator nobody serves waits for workers for ever: bound it.
	watchdog := time.AfterFunc(unitTimeout, func() { _ = syscall.Kill(-pgid, syscall.SIGKILL) })
	defer watchdog.Stop()
	// The coordinator announces its bound address on stderr.
	addr := ""
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		if _, rest, ok := strings.Cut(sc.Text(), "waiting for external `omen -worker "); ok {
			addr, _, _ = strings.Cut(rest, "`")
			break
		}
	}
	if addr == "" {
		_ = coord.Wait()
		return fmt.Errorf("coordinator never announced its address")
	}
	drained := make(chan struct{})
	go func() { // keep draining so the coordinator never blocks on stderr
		defer close(drained)
		for sc.Scan() {
		}
	}()
	wu := u
	wu.Workers = 1
	wr, werr := runProc(e.omen, append(wu.flags(), "-worker", addr)...)
	if werr != nil {
		_ = syscall.Kill(-pgid, syscall.SIGKILL) // its only worker is gone
	}
	<-drained // the pipe must be read out before Wait closes it
	cerr := coord.Wait()
	if werr != nil {
		return fmt.Errorf("worker: %w", werr)
	}
	if cerr != nil {
		return fmt.Errorf("coordinator: %w", cerr)
	}
	lr.realOut = stdout.Bytes()
	lr.rep.set("proc.peak_rss_mb.worker", float64(wr.maxRSSKB)/1024, "MB")
	if ru, ok := coord.ProcessState.SysUsage().(*syscall.Rusage); ok {
		lr.rep.set("proc.peak_rss_mb.coordinator", float64(ru.Maxrss)/1024, "MB")
	}
	return nil
}
