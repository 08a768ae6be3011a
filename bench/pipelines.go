//go:build layertrace

package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"time"
)

// The in-process pipelines of the traced run. Each composes, out of the
// layers' public functions (all reached through layers.go), the same
// pipeline a product entry point composes — cmd/omen's serial path, its
// -serve/-worker pair, its iv mode — and takes an optional tracer. With
// a nil tracer nothing is wrapped or hooked: that is the untraced
// in-process unit trace.overhead_frac is measured against.

// unitMeasure is what one in-process unit yielded.
type unitMeasure struct {
	wall      time.Duration // the whole unit: spec build to rendered output
	sweepWall time.Duration // the parallel section: sweep, Serve, or GateSweep
	lanes     int           // execution lanes the sweep ran on
	points    int
	perf      perfSnapshot // process-global counter delta over the sweep
	out       []byte       // the rendered output, omen's text format
	mallocs   uint64
	allocB    uint64

	// Traced units only.
	rootSpan int
	busy     []float64 // per-task busy time, ms
	stage    map[string]time.Duration

	// Fabric units only.
	fabric *fabricMeter
	report *serveReport
	jBytes int64

	// iv units only.
	biasWalls []float64 // s
	iters     []float64
}

// memDelta measures heap allocation around fn.
func memDelta(fn func()) (mallocs, bytes uint64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc
}

// staged runs fn as a named span and records its duration.
func (m *unitMeasure) staged(tr *tracer, unit int, name, layer string, fn func() error) error {
	id := tr.begin(name, layer, kindOther, unit, m.rootSpan, 0)
	t0 := time.Now()
	err := fn()
	if m.stage == nil {
		m.stage = make(map[string]time.Duration)
	}
	m.stage[name] += time.Since(t0)
	tr.end(id)
	return err
}

// buildAndPlan is the head every transmission entry point shares:
// spec.Build, then Simulator.PlanTransmission; it also sizes the unit.
func (m *unitMeasure) buildAndPlan(s runSpec, tr *tracer, unit int) (b *builtSpec, plan *transmissionPlan, err error) {
	if err = m.staged(tr, unit, "spec.Build", "spec", func() (err error) {
		b, err = specBuild(s)
		return err
	}); err != nil {
		return nil, nil, err
	}
	if err = m.staged(tr, unit, "core.PlanTransmission", "core", func() (err error) {
		plan, err = b.Sim.PlanTransmission(b.Grid, nil)
		return err
	}); err != nil {
		return nil, nil, err
	}
	nBias, nK, nE := plan.Dims()
	m.points = nBias * nK * nE
	return b, plan, nil
}

// serialSweep is cmd/omen's serial transmission path: spec.Build, then
// Simulator.TransmissionResumable taken apart into PlanTransmission +
// cluster.RunTasksResumable(plan.Run) + Assemble so the task function
// can be wrapped, then core.WriteSweep.
func serialSweep(ctx context.Context, s runSpec, tr *tracer, unit int) (*unitMeasure, error) {
	m := &unitMeasure{lanes: max(s.Exec.Workers, 1)}
	m.rootSpan = tr.begin("unit", "bench", kindOther, unit, -1, 0)
	defer tr.end(m.rootSpan)
	t0 := time.Now()

	b, plan, err := m.buildAndPlan(s, tr, unit)
	if err != nil {
		return nil, err
	}
	nBias, nK, nE := plan.Dims()
	opts := b.SweepOptions()
	opts.Restore = plan.Restore

	var run sweepFunc = plan.Run
	var sweepSpan int
	if tr != nil {
		busy := make([]float64, m.points)
		m.busy = busy
		run = func(ctx context.Context, t task) ([]byte, error) {
			id := tr.begin("task", "transport", kindTask, unit, sweepSpan, 0)
			st := time.Now()
			p, err := plan.Run(ctx, t)
			busy[(t.Bias*nK+t.K)*nE+t.E] = float64(time.Since(st)) / 1e6
			tr.end(id)
			return p, err
		}
	}
	var rep *sweepReport
	before := takeSnapshot()
	sweepSpan = tr.begin("cluster.RunTasksResumable", "cluster", kindOther, unit, m.rootSpan, 0)
	st := time.Now()
	m.mallocs, m.allocB = memDelta(func() { rep, err = runTasksResumable(ctx, nBias, nK, nE, opts, run) })
	m.sweepWall = time.Since(st)
	tr.end(sweepSpan)
	if err != nil {
		return nil, err
	}
	m.perf = takeSnapshot().Diff(before)

	var sweep *transmissionSweep
	_ = m.staged(tr, unit, "core.Assemble", "core", func() error { sweep = plan.Assemble(rep); return nil })
	var buf bytes.Buffer
	_ = m.staged(tr, unit, "core.WriteSweep", "core", func() error { writeSweep(&buf, sweep, m.perf); return nil })
	m.out = buf.Bytes()
	m.wall = time.Since(t0)
	return m, nil
}

// ivSweep is cmd/omen's iv mode: spec.Build, core.NewFET with the CLI's
// electrostatics defaults, one σ-cache across the sweep, FET.GateSweep,
// and the CLI's table. The pool hook supplies the bias- and energy-level
// task timestamps.
func ivSweep(ctx context.Context, s runSpec, tr *tracer, unit int) (*unitMeasure, error) {
	m := &unitMeasure{lanes: max(s.Exec.Workers, 1)}
	m.rootSpan = tr.begin("unit", "bench", kindOther, unit, -1, 0)
	defer tr.end(m.rootSpan)
	t0 := time.Now()

	var b *builtSpec
	if err := m.staged(tr, unit, "spec.Build", "spec", func() (err error) {
		b, err = specBuild(s)
		return err
	}); err != nil {
		return nil, err
	}
	fet, err := newFET(b.Sim)
	if err != nil {
		return nil, err
	}
	// cmd/omen's GNR-friendly electrostatics defaults.
	fet.Lambda = 1.2
	fet.SourceDoping = 0.1
	fet.GateStart, fet.GateEnd = 0.3, 0.7
	fet.Cache = b.Cache
	m.stage["core.NewFET"] = time.Since(t0) - m.stage["spec.Build"]

	var sweepSpan int
	var mu sync.Mutex
	if tr != nil {
		b.Pool.Hook = func(ev taskEvent) {
			end := time.Now()
			switch ev.Phase {
			case "energy":
				tr.add("energy task", "transport", kindTask, unit, sweepSpan, -1, end.Add(-ev.Wall), end)
				mu.Lock()
				m.busy = append(m.busy, float64(ev.Wall)/1e6)
				mu.Unlock()
			case "bias":
				tr.add(fmt.Sprintf("bias %d", ev.Index), "core", kindOther, unit, sweepSpan, -1, end.Add(-ev.Wall), end)
				mu.Lock()
				m.biasWalls = append(m.biasWalls, ev.Wall.Seconds())
				mu.Unlock()
			}
		}
	}
	var pts []ivPoint
	before := takeSnapshot()
	sweepSpan = tr.begin("core.FET.GateSweep", "core", kindOther, unit, m.rootSpan, 0)
	st := time.Now()
	m.mallocs, m.allocB = memDelta(func() { pts, err = fet.GateSweep(ctx, b.GateGrid, s.Grid.VDrain) })
	m.sweepWall = time.Since(st)
	tr.end(sweepSpan)
	if err != nil {
		return nil, err
	}
	m.perf = takeSnapshot().Diff(before)
	c := m.perf.Counters
	m.points = int((c["sigma-hits"] + c["sigma-misses"] + c["sigma-coalesced"]) / 2)

	var buf bytes.Buffer
	_ = m.staged(tr, unit, "core.WriteSweep", "core", func() error {
		writeCounters(&buf, m.perf)
		fmt.Fprintln(&buf, "# Vg(V)\tId(A)\titers\tconverged")
		for _, p := range pts {
			fmt.Fprintf(&buf, "%.4f\t%.6e\t%d\t%v\n", p.VGate, p.Current, p.Iterations, p.Converged)
			m.iters = append(m.iters, float64(p.Iterations))
		}
		return nil
	})
	m.out = buf.Bytes()
	m.wall = time.Since(t0)
	return m, nil
}

// fabricMeter observes one distributed sweep from its decorators: the
// journal (Checkpointer), the connections of both sides, the workers'
// task functions, and the coordinator's OnResult hook.
type fabricMeter struct {
	tr   *tracer
	unit int

	mu         sync.Mutex
	serveSpan  int
	workerSpan []int          // per lane (1-based; index 0 unused)
	openWait   []int          // per lane: the open wait span, or -1
	laneOfAddr map[string]int // worker conn local address → lane
	executor   map[int]int    // task → lane that ran it
	taskEnd    map[int]time.Time
	commitAt   map[int]time.Time
	busy       []float64 // ms, by task
	appendDur  time.Duration
	coordBytes int64 // both directions, coordinator side
	workerWait time.Duration
}

func newFabricMeter(tr *tracer, unit, workers, tasks int) *fabricMeter {
	m := &fabricMeter{tr: tr, unit: unit, serveSpan: -1,
		workerSpan: make([]int, workers+1), openWait: make([]int, workers+1),
		laneOfAddr: make(map[string]int), executor: make(map[int]int),
		taskEnd: make(map[int]time.Time), commitAt: make(map[int]time.Time),
		busy: make([]float64, tasks)}
	for i := range m.openWait {
		m.openWait[i], m.workerSpan[i] = -1, -1
	}
	return m
}

// waitParent is the span a coordinator-side action on behalf of a
// worker is caused by: that worker's open wait (it is blocked on the
// coordinator exactly then), else the worker itself.
func (m *fabricMeter) waitParentLocked(lane int) int {
	if lane <= 0 || lane >= len(m.openWait) {
		return m.serveSpan
	}
	if id := m.openWait[lane]; id >= 0 {
		return id
	}
	return m.workerSpan[lane]
}

// tracedJournal decorates a Checkpointer.
type tracedJournal struct {
	checkpointer
	m *fabricMeter
}

func (j *tracedJournal) Append(rec taskRecord) error {
	m := j.m
	m.mu.Lock()
	lane := m.executor[rec.Index]
	parent := m.waitParentLocked(lane)
	m.mu.Unlock()
	id := m.tr.begin("journal.Append", "cluster", kindJournal, m.unit, parent, lane)
	st := time.Now()
	err := j.checkpointer.Append(rec)
	d := time.Since(st)
	m.tr.end(id)
	m.mu.Lock()
	m.appendDur += d
	m.mu.Unlock()
	return err
}

// tracedConn decorates one end of a coordinator↔worker connection.
// lane > 0: the worker's end. lane == 0: the coordinator's end, whose
// peer lane is resolved from the remote address.
type tracedConn struct {
	net.Conn
	m    *fabricMeter
	lane int
}

func (c *tracedConn) peerLane() int {
	if c.lane > 0 {
		return c.lane
	}
	c.m.mu.Lock()
	defer c.m.mu.Unlock()
	return c.m.laneOfAddr[c.RemoteAddr().String()]
}

func (c *tracedConn) Read(p []byte) (int, error) {
	m := c.m
	if c.lane == 0 {
		n, err := c.Conn.Read(p)
		m.mu.Lock()
		m.coordBytes += int64(n)
		m.mu.Unlock()
		return n, err
	}
	m.mu.Lock()
	parent := m.workerSpan[c.lane]
	m.mu.Unlock()
	id := m.tr.begin("conn.Read (wait)", "comms", kindWait, m.unit, parent, c.lane)
	m.mu.Lock()
	m.openWait[c.lane] = id
	m.mu.Unlock()
	st := time.Now()
	n, err := c.Conn.Read(p)
	d := time.Since(st)
	m.mu.Lock()
	m.openWait[c.lane] = -1
	m.workerWait += d
	m.mu.Unlock()
	m.tr.end(id)
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	m := c.m
	lane := c.peerLane()
	m.mu.Lock()
	parent := m.workerSpan[max(lane, 0)]
	if c.lane == 0 {
		parent = m.waitParentLocked(lane)
	}
	m.mu.Unlock()
	id := m.tr.begin("conn.Write", "comms", kindWire, m.unit, parent, lane)
	n, err := c.Conn.Write(p)
	m.tr.end(id)
	if c.lane == 0 {
		m.mu.Lock()
		m.coordBytes += int64(n)
		m.mu.Unlock()
	}
	return n, err
}

type tracedListener struct {
	net.Listener
	m *fabricMeter
}

func (l *tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: c, m: l.m, lane: 0}, nil
}

// fabricWorker is what one in-process worker runs.
type fabricWorker struct {
	opts workerOptions
	fn   sweepFunc
}

// fabricCore runs one distributed sweep in this process: distrib.Serve
// on a loopback TCP listener, and one goroutine per worker dialing it
// and running distrib.RunWorker — cmd/omen's -serve and -worker sides.
// newWorker is called on the worker's goroutine (as a worker process
// builds its own spec). m == nil runs undecorated.
func fabricCore(ctx context.Context, m *fabricMeter, nBias, nK, nE int, so serveOptions, workers int,
	newWorker func(lane int) (fabricWorker, error)) (*serveReport, time.Duration, error) {
	lis, err := tcpListen("127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := dialableAddr(lis.Addr())
	if m != nil {
		lis = &tracedListener{Listener: lis, m: m}
		so.Journal = wrapJournal(so.Journal, m)
		inner := so.OnResult
		so.OnResult = func(t task, payload []byte) {
			now := time.Now()
			m.mu.Lock()
			m.commitAt[(t.Bias*nK+t.K)*nE+t.E] = now
			m.mu.Unlock()
			if inner != nil {
				inner(t, payload)
			}
		}
		m.serveSpan = m.tr.begin("distrib.Serve", "distrib", kindOther, m.unit, m.serveSpan, 0)
	}
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, workers+1)
	var wg sync.WaitGroup
	for lane := 1; lane <= workers; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			errs[lane] = runFabricWorker(wctx, m, lane, addr, nBias, nK, nE, newWorker)
		}(lane)
	}
	st := time.Now()
	rep, err := distribServe(ctx, lis, nBias, nK, nE, so)
	wall := time.Since(st)
	if m != nil {
		m.tr.end(m.serveSpan)
	}
	if err != nil {
		cancel()
	}
	wg.Wait()
	if err != nil {
		return rep, wall, err
	}
	for lane, werr := range errs {
		if werr != nil {
			return rep, wall, fmt.Errorf("worker %d: %w", lane, werr)
		}
	}
	return rep, wall, nil
}

func wrapJournal(j checkpointer, m *fabricMeter) checkpointer {
	if j == nil {
		return nil
	}
	return &tracedJournal{checkpointer: j, m: m}
}

func runFabricWorker(ctx context.Context, m *fabricMeter, lane int, addr string, nBias, nK, nE int,
	newWorker func(lane int) (fabricWorker, error)) error {
	if m != nil {
		id := m.tr.begin(fmt.Sprintf("worker %d", lane), "distrib", kindOther, m.unit, m.serveSpan, lane)
		m.mu.Lock()
		m.workerSpan[lane] = id
		m.mu.Unlock()
		defer m.tr.end(id)
	}
	w, err := newWorker(lane)
	if err != nil {
		return err
	}
	conn, err := dialRetry(ctx, tcpTransport, addr, 10*time.Second)
	if err != nil {
		return err
	}
	fn := w.fn
	if m != nil {
		m.mu.Lock()
		m.laneOfAddr[conn.LocalAddr().String()] = lane
		parent := m.workerSpan[lane]
		m.mu.Unlock()
		conn = &tracedConn{Conn: conn, m: m, lane: lane}
		inner := w.fn
		fn = func(ctx context.Context, t task) ([]byte, error) {
			idx := (t.Bias*nK+t.K)*nE + t.E
			id := m.tr.begin("task", "transport", kindTask, m.unit, parent, lane)
			st := time.Now()
			p, err := inner(ctx, t)
			end := time.Now()
			m.tr.end(id)
			m.mu.Lock()
			m.executor[idx] = lane
			m.taskEnd[idx] = end
			m.busy[idx] = float64(end.Sub(st)) / 1e6
			m.mu.Unlock()
			return p, err
		}
	}
	w.opts.ID = fmt.Sprintf("bench-%d", lane)
	w.opts.Logf = func(string, ...any) {}
	return distribWorker(ctx, conn, nBias, nK, nE, w.opts, fn)
}

// fabricSweep is the `omen -serve ADDR -workers N -checkpoint F` unit:
// the coordinator's spec.Build + PlanTransmission + fsynced journal with
// header, RunID and epoch + distrib.Serve + Assemble + WriteSweep, and N
// workers each doing the worker side's spec.Build(WorkerVariant) +
// PlanTransmission + distrib.RunWorker(plan.Run). journalPath "" runs
// without a journal.
func fabricSweep(ctx context.Context, s runSpec, journalPath string, tr *tracer, unit int) (*unitMeasure, error) {
	workers := max(s.Exec.Workers, 1)
	m := &unitMeasure{lanes: workers}
	m.rootSpan = tr.begin("unit", "bench", kindOther, unit, -1, 0)
	defer tr.end(m.rootSpan)
	t0 := time.Now()

	_, plan, err := m.buildAndPlan(s, tr, unit)
	if err != nil {
		return nil, err
	}
	nBias, nK, nE := plan.Dims()

	so := serveOptions{
		LeaseTimeout: s.Exec.LeaseTimeout.Std(),
		DrainTimeout: s.Exec.DrainTimeout.Std(),
		Restore:      plan.Restore,
		SpecHash:     s.SpecHash(),
		Shards:       s.Exec.Shards,
		WireFormat:   s.Exec.WireFormat,
	}
	if journalPath != "" {
		js := s
		js.Resilience.Checkpoint = journalPath
		var j *fileJournal
		if err := m.staged(tr, unit, "spec.OpenJournal", "cluster", func() (err error) {
			j, err = specOpenJournal(js, func(string, ...any) {}, withFsync())
			return err
		}); err != nil {
			return nil, err
		}
		defer j.Close()
		so.Journal = j
		if h, herr := j.ReadHeader(); herr == nil && h != nil {
			so.RunID = h.RunID
		}
		epoch, err := j.LatestEpoch()
		if err != nil {
			return nil, err
		}
		so.Epoch = epoch
	}

	if tr != nil {
		m.fabric = newFabricMeter(tr, unit, workers, m.points)
		m.fabric.serveSpan = m.rootSpan // parent of the Serve span
	}
	ws := s.WorkerVariant()
	newWorker := func(lane int) (fabricWorker, error) {
		wb, err := specBuild(ws)
		if err != nil {
			return fabricWorker{}, err
		}
		wplan, err := wb.Sim.PlanTransmission(wb.Grid, nil)
		if err != nil {
			return fabricWorker{}, err
		}
		return fabricWorker{fn: wplan.Run, opts: workerOptions{
			Pool:       wplan.Pool(),
			Capacity:   leaseBatch,
			WireFormat: ws.Exec.WireFormat,
			Retry:      wb.RetryPolicy(),
			Injector:   wb.Injector(),
			SpecHash:   ws.SpecHash(),
		}}, nil
	}

	before := takeSnapshot()
	var rep *serveReport
	m.mallocs, m.allocB = memDelta(func() {
		rep, m.sweepWall, err = fabricCore(ctx, m.fabric, nBias, nK, nE, so, workers, newWorker)
	})
	if err != nil {
		return nil, err
	}
	m.report = rep
	if m.fabric != nil {
		m.busy = m.fabric.busy
	}
	// In-process workers share the process-global counters, so the
	// per-task deltas they ship overlap; the exact totals are the global
	// delta over the sweep, which is what the output is rendered from.
	m.perf = takeSnapshot().Diff(before)
	if journalPath != "" {
		if fi, err := os.Stat(journalPath); err == nil {
			m.jBytes = fi.Size()
		}
	}

	var sweep *transmissionSweep
	_ = m.staged(tr, unit, "core.Assemble", "core", func() error { sweep = plan.Assemble(rep.Sweep); return nil })
	var buf bytes.Buffer
	_ = m.staged(tr, unit, "core.WriteSweep", "core", func() error {
		writeSweep(&buf, sweep, m.perf,
			fmt.Sprintf("# cluster: %d workers, %d leases re-dispatched", rep.Workers, rep.Redispatched))
		return nil
	})
	m.out = buf.Bytes()
	m.wall = time.Since(t0)
	return m, nil
}

// noopFabric runs `tasks` constant-payload tasks through Serve and one
// RunWorker: no solve, so what remains is lease grants, result uploads,
// wire, and (with a journal) the commit path — the fabric's ceiling.
func noopFabric(ctx context.Context, tasks int, journal checkpointer, m *fabricMeter) (*serveReport, time.Duration, error) {
	payload := make([]byte, 8)
	so := serveOptions{Journal: journal, Restore: func(task, []byte) error { return nil }}
	return fabricCore(ctx, m, 1, 1, tasks, so, 1, func(int) (fabricWorker, error) {
		return fabricWorker{
			fn:   func(context.Context, task) ([]byte, error) { return payload, nil },
			opts: workerOptions{Capacity: leaseBatch},
		}, nil
	})
}
