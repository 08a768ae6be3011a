//go:build layertrace

package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"time"
)

// The traced run of service_mix. internal/server is composed the way
// cmd/omend composes it — NewManager, API.Handler on an http.Server —
// with workers running in-process, and driven over loopback HTTP by the
// same client code the end-to-end run uses. What can be observed from
// outside the manager is observed: the HTTP calls, the job's
// submitted/started/finished stamps, per-task busy time (the worker
// spawner is ours), and a cluster.Tail on the job's journal racing the
// SSE stream.

// inprocDaemon is omend without the process.
type inprocDaemon struct {
	m    *serverManager
	srv  *http.Server
	base string
}

func bootInproc(dataDir string, spawn func(context.Context, string, runSpec) error) (*inprocDaemon, error) {
	m, err := newManager(serverConfig{
		DataDir: dataDir, MaxRunning: 2, DefaultWorkers: 1, SpawnWorker: spawn,
	})
	if err != nil {
		return nil, err
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		m.Close()
		return nil, err
	}
	api := &serverAPI{M: m, Version: "bench"}
	d := &inprocDaemon{m: m, srv: &http.Server{Handler: api.Handler()}, base: "http://" + lis.Addr().String()}
	go func() { _ = d.srv.Serve(lis) }() // returns when close() closes the server
	return d, nil
}

func (d *inprocDaemon) close() {
	if d == nil {
		return
	}
	d.srv.Close()
	d.m.Close()
}

// busyLog collects per-task busy times from the traced worker spawner.
type busyLog struct {
	mu   sync.Mutex
	busy []float64 // ms
}

// tracedSpawner is server.WorkerMain with the task function wrapped:
// spec.Build, PlanTransmission, dial, distrib.RunWorker(plan.Run).
func tracedSpawner(log *busyLog) func(context.Context, string, runSpec) error {
	return func(ctx context.Context, addr string, ws runSpec) error {
		wb, err := specBuild(ws)
		if err != nil {
			return err
		}
		plan, err := wb.Sim.PlanTransmission(wb.Grid, nil)
		if err != nil {
			return err
		}
		nBias, nK, nE := plan.Dims()
		conn, err := dialRetry(ctx, tcpTransport, addr, 30*time.Second)
		if err != nil {
			return err
		}
		fn := func(ctx context.Context, t task) ([]byte, error) {
			st := time.Now()
			p, err := plan.Run(ctx, t)
			d := float64(time.Since(st)) / 1e6
			log.mu.Lock()
			log.busy = append(log.busy, d)
			log.mu.Unlock()
			return p, err
		}
		return distribWorker(ctx, conn, nBias, nK, nE, workerOptions{
			Pool:       plan.Pool(),
			Capacity:   leaseBatch,
			WireFormat: ws.Exec.WireFormat,
			Retry:      wb.RetryPolicy(),
			Injector:   wb.Injector(),
			SpecHash:   ws.SpecHash(),
			Logf:       func(string, ...any) {},
		}, fn)
	}
}

// raceTail polls a job's journal until it has seen want records or stop
// closes, and returns when each record was first visible on disk.
func raceTail(path string, want int, stop <-chan struct{}) []time.Time {
	tail := newTail(path)
	var seen []time.Time
	for len(seen) < want {
		select {
		case <-stop:
			return seen
		default:
		}
		recs, err := tail.Poll()
		now := time.Now()
		if err == nil {
			for range recs {
				seen = append(seen, now)
			}
		}
		time.Sleep(200 * time.Microsecond)
	}
	return seen
}

// svcSample is what the traced window keeps of one job.
type svcSample struct {
	o    jobOutcome
	u    unitSpec
	tail []time.Time
}

// serviceWindow runs perClient fresh jobs on each of two closed-loop
// clients. With a tracer, every job gets spans and a Tail racing its
// stream.
func (lr *layerRun) serviceWindow(d *inprocDaemon, perClient int, tr *tracer) ([]svcSample, time.Duration, error) {
	var (
		mu      sync.Mutex
		samples []svcSample
		first   error
		wg      sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newSvcClient(fmt.Sprintf("c%d", c), d.base)
			defer cl.close()
			for i := 0; i < perClient; i++ {
				mu.Lock()
				u := lr.gen.next(streamTimed)
				lr.unit++
				unit := lr.unit
				mu.Unlock()
				s := svcSample{u: u}
				t0 := time.Now()
				root := tr.begin("job", "server", kindOther, unit, -1, c)
				var tailC chan []time.Time
				stop := make(chan struct{})
				if tr != nil {
					// The job ID is the spec's content hash, so the journal
					// path is known before the POST returns.
					sp, err := specParse(u.specJSON())
					if err == nil {
						tailC = make(chan []time.Time, 1)
						path := d.m.JournalPath(sp.SpecHash())
						go func() { tailC <- raceTail(path, u.NE, stop) }()
					}
				}
				o, err := cl.runJob(u.specJSON(), 202)
				close(stop)
				tr.end(root)
				if tailC != nil {
					s.tail = <-tailC
				}
				if err == nil {
					err = checkJob(o, u, false)
				}
				if err == nil && tr != nil {
					tr.add("POST /v1/jobs", "server", kindOther, unit, root, c, t0, t0.Add(o.postWall))
					if o.final.Started != nil && o.final.Finished != nil {
						tr.add("admission wait", "server", kindWait, unit, root, c, o.final.Submitted, *o.final.Started)
						tr.add("Manager.run", "server", kindOther, unit, root, c, *o.final.Started, *o.final.Finished)
					}
					end := t0.Add(o.wall)
					tr.add("GET /result", "server", kindOther, unit, root, c, end.Add(-o.resultWall), end)
				}
				s.o = o
				mu.Lock()
				lr.rep.Attempted++
				if err != nil {
					lr.rep.fail("traced job: %v", err)
					if first == nil {
						first = err
					}
				} else {
					samples = append(samples, s)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return samples, time.Since(start), first
}

func jobWalls(ss []svcSample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.o.wall.Seconds()
	}
	return out
}

func (lr *layerRun) tracedService() error {
	rep := lr.rep
	dataDir := filepath.Join(lr.e.runDir, "traced-data")
	const perClient = 6

	// Untraced: the product's own in-process spawner, no racer, no spans.
	d, err := bootInproc(dataDir, inProcSpawner())
	if err != nil {
		return err
	}
	var plain []svcSample
	mallocs, allocB := memDelta(func() { plain, _, err = lr.serviceWindow(d, perClient, nil) })
	d.close()
	if err != nil {
		return err
	}
	// Whole-process allocation over the untraced window: engine, fabric,
	// manager and HTTP together.
	plainPts := float64(len(plain) * serviceNE)
	rep.set("linalg.allocs_per_point", float64(mallocs)/plainPts, "count")
	rep.set("linalg.alloc_bytes_per_point", float64(allocB)/plainPts, "B")

	// Traced: same composition, our spawner (per-task busy), spans, racer.
	var blog busyLog
	d, err = bootInproc(dataDir, tracedSpawner(&blog))
	if err != nil {
		return err
	}
	defer func() { d.close() }()
	// The recomposed service must reproduce what the omend binary returned
	// for the same spec (probeProcesses ran it), or the numbers below
	// describe some other service. Alone on the daemon, so the flop total
	// is this job's own.
	idc := newSvcClient("identity", d.base)
	o, err := idc.runJob(lr.realUnit.specJSON(), 202)
	idc.close()
	if err == nil {
		err = checkJob(o, lr.realUnit, false)
	}
	if err == nil {
		err = diffObservables(o.result, lr.realOut)
	}
	rep.Attempted++
	if err != nil {
		rep.fail("in-process service vs the omend binary on the same spec: %v", err)
	}
	blog.busy = nil
	before := takeSnapshot()
	traced, window, err := lr.serviceWindow(d, perClient, lr.tr)
	if err != nil {
		return err
	}
	perfD := takeSnapshot().Diff(before)
	rep.set("trace.overhead_frac", median(jobWalls(traced))/median(jobWalls(plain))-1, "ratio")

	var submit, admit, run, fetch, firstPt, lags, gaps []float64
	points := 0
	for _, s := range traced {
		o := s.o
		points += s.u.NE
		submit = append(submit, ms(o.postWall))
		fetch = append(fetch, ms(o.resultWall))
		firstPt = append(firstPt, ms(o.firstPoint))
		if o.final.Started != nil && o.final.Finished != nil {
			admit = append(admit, ms(o.final.Started.Sub(o.final.Submitted)))
			run = append(run, o.final.Finished.Sub(*o.final.Started).Seconds())
		}
		for k := 1; k < len(o.pointTimes); k++ {
			gaps = append(gaps, ms(o.pointTimes[k].Sub(o.pointTimes[k-1])))
		}
		// The stream emits in journal order, so the k-th point event
		// answers the k-th record the racer saw land on disk.
		for k := 0; k < len(o.pointTimes) && k < len(s.tail); k++ {
			lags = append(lags, ms(o.pointTimes[k].Sub(s.tail[k])))
		}
	}
	rep.set("server.submit_ms", median(submit), "ms")
	rep.set("server.admission_wait_ms", median(admit), "ms")
	rep.set("server.run_s", median(run), "s")
	rep.set("server.job_wall_s", median(jobWalls(traced)), "s")
	rep.describe("server.job_wall_s", jobWalls(traced), "POST to result body, in-process server")
	rep.set("server.result_fetch_ms", median(fetch), "ms")
	rep.set("server.sse_first_point_ms", median(firstPt), "ms")
	rep.set("server.sse_emit_lag_p50_ms", percentile(lags, 50), "ms")
	rep.set("server.sse_emit_lag_p99_ms", percentile(lags, 99), "ms")
	rep.describe("server.sse_emit_lag_p50_ms", lags, "point event receipt minus first sight of its record by a racing Tail (200 µs poll)")
	rep.set("server.sse_gap_p99_ms", percentile(gaps, 99), "ms")

	// Engine-side numbers of the traced window, from the process-global
	// counters (every worker ran in this process).
	busyS := engineMetrics(rep, perfD, points, blog.busy)
	// Two jobs run at a time, one worker each: two lanes. Only task time
	// is visible from outside the manager.
	rep.set("self.task_frac", busyS/(2*window.Seconds()), "ratio")
	rep.set("self.accounted_frac", busyS/(2*window.Seconds()), "ratio")

	// Fixed cost: a job with next to no work in it.
	cl := newSvcClient("probe", d.base)
	defer cl.close()
	var fixed []float64
	for i := 0; i < 5; i++ {
		u := lr.gen.next(streamProbe)
		o, err := cl.runJob(u.specJSON(), 202)
		if err == nil {
			err = checkJob(o, u, false)
		}
		rep.Attempted++
		if err != nil {
			rep.fail("fixed-cost job: %v", err)
			return err
		}
		fixed = append(fixed, ms(o.wall))
	}
	rep.set("server.job_fixed_cost_ms", median(fixed), "ms")
	rep.describe("server.job_fixed_cost_ms", fixed, fmt.Sprintf("nE=%d job, POST to result body", serviceFixedCostNE))

	// Dedup hit: re-submitting a finished spec to the daemon that ran it.
	last := traced[len(traced)-1]
	var dedup []float64
	for i := 0; i < 5; i++ {
		st := time.Now()
		_, status, err := cl.submit(last.u.specJSON())
		if err != nil || status != http.StatusOK {
			rep.Attempted++
			rep.fail("dedup submit: status %d, err %v", status, err)
			break
		}
		dedup = append(dedup, ms(time.Since(st)))
	}
	rep.set("server.dedup_hit_ms", median(dedup), "ms")

	// Replay: a new manager over the same data directory serves finished
	// specs from their journals.
	d.close()
	d, err = bootInproc(dataDir, inProcSpawner())
	if err != nil {
		return err
	}
	rcl := newSvcClient("replay", d.base)
	defer rcl.close()
	var replays []float64
	for _, s := range traced[:min(5, len(traced))] {
		o, err := rcl.runJob(s.u.specJSON(), 202)
		if err == nil {
			err = checkJob(o, s.u, true)
		}
		if err == nil {
			err = diffObservables(o.result, s.o.result)
		}
		rep.Attempted++
		if err != nil {
			rep.fail("replay: %v", err)
			return err
		}
		replays = append(replays, ms(o.wall))
	}
	rep.set("server.replay_ms", median(replays), "ms")

	// The same spec through the `omen -serve -workers 1 -checkpoint`
	// composition in this process: what the service layer adds on top.
	su := last.u
	su.Workers = 1
	s, err := specParse(su.specJSON())
	if err != nil {
		return err
	}
	var serve []float64
	var fm *unitMeasure
	for i := 0; i < 3; i++ {
		lr.unit++
		fm, err = fabricSweep(lr.ctx, s, filepath.Join(lr.e.runDir, fmt.Sprintf("svc-serve-%d.journal", i)), nil, lr.unit)
		if err != nil {
			return fmt.Errorf("serve twin: %w", err)
		}
		serve = append(serve, fm.wall.Seconds())
	}
	rep.Attempted++
	if !bytes.Equal(rows(last.o.result), rows(fm.out)) {
		rep.fail("service result and in-process serve disagree on T(E)")
	}
	rep.set("server.overhead_ratio", median(run)/median(serve), "ratio")

	// The layers below the service, probed as on ribbon_fabric.
	if err := probeSpec(rep, last.u.specJSON(), s); err != nil {
		return fmt.Errorf("spec probe: %w", err)
	}
	blockN, err := probeKernels(rep, s)
	if err != nil {
		return fmt.Errorf("kernel probe: %w", err)
	}
	lr.roofline(blockN)
	var delta perfSnapshot
	delta.Flops = fm.perf.Flops / int64(fm.points)
	delta.Phases = fm.perf.Phases
	if err := probeJournal(rep, lr.e.runDir, delta); err != nil {
		return fmt.Errorf("journal probe: %w", err)
	}
	rep.set("cluster.journal_bytes_per_task", float64(fm.jBytes)/float64(fm.points), "B")
	if err := probeWire(rep, 256); err != nil {
		return fmt.Errorf("wire probe: %w", err)
	}
	return nil
}
