package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// The end-to-end run: one load-generating process driving the real
// binaries. Nothing in this file (or proc.go, service.go, checks.go)
// touches repro/internal — the system under test only ever sees the
// generated flags or JSON.

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// detail carries what the contract line has no room for: sample counts,
// ranges, and the percentile a "pXX" figure actually used.
type detail struct {
	Name string  `json:"name"`
	N    int     `json:"n,omitempty"`
	Min  float64 `json:"min,omitempty"`
	Max  float64 `json:"max,omitempty"`
	Note string  `json:"note,omitempty"`
}

// runReport is the outcome of one workload run, end-to-end or traced.
type runReport struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	// Extra holds the service-only end-to-end figures (see serviceOnly):
	// part of the ledger and of -compare, not of the contract line.
	Extra   map[string]metric `json:"extra,omitempty"`
	Details []detail          `json:"details,omitempty"`
	Notes   []string          `json:"notes,omitempty"`
}

func newReport(wl string, seed uint64, seconds float64, trace bool) *runReport {
	return &runReport{Workload: wl, Seed: seed, Seconds: seconds, Trace: trace,
		Metrics: map[string]metric{}, Extra: map[string]metric{}}
}

func (r *runReport) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *runReport) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

func (r *runReport) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func (r *runReport) describe(name string, xs []float64, note string) {
	lo, hi := minMax(xs)
	r.Details = append(r.Details, detail{Name: name, N: len(xs), Min: lo, Max: hi, Note: note})
}

// unitOutcome is what one CLI unit cost and produced.
type unitOutcome struct {
	wall   float64 // s, process launch to exit
	cpu    float64 // s, user+sys over the process tree
	points int
	rssMB  float64
	stdout []byte
}

// runCLIUnit launches one omen unit the way the workload prescribes and
// checks its output. idx only names the unit's journal file.
func (e *env) runCLIUnit(wl string, u unitSpec, idx string) (unitOutcome, error) {
	args := u.flags()
	journal := ""
	if wl == wlRibbon {
		journal = filepath.Join(e.runDir, "u"+idx+".journal")
		args = append(args, "-serve", "127.0.0.1:0", "-checkpoint", journal)
	}
	pr, err := runProc(e.omen, args...)
	o := unitOutcome{wall: pr.wall.Seconds(), cpu: pr.cpu.Seconds(),
		rssMB: float64(pr.maxRSSKB) / 1024, stdout: pr.stdout}
	if err != nil {
		return o, err
	}
	switch u.Mode {
	case "iv":
		so, err := checkIV(pr.stdout, u.NVG)
		if err != nil {
			return o, err
		}
		// Every single-energy solve asks for both contacts' self-energies,
		// each answered as exactly one of hit, miss or coalesced wait.
		o.points = int(so.sigmaTotal / 2)
	default:
		if _, err := checkSweep(pr.stdout, u.NE); err != nil {
			return o, err
		}
		o.points = u.NE // one open-boundary solve per grid energy (nK is 1)
	}
	if journal != "" {
		// Exactly one verified record per task, by the repo's own auditor
		// (cluster.FileJournal.Load underneath).
		_, jerr := runProc(e.journalcheck, "-journal", journal, "-total", fmt.Sprint(u.NE))
		os.Remove(journal)
		if jerr != nil {
			return o, fmt.Errorf("journal audit: %w", jerr)
		}
	}
	return o, nil
}

// checkAgainstSerial runs the workload's check unit and a plain serial
// omen run of the same spec, and requires byte-identical observables.
func (e *env) checkAgainstSerial(wl string, u unitSpec, idx string) error {
	got, err := e.runCLIUnit(wl, u, idx)
	if err != nil {
		return fmt.Errorf("check unit: %w", err)
	}
	ref, err := runProc(e.omen, u.serialReference().flags()...)
	if err != nil {
		return fmt.Errorf("serial reference: %w", err)
	}
	return diffObservables(got.stdout, ref.stdout)
}

// hostNote records how the host ran during a run: the factors the
// reported times were divided by.
func (r *runReport) hostNote(factors []float64) {
	lo, hi := minMax(factors)
	r.note("host factor (reference kernel wall over nominal): median %.3f, range %.3f–%.3f over %d intervals; reported times are measured times divided by it",
		median(factors), lo, hi, len(factors))
}

// runCLI is the end-to-end run of the three CLI workloads: setupReps
// checked set-up passes, then units back to back until the window
// closes, a reading of the host gauge between any two steps (see hostref.go).
func (e *env) runCLI(wl string, seed uint64, seconds float64) *runReport {
	rep := newReport(wl, seed, seconds, false)
	gen := newGenerator(wl, seed)

	g := newGauge()

	var setups, rawSetups []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		rep.Attempted++
		if err := e.checkAgainstSerial(wl, gen.next(streamCheck), fmt.Sprintf("c%d", i)); err != nil {
			rep.fail("set-up %d: %v", i, err)
		}
		raw := time.Since(t0).Seconds()
		rawSetups = append(rawSetups, raw)
		setups = append(setups, raw/g.close(raw, refShareSetup))
	}

	// The window decides how many units run; what is timed is each unit's
	// own wall (process launch to exit), so the harness's parsing, the
	// journal audit and the reference samples between units are in no
	// metric.
	var walls, rawWalls, cpus []float64
	var points int
	var peakRSS float64
	g.reopen() // a full reading before the first unit: set-up passes close with a short one
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; time.Now().Before(deadline) || i < 2; i++ {
		rep.Attempted++
		o, err := e.runCLIUnit(wl, gen.next(streamTimed), fmt.Sprint(i))
		f := g.close(o.wall, refShare)
		if err != nil {
			rep.fail("unit %d: %v", i, err)
			continue
		}
		rawWalls = append(rawWalls, o.wall)
		walls = append(walls, o.wall/f)
		cpus = append(cpus, o.cpu/f)
		points += o.points
		peakRSS = max(peakRSS, o.rssMB)
	}

	rep.set("setup_s", median(setups), "s")
	rep.describe("setup_s", setups, fmt.Sprintf("median of the set-up passes; go build excluded; as measured %.4g", median(rawSetups)))
	if len(walls) > 0 {
		rep.set("unit_wall_p50_s", median(walls), "s")
		rep.describe("unit_wall_p50_s", walls, fmt.Sprintf("too few samples for a higher percentile: min and max given; as measured %.4g", median(rawWalls)))
		rep.set("points_per_s", float64(points)/sum(walls), "1/s")
		rep.set("cpu_s_per_kpoint", sum(cpus)/float64(points)*1000, "s")
		rep.note("%d timed units, %d points, %.2f s of unit wall as measured, peak RSS %.1f MB (process tree)",
			len(walls), points, sum(rawWalls), peakRSS)
	}
	rep.hostNote(g.factors)
	return rep
}

// archived is one spec set-up ran to completion, with the observables
// its replay must reproduce.
type archived struct {
	spec unitSpec
	obs  []byte
}

// runService is the end-to-end run of service_mix.
func (e *env) runService(seed uint64, seconds float64) *runReport {
	rep := newReport(wlService, seed, seconds, false)
	gen := newGenerator(wlService, seed)
	dataDir := filepath.Join(e.runDir, "omend-data")

	g := newGauge()

	// Set-up, setupReps times over one data directory: boot, archive a
	// fresh batch of jobs, drain, boot again, run one job and diff it
	// against serial omen. Every pass adds to the archive the timed
	// window replays from, so no pass is wasted work.
	var (
		setups, rawSetups []float64
		archive           []archived
		d                 *daemon
	)
	for i := 0; i < setupReps; i++ {
		if d != nil { // the previous pass's daemon: stopped outside the timing
			if err := d.stop(); err != nil {
				rep.fail("set-up %d: %v", i, err)
			}
			g.reopen()
		}
		t0 := time.Now()
		var batch []archived
		var err error
		d, batch, err = e.serviceSetupPass(rep, gen, dataDir)
		raw := time.Since(t0).Seconds()
		rawSetups = append(rawSetups, raw)
		setups = append(setups, raw/g.close(raw, refShareSetup))
		if err != nil {
			rep.Attempted++
			rep.fail("set-up %d: %v", i, err)
			rep.set("setup_s", median(setups), "s")
			return rep
		}
		archive = append(archive, batch...)
	}
	defer func() {
		if err := d.stop(); err != nil {
			rep.fail("daemon stop: %v", err)
		}
	}()

	// Timed window: two closed-loop clients, each on one keep-alive
	// connection, in rounds of serviceRoundUnits units per client. Between
	// rounds both clients are idle, the daemon has reaped every worker, and
	// the host gauge takes a reading; a round's times are divided by the
	// host factor of the two readings around it.
	var (
		mu        sync.Mutex
		fresh     []float64 // fresh-job walls, s
		rawFresh  []float64 // the same as measured
		firsts    []float64 // POST → first point, s
		replays   []float64 // replay walls, ms
		points    int
		exhausted int
		wallSum   float64 // Σ round wall, s
		rawWall   float64 // the same as measured
		cpuSum    float64 // Σ daemon-tree CPU over the rounds, s
		cpuErr    error
	)
	nextArchived := func() (archived, bool) {
		mu.Lock()
		defer mu.Unlock()
		if len(archive) == 0 {
			exhausted++
			return archived{}, false
		}
		a := archive[0]
		archive = archive[1:]
		return a, true
	}
	nextFresh := func() unitSpec {
		mu.Lock()
		defer mu.Unlock()
		return gen.next(streamTimed)
	}
	var clients [2]*svcClient
	for c := range clients {
		clients[c] = newSvcClient(fmt.Sprintf("c%d", c), d.base)
		defer clients[c].close()
	}
	type jobSample struct {
		replay      bool
		wall, first float64
	}
	g.reopen() // a full reading before the first round: set-up passes close with a short one
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for round := 0; time.Now().Before(deadline) || round < 1; round++ {
		var samples []jobSample
		roundPoints := 0
		cpu0, err0 := procCPU(d.cmd.Process.Pid)
		start := time.Now()
		var wg sync.WaitGroup
		for c, cl := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; k < serviceRoundUnits; k++ {
					// Every serviceReplayEvery-th unit replays an archived spec,
					// while the archive lasts; the others are fresh jobs.
					var a archived
					replay := false
					if k%serviceReplayEvery == serviceReplayEvery-1 {
						a, replay = nextArchived()
					}
					u := a.spec
					if !replay {
						u = nextFresh()
					}
					o, err := cl.runJob(u.specJSON(), 202)
					if err == nil {
						err = checkJob(o, u, replay)
					}
					if err == nil && replay {
						err = diffObservables(o.result, a.obs)
					}
					mu.Lock()
					rep.Attempted++
					if err != nil {
						rep.fail("round %d client %d unit %d (replay %v): %v", round, c, k, replay, err)
					} else {
						samples = append(samples, jobSample{replay, o.wall.Seconds(), o.firstPoint.Seconds()})
						if !replay {
							roundPoints += u.NE
						}
					}
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		wall := time.Since(start).Seconds()
		cpu1, err1 := procCPU(d.cmd.Process.Pid)
		f := g.close(wall, refShare)
		if cpuErr == nil {
			cpuErr = errors.Join(err0, err1)
		}
		for _, j := range samples {
			if j.replay {
				replays = append(replays, j.wall*1000/f)
				continue
			}
			rawFresh = append(rawFresh, j.wall)
			fresh = append(fresh, j.wall/f)
			firsts = append(firsts, j.first/f)
		}
		points += roundPoints
		rawWall += wall
		wallSum += wall / f
		cpuSum += (cpu1 - cpu0) / f
	}

	rep.set("setup_s", median(setups), "s")
	rep.describe("setup_s", setups, fmt.Sprintf("median of the set-up passes; go build excluded; as measured %.4g", median(rawSetups)))
	rep.hostNote(g.factors)
	if exhausted > 0 {
		rep.note("archive ran dry: %d replay slots fell back to fresh jobs", exhausted)
	}
	if len(fresh) == 0 || points == 0 {
		return rep
	}
	rep.set("unit_wall_p50_s", median(fresh), "s")
	rep.describe("unit_wall_p50_s", fresh, fmt.Sprintf("fresh jobs only; as measured %.4g", median(rawFresh)))
	rep.set("points_per_s", float64(points)/wallSum, "1/s")
	if cpuErr != nil {
		rep.Attempted++
		rep.fail("daemon CPU reading: %v", cpuErr)
	} else {
		rep.set("cpu_s_per_kpoint", cpuSum/float64(points)*1000, "s")
	}
	// p90 whenever the window supports it (at least 10 samples beyond:
	// 100 fresh jobs); a thinner window falls back to the highest
	// percentile it does support, and says so.
	p, ok := topPercentile(len(fresh))
	p = min(p, 90)
	note := fmt.Sprintf("p%g of %d samples", p, len(fresh))
	if p < 90 {
		note += ": too few for p90, the highest percentile with at least 10 samples beyond it"
	}
	if !ok {
		note = fmt.Sprintf("only %d samples: median reported, see min and max", len(fresh))
	}
	rep.Extra["job_wall_p90_s"] = metric{percentile(fresh, p), "s"}
	rep.describe("job_wall_p90_s", fresh, note)
	rep.Extra["sse_first_point_p50_s"] = metric{median(firsts), "s"}
	rep.describe("sse_first_point_p50_s", firsts, "")
	if len(replays) > 0 {
		rep.Extra["replay_wall_p50_ms"] = metric{median(replays), "ms"}
		rep.describe("replay_wall_p50_ms", replays, "replayed:true and observables byte-identical to the archived run")
	}
	rep.note("%d fresh jobs, %d replays, %d points, %.2f s of round wall as measured, daemon peak RSS %.1f MB",
		len(fresh), len(replays), points, rawWall, procPeakRSSMB(d.cmd.Process.Pid))
	return rep
}

// serviceSetupPass is one set-up pass of service_mix. It returns the
// daemon left running (warm, checked) and the batch it archived.
func (e *env) serviceSetupPass(rep *runReport, gen *generator, dataDir string) (*daemon, []archived, error) {
	d, err := startDaemon(e.omend, dataDir)
	if err != nil {
		return nil, nil, err
	}
	// Archive: two clients, each running half the batch to completion.
	specs := make([]unitSpec, serviceArchivePerRep)
	for i := range specs {
		specs[i] = gen.next(streamArchive)
	}
	batch := make([]archived, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newSvcClient(fmt.Sprintf("c%d", c), d.base)
			defer cl.close()
			for i := c; i < len(specs); i += 2 {
				o, err := cl.runJob(specs[i].specJSON(), 202)
				if err == nil {
					err = checkJob(o, specs[i], false)
				}
				errs[i] = err
				batch[i] = archived{spec: specs[i], obs: observables(o.result)}
			}
		}(c)
	}
	wg.Wait()
	rep.Attempted += len(specs)
	for i, err := range errs {
		if err != nil {
			d.kill()
			return nil, nil, fmt.Errorf("archive job %d: %w", i, err)
		}
	}
	if err := d.stop(); err != nil {
		return nil, nil, err
	}

	// Restart over the same data directory; the warm-up job doubles as
	// the byte-for-byte check against serial omen.
	d, err = startDaemon(e.omend, dataDir)
	if err != nil {
		return nil, nil, err
	}
	rep.Attempted++
	u := gen.next(streamCheck)
	cl := newSvcClient("warmup", d.base)
	defer cl.close()
	o, err := cl.runJob(u.specJSON(), 202)
	if err == nil {
		err = checkJob(o, u, false)
	}
	if err == nil {
		var ref procResult
		if ref, err = runProc(e.omen, u.serialReference().flags()...); err == nil {
			err = diffObservables(o.result, ref.stdout)
		}
	}
	if err != nil {
		d.kill()
		return nil, nil, fmt.Errorf("warm-up job: %w", err)
	}
	return d, batch, nil
}

// runE2E dispatches one end-to-end run.
func (e *env) runE2E(wl string, seed uint64, seconds float64) *runReport {
	if wl == wlService {
		return e.runService(seed, seconds)
	}
	return e.runCLI(wl, seed, seconds)
}
