//go:build layertrace

package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// Direct probes: each times one layer's public calls on the workload's
// own Hamiltonian and a 64-energy sample, or on records and frames of
// the size the workload produces. They run in the same process as the
// traced units, after them.

const probeEnergies = 64

// timeEach runs fn n times and returns the median duration of one call.
func timeEach(n int, fn func(i int) error) (time.Duration, error) {
	ds := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		st := time.Now()
		if err := fn(i); err != nil {
			return 0, err
		}
		ds = append(ds, float64(time.Since(st)))
	}
	return time.Duration(median(ds)), nil
}

// energySample picks probeEnergies energies: evenly spaced members of
// the unit's own grid (energies a unit has already solved), or, for a
// unit without an energy grid (iv), of the bias window's neighbourhood.
func energySample(grid []float64) []float64 {
	es := make([]float64, probeEnergies)
	for i := range es {
		if len(grid) > 0 {
			es[i] = grid[i*len(grid)/probeEnergies]
		} else {
			es[i] = -1 + 2*(float64(i)+0.5)/probeEnergies
		}
	}
	return es
}

// probeSpec times RunSpec parsing+validation, hashing and Build.
func probeSpec(rep *runReport, body []byte, s runSpec) error {
	d, err := timeEach(200, func(int) error {
		p, err := specParse(body)
		if err != nil {
			return err
		}
		return p.ValidateFor(roleLocal)
	})
	if err != nil {
		return err
	}
	rep.set("spec.parse_validate_us", us(d), "us")
	var sink string
	d, _ = timeEach(200, func(int) error { sink = s.SpecHash(); return nil })
	_ = sink
	rep.set("spec.hash_us", us(d), "us")
	d, err = timeEach(5, func(int) error { _, err := specBuild(s); return err })
	rep.set("spec.build_ms", ms(d), "ms")
	return err
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// probeKernels times Hamiltonian assembly, the σ-cache miss and hit
// paths, and the formalism's single-energy solve with warm contacts.
// Only the solver the workload uses is probed; the other reports 0.
func probeKernels(rep *runReport, s runSpec) (blockN int, err error) {
	b, err := specBuild(s)
	if err != nil {
		return 0, err
	}
	var h *blockTridiag
	var allocs []float64
	d, err := timeEach(5, func(int) error {
		var herr error
		_, bytes := memDelta(func() { h, herr = b.Sim.Hamiltonian(nil, 0) })
		allocs = append(allocs, float64(bytes))
		return herr
	})
	if err != nil {
		return 0, err
	}
	rep.set("tb.assemble_ms", ms(d), "ms")
	rep.set("tb.assemble_alloc_bytes", median(allocs), "B")
	blockN = h.LayerSize(0)

	const eta = 1e-6 // transport.Config's default broadening
	es := energySample(b.Grid)
	leads, err := leadsFromDev(h)
	if err != nil {
		return blockN, err
	}
	cache := newSigmaCache()
	sigma := func(i int) error {
		_, _, err := cache.SelfEnergies(leads, complex(es[i], eta))
		return err
	}
	if d, err = timeEach(len(es), sigma); err != nil {
		return blockN, err
	}
	rep.set("negf.sigma_miss_ms", ms(d), "ms")
	if d, err = timeEach(len(es), sigma); err != nil {
		return blockN, err
	}
	rep.set("negf.sigma_hit_us", us(d), "us")

	// The solvers below share the warm cache (leads are keyed by block
	// fingerprint), so what is timed is the solve, not the contacts.
	rep.set("negf.rgf_solve_ms", 0, "ms")
	rep.set("negf.rgf_density_solve_ms", 0, "ms")
	rep.set("wavefunction.solve_ms", 0, "ms")
	rep.set("wavefunction.new_solver_ms", 0, "ms")
	if s.Solver.Formalism == "negf" {
		gf, err := newRGFSolver(h, eta)
		if err != nil {
			return blockN, err
		}
		gf.Cache = cache
		for _, density := range []bool{false, true} {
			d, err := timeEach(len(es), func(i int) error { _, err := gf.Solve(es[i], density); return err })
			if err != nil {
				return blockN, err
			}
			name := "negf.rgf_solve_ms"
			if density {
				name = "negf.rgf_density_solve_ms"
			}
			rep.set(name, ms(d), "ms")
		}
		return blockN, nil
	}
	d, err = timeEach(5, func(int) error { _, err := newWFSolver(h, eta); return err })
	if err != nil {
		return blockN, err
	}
	rep.set("wavefunction.new_solver_ms", ms(d), "ms")
	wf, err := newWFSolver(h, eta)
	if err != nil {
		return blockN, err
	}
	wf.Cache = cache
	d, err = timeEach(len(es), func(i int) error { _, err := wf.Solve(es[i], false); return err })
	rep.set("wavefunction.solve_ms", ms(d), "ms")
	return blockN, err
}

// llcBytes reads the size of cpu0's last-level cache from sysfs.
func llcBytes() int64 {
	var best int64
	for i := 0; i < 8; i++ {
		b, err := os.ReadFile(fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/size", i))
		if err != nil {
			break
		}
		s := strings.TrimSpace(string(b))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if n, err := strconv.ParseInt(s, 10, 64); err == nil && n*mult > best {
			best = n * mult
		}
	}
	return best
}

func memAvailableBytes() int64 { return procKB("/proc/meminfo", "MemAvailable:") << 10 }

// bigFloats maps n float64s of anonymous memory outside the Go heap and
// asks for transparent huge pages: first-touching gigabytes through 4 KiB
// faults costs this probe tens of seconds in a VM, and unmapping returns
// the memory the moment the probe is done. Falls back to the heap.
func bigFloats(n int) ([]float64, func()) {
	raw, err := syscall.Mmap(-1, 0, n*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return make([]float64, n), func() {}
	}
	_ = syscall.Madvise(raw, 14) // MADV_HUGEPAGE; without it the probe is only slower
	return unsafe.Slice((*float64)(unsafe.Pointer(&raw[0])), n), func() { _ = syscall.Munmap(raw) }
}

// probeMachine measures this box's two roofline parameters in the same
// process as the traced run: sustainable memory bandwidth (STREAM triad
// a = b + s·c over all CPUs, each array at least 4× the last-level
// cache) and the dense complex product rate of linalg.GemmInto at
// n=256.
func probeMachine(rep *runReport) {
	t0 := time.Now()
	defer func() { rep.note("machine probes took %.2f s", time.Since(t0).Seconds()) }()
	llc := llcBytes()
	if llc == 0 {
		llc = 32 << 20
		rep.note("last-level cache size unreadable; assuming 32 MiB")
	}
	arrayB := 4 * llc
	// Three arrays; never take more than a quarter of what is available.
	if avail := memAvailableBytes(); avail > 0 && 3*arrayB > avail/4 {
		arrayB = avail / 12
		rep.note("STREAM arrays capped at %d MiB by available memory: below 4× the %d MiB last-level cache",
			arrayB>>20, llc>>20)
	}
	n := int(arrayB / 8)
	a, freeA := bigFloats(n)
	b, freeB := bigFloats(n)
	c, freeC := bigFloats(n)
	defer func() { freeA(); freeB(); freeC() }()
	procs := runtime.GOMAXPROCS(0)
	// each runs fn on every thread's slice of the arrays; the first pass
	// is also the first touch, done by the thread that will use the pages.
	each := func(fn func(aa, bb, cc []float64)) time.Duration {
		st := time.Now()
		var wg sync.WaitGroup
		for p := 0; p < procs; p++ {
			lo, hi := p*n/procs, (p+1)*n/procs
			wg.Add(1)
			go func() {
				defer wg.Done()
				fn(a[lo:hi], b[lo:hi], c[lo:hi])
			}()
		}
		wg.Wait()
		return time.Since(st)
	}
	each(func(aa, bb, cc []float64) {
		for i := range aa {
			aa[i], bb[i], cc[i] = 0, 1, 2
		}
	})
	triad := func() time.Duration {
		return each(func(aa, bb, cc []float64) {
			for i := range aa {
				aa[i] = bb[i] + 3*cc[i]
			}
		})
	}
	best := triad()
	if d := triad(); d < best {
		best = d
	}
	gbs := 3 * float64(n) * 8 / best.Seconds() / 1e9
	rep.set("linalg.stream_probe_gbs", gbs, "GB/s")
	rep.set("linalg.stream_array_mb", float64(arrayB)/(1<<20), "MB")
	rep.set("linalg.llc_mb", float64(llc)/(1<<20), "MB")
	rep.note("STREAM triad: 3 arrays of %d MiB each against a %d MiB last-level cache, %d threads",
		arrayB>>20, llc>>20, procs)

	const gn = 256
	x, y, z := newMatrix(gn, gn), newMatrix(gn, gn), newMatrix(gn, gn)
	for i := range x.Data {
		x.Data[i] = complex(float64(i%7)+1, float64(i%5))
		y.Data[i] = complex(float64(i%3)+1, -float64(i%11))
	}
	gemmInto(z, 1, x, noTrans, y, noTrans, 0) // warm
	var bestG time.Duration
	for i := 0; i < 3; i++ {
		st := time.Now()
		gemmInto(z, 1, x, noTrans, y, noTrans, 0)
		if d := time.Since(st); bestG == 0 || d < bestG {
			bestG = d
		}
	}
	// 8 real flops per complex multiply-add.
	gflops := 8 * float64(gn) * gn * gn / bestG.Seconds() / 1e9
	rep.set("linalg.zgemm_probe_gflops", gflops, "GFlop/s")
	rep.set("linalg.machine_balance_bytes_per_flop", gbs/gflops, "B/flop")
}

// journalRecord is a record of the shape a coordinator commits: an
// 8-byte payload and a per-task perf delta.
func journalRecord(i int, d perfSnapshot) taskRecord {
	return taskRecord{Index: i, Payload: []byte{1, 2, 3, 4, 5, 6, 7, byte(i)}, Perf: &d}
}

// probeJournal times the journal's write and read paths on records of
// the shape the workload commits: Append without and with fsync, Load
// of a complete journal, and an idle Tail.Poll.
func probeJournal(rep *runReport, dir string, delta perfSnapshot) error {
	const n = 512
	for _, fsync := range []bool{false, true} {
		path := filepath.Join(dir, fmt.Sprintf("probe-%v.journal", fsync))
		var j *fileJournal
		var err error
		if fsync {
			j, err = openFileJournal(path, withFsync())
		} else {
			j, err = openFileJournal(path)
		}
		if err != nil {
			return err
		}
		d, err := timeEach(n, func(i int) error { return j.Append(journalRecord(i, delta)) })
		if err != nil {
			j.Close()
			return err
		}
		if !fsync {
			rep.set("cluster.append_us", us(d), "us")
			j.Close()
			continue
		}
		rep.set("cluster.append_fsync_us", us(d), "us")
		ld, err := timeEach(5, func(int) error {
			recs, err := j.Load()
			if err == nil && len(recs) != n {
				err = fmt.Errorf("journal probe: loaded %d of %d records", len(recs), n)
			}
			return err
		})
		j.Close()
		if err != nil {
			return err
		}
		rep.set("cluster.load_ms_per_kpoint", ms(ld)*1000/n, "ms")
		tail := newTail(path)
		if _, err := tail.Poll(); err != nil {
			return err
		}
		pd, err := timeEach(1000, func(int) error { _, err := tail.Poll(); return err })
		if err != nil {
			return err
		}
		rep.set("cluster.tail_poll_us", us(pd), "us")
	}
	return nil
}

// probeWire times one binary frame of a batched result upload's size
// through comms.Codec over loopback TCP: SendBin on one side, Recv on
// the other.
func probeWire(rep *runReport, frameBytes int) error {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer lis.Close()
	const n = 2000
	payload := make([]byte, max(frameBytes, 16))
	recvDone := make(chan error, 1)
	var recvTotal time.Duration
	go func() {
		c, err := lis.Accept()
		if err != nil {
			recvDone <- err
			return
		}
		defer c.Close()
		cd := newCodec(c)
		for i := 0; i < n; i++ {
			st := time.Now()
			if _, _, err := cd.Recv(); err != nil {
				recvDone <- err
				return
			}
			recvTotal += time.Since(st)
			// Acknowledge, so the sender's next frame is a fresh round:
			// Recv then times a frame that is already on its way.
			if err := cd.SendBin(msgType(1), func(w *binWriter) { w.Byte(1) }); err != nil {
				recvDone <- err
				return
			}
		}
		recvDone <- nil
	}()
	c, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		return err
	}
	defer c.Close()
	cd := newCodec(c)
	var sendTotal time.Duration
	for i := 0; i < n; i++ {
		st := time.Now()
		if err := cd.SendBin(msgType(1), func(w *binWriter) { w.Blob(payload) }); err != nil {
			return err
		}
		sendTotal += time.Since(st)
		if _, _, err := cd.Recv(); err != nil {
			return err
		}
	}
	if err := <-recvDone; err != nil {
		return err
	}
	rep.set("comms.send_us", us(sendTotal)/n, "us")
	rep.set("comms.recv_us", us(recvTotal)/n, "us")
	return nil
}

// probeFabric measures the fabric with the solve taken out: a
// constant-payload task through Serve and one RunWorker, without and
// with an fsynced journal, and the lease round-trip seen from the
// worker's connection.
func probeFabric(ctx context.Context, rep *runReport, dir string) error {
	const tasks = 2000
	m := newFabricMeter(nil, 0, 1, tasks)
	r, wall, err := noopFabric(ctx, tasks, nil, m)
	if err != nil {
		return err
	}
	rep.set("distrib.noop_task_us", us(wall)/tasks, "us")
	grants := r.Perf.Counters["lease-grants"]
	if grants > 0 {
		// Time the worker spent blocked on its connection per lease grant.
		rep.set("distrib.lease_rtt_us", us(m.workerWait)/float64(grants), "us")
	}
	j, err := openFileJournal(filepath.Join(dir, "noop.journal"), withFsync())
	if err != nil {
		return err
	}
	defer j.Close()
	if _, wall, err = noopFabric(ctx, tasks/4, j, nil); err != nil {
		return err
	}
	rep.set("distrib.noop_task_journal_us", us(wall)/(tasks/4), "us")
	return nil
}
