package core

import (
	"context"
	"path/filepath"
	"testing"

	"repro/internal/cluster"
	"repro/internal/device"
	"repro/internal/perf"
	"repro/internal/resilience"
	"repro/internal/sched"
	"repro/internal/transport"
)

func chainSim(t *testing.T, cells int) *Simulator {
	t.Helper()
	sim, err := New(device.Description{
		Name: "chain", Kind: device.Chain, CellsX: cells,
	}, transport.Config{Pool: sched.New(4)})
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

func fastPolicy(attempts int) resilience.Policy {
	return resilience.Policy{MaxAttempts: attempts, BaseDelay: 1, MaxDelay: 1}
}

// TestTransmissionResumableMatchesPlain: without faults or journal, the
// resumable path reproduces a plain per-point evaluation exactly.
func TestTransmissionResumableMatchesPlain(t *testing.T) {
	sim := chainSim(t, 10)
	grid := transport.UniformGrid(-1.8, 1.8, 25)
	sweep, err := sim.TransmissionResumable(context.Background(), grid, nil, cluster.SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep.Energies) != len(grid) || len(sweep.T) != len(grid) {
		t.Fatalf("sweep dropped points without quarantine: %d of %d", len(sweep.T), len(grid))
	}
	plain, err := sim.Transmission(context.Background(), grid, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range grid {
		// Single-k device: the averages are the same sum in both paths.
		if sweep.T[i] != plain[i] {
			t.Fatalf("E=%g: resumable %g != plain %g", grid[i], sweep.T[i], plain[i])
		}
	}
	if sweep.Report.Completed != len(grid) {
		t.Fatalf("report: %+v", sweep.Report)
	}
}

// TestTransmissionResumableFullDrill is the end-to-end acceptance drill on
// a real device: 10% injected mixed faults, a mid-sweep kill, then resume
// from the journal — final observables bitwise-identical to an
// uninterrupted fault-free run, with only the unfinished tasks rerun.
func TestTransmissionResumableFullDrill(t *testing.T) {
	sim := chainSim(t, 10)
	grid := transport.UniformGrid(-1.8, 1.8, 40)

	reference, err := sim.TransmissionResumable(context.Background(), grid, nil, cluster.SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "drill.journal")
	inj := &resilience.Injector{Seed: 11, Rate: 0.1}

	j1, err := cluster.OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	killed, err := sim.TransmissionResumable(ctx, grid, nil, cluster.SweepOptions{
		Journal:  j1,
		Retry:    fastPolicy(4),
		Injector: inj,
		OnProgress: func(done, total int) {
			if done >= total/2 {
				cancel()
			}
		},
	})
	cancel()
	j1.Close()
	if err == nil {
		t.Fatal("killed run reported success")
	}
	if killed.Report == nil {
		t.Fatal("killed run carried no report for the progress summary")
	}

	j2, err := cluster.OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	resumed, err := sim.TransmissionResumable(context.Background(), grid, nil, cluster.SweepOptions{
		Journal:  j2,
		Retry:    fastPolicy(4),
		Injector: inj,
	})
	if err != nil {
		t.Fatalf("resumed drill: %v", err)
	}
	rep := resumed.Report
	if rep.Restored == 0 || rep.Completed == 0 {
		t.Fatalf("resume did not split work: %+v", rep)
	}
	if rep.Restored+rep.Completed != len(grid) {
		t.Fatalf("accounting: restored %d + completed %d != %d", rep.Restored, rep.Completed, len(grid))
	}
	if len(resumed.T) != len(reference.T) {
		t.Fatalf("grids differ: %d vs %d points", len(resumed.T), len(reference.T))
	}
	for i := range reference.T {
		if resumed.T[i] != reference.T[i] {
			t.Fatalf("E=%g: resumed %v != fault-free %v (not bitwise-identical)",
				reference.Energies[i], resumed.T[i], reference.T[i])
		}
	}
}

// TestTransmissionResumableQuarantine: hard faults at some (k,E) points
// drop out and the momentum average renormalizes over the survivors.
func TestTransmissionResumableQuarantine(t *testing.T) {
	sim := chainSim(t, 8)
	grid := transport.UniformGrid(-1.5, 1.5, 30)
	inj := &resilience.Injector{Seed: 9, Rate: 0.1, FailuresPerTask: 1 << 20,
		Modes: []resilience.Fault{resilience.FaultError}}
	sweep, err := sim.TransmissionResumable(context.Background(), grid, nil, cluster.SweepOptions{
		Retry:      fastPolicy(2),
		Injector:   inj,
		Quarantine: true,
	})
	if err != nil {
		t.Fatalf("quarantined sweep failed: %v", err)
	}
	q := len(sweep.Report.Quarantined)
	if q == 0 {
		t.Fatal("drill quarantined nothing; pick a different seed")
	}
	// Single-k device: each quarantined (k,E) removes that energy point.
	if len(sweep.Energies) != len(grid)-q {
		t.Fatalf("expected %d surviving points, got %d", len(grid)-q, len(sweep.Energies))
	}
	reference, err := sim.Transmission(context.Background(), grid, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := make(map[float64]float64, len(grid))
	for i, e := range grid {
		ref[e] = reference[i]
	}
	for i, e := range sweep.Energies {
		if sweep.T[i] != ref[e] {
			t.Fatalf("surviving point E=%g corrupted: %v != %v", e, sweep.T[i], ref[e])
		}
	}
}

// TestSerialResumeFlopsExact: the local engine journals each task's perf
// delta like the coordinator does, so on a width-1 pool a sweep killed
// part-way and resumed reports — as its own delta plus the journal's
// (Report.Perf) — exactly the flops of an uninterrupted run, and a
// second resume, which replays every task, the same total from zero new
// solves.
func TestSerialResumeFlopsExact(t *testing.T) {
	grid := transport.UniformGrid(-1.8, 1.8, 40)
	run := func(ctx context.Context, j cluster.Checkpointer, onProgress func(done, total int)) (*cluster.SweepReport, int64, error) {
		sim := chainSim(t, 10)
		before := perf.TakeSnapshot()
		sweep, err := sim.TransmissionResumable(ctx, grid, nil, cluster.SweepOptions{
			Pool: sched.New(1), Journal: j, OnProgress: onProgress,
		})
		d := perf.TakeSnapshot().Diff(before)
		d.Add(sweep.Report.Perf)
		return sweep.Report, d.Flops, err
	}

	_, want, err := run(context.Background(), nil, nil)
	if err != nil || want == 0 {
		t.Fatalf("uninterrupted run: %d flops, err %v", want, err)
	}

	j := &cluster.MemJournal{}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if _, _, err := run(ctx, j, func(done, total int) {
		if done >= total/3 {
			cancel()
		}
	}); err == nil {
		t.Fatal("killed run reported success")
	}

	rep, got, err := run(context.Background(), j, nil)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if rep.Restored == 0 || rep.Completed == 0 {
		t.Fatalf("resume did not split work: %+v", rep)
	}
	if got != want {
		t.Fatalf("resumed run reports %d flops (%d of them from the journal), the uninterrupted run %d", got, rep.Perf.Flops, want)
	}

	rep, got, err = run(context.Background(), j, nil)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if rep.Completed != 0 || rep.Restored != len(grid) {
		t.Fatalf("second resume solved again: %+v", rep)
	}
	if got != want {
		t.Fatalf("replay reports %d flops, the uninterrupted run %d", got, want)
	}
}

// TestTransmissionLaneGroupsCountPerTask: a transmission sweep run through
// the lane groups of the local engine on a 1-wide pool journals, for every
// task, the flops its solo solve counts, and the T its solo solve returns,
// bit for bit — in both formalisms, over an AGNR-7 grid whose energies
// finish their decimations at different iterations, including the one
// whose eliminated decimation overflows and reruns whole.
func TestTransmissionLaneGroupsCountPerTask(t *testing.T) {
	desc, _ := device.Lookup("agnr7")
	desc.CellsX = 6
	grid := append(transport.UniformGrid(-3, 3, 21), 1.3976219674314385, 1.3976, 0.25)
	for _, f := range []transport.Formalism{transport.WaveFunction, transport.NEGFRGF} {
		sim, err := New(desc, transport.Config{Formalism: f, Pool: sched.New(1)})
		if err != nil {
			t.Fatal(err)
		}
		journal := &cluster.MemJournal{}
		sweep, err := sim.TransmissionResumable(context.Background(), grid, nil, cluster.SweepOptions{Journal: journal})
		if err != nil {
			t.Fatal(err)
		}
		recs, err := journal.Load()
		if err != nil {
			t.Fatal(err)
		}
		h, err := sim.Hamiltonian(nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := transport.NewEngine(h, sim.Transport)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			e := grid[rec.Index]
			perf.ResetFlops()
			tv, err := eng.TransmissionAt(context.Background(), e)
			if err != nil {
				t.Fatal(err)
			}
			if solo := perf.ResetFlops(); rec.Perf.Flops != solo {
				t.Fatalf("%v E=%g: the sweep journaled %d flops, the solo solve counts %d", f, e, rec.Perf.Flops, solo)
			}
			if tv != sweep.T[rec.Index] {
				t.Fatalf("%v E=%g: the sweep's T %v, the solo solve's %v", f, e, sweep.T[rec.Index], tv)
			}
		}
	}
}
