package run

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/perf"
	"repro/internal/spec"
)

// The test binary answers the re-exec spawner's command line the way omen
// and omend do, so the lifecycle tests run real worker processes through
// ReExec. In-process workers would share this process's perf counters,
// their per-task deltas would overlap, and `# flops` could not be exact.
var (
	workerAddr = flag.String("worker", "", "internal: run as a sweep worker dialing this address")
	specJSON   = flag.String("spec-json", "", "internal: inline JSON spec for -worker")
)

func TestMain(m *testing.M) {
	flag.Parse()
	if *workerAddr != "" {
		s, err := spec.Parse([]byte(*specJSON))
		if err == nil {
			err = Work(context.Background(), s, *workerAddr)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "run.test worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// testSpec is `omen -device agnr7 -cellsx 6 -ne 64` with the given
// self-spawned worker count and journal.
func testSpec(workers int, journal string, resume bool) spec.RunSpec {
	s := spec.Default()
	s.Device.CellsX = 6
	s.Grid.NE = 64
	s.Exec.Workers = workers
	s.Resilience.Checkpoint = journal
	s.Resilience.Resume = resume
	return s
}

func build(t *testing.T, s spec.RunSpec) *spec.Built {
	t.Helper()
	b, err := spec.Build(s)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return b
}

// serialText is the serial engine's complete report of s: rows, `# flops`
// and `# sigma-cache`.
func serialText(t *testing.T, s spec.RunSpec) string {
	t.Helper()
	b := build(t, s)
	before := perf.TakeSnapshot()
	sweep, err := b.Sim.TransmissionResumable(context.Background(), b.Grid, nil, b.SweepOptions())
	if err != nil {
		t.Fatalf("serial sweep: %v", err)
	}
	var buf bytes.Buffer
	core.WriteSweep(&buf, sweep, perf.TakeSnapshot().Diff(before))
	return buf.String()
}

func outcomeText(out *Outcome) string {
	var buf bytes.Buffer
	core.WriteSweep(&buf, out.Sweep, out.Perf)
	return buf.String()
}

// countingSpawn wraps ReExec with a call counter.
func countingSpawn(n *atomic.Int32) SpawnFunc {
	return func(ctx context.Context, addr string, ws spec.RunSpec) error {
		n.Add(1)
		return ReExec(ctx, addr, ws)
	}
}

// journalState reads what a finished run left on disk: the file size,
// the latest epoch, and how many records each task has.
func journalState(t *testing.T, path string) (size int64, epoch uint64, perTask map[int]int) {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	j, err := cluster.OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if epoch, err = j.LatestEpoch(); err != nil {
		t.Fatal(err)
	}
	recs, err := j.Load()
	if err != nil {
		t.Fatal(err)
	}
	perTask = make(map[int]int)
	for _, rec := range recs {
		perTask[rec.Index]++
	}
	return fi.Size(), epoch, perTask
}

// TestCoordinateFreshThenReplay: a fresh 2-worker run over TCP prints
// the serial engine's bytes, `# flops` included; a second Coordinate over
// the finished journal replays it — no worker, no write, same sweep and
// perf.
func TestCoordinateFreshThenReplay(t *testing.T) {
	want := serialText(t, testSpec(1, "", false))
	path := filepath.Join(t.TempDir(), "sweep.journal")
	var spawned atomic.Int32
	hooks := Hooks{Addr: "127.0.0.1:0", Spawn: countingSpawn(&spawned), Logf: t.Logf}

	fresh, err := Coordinate(context.Background(), build(t, testSpec(2, path, false)), hooks)
	if err != nil {
		t.Fatalf("fresh run: %v", err)
	}
	if got := outcomeText(fresh); got != want {
		t.Fatalf("fresh distributed output differs from serial:\n got:\n%s\nwant:\n%s", got, want)
	}
	if fresh.Replayed || fresh.Workers != 2 || spawned.Load() != 2 || fresh.Epoch != 1 || fresh.RunID == "" {
		t.Fatalf("fresh outcome %+v after %d spawns, want 2 workers at epoch 1 with a RunID", fresh, spawned.Load())
	}
	size, epoch, _ := journalState(t, path)

	again, err := Coordinate(context.Background(), build(t, testSpec(2, path, true)), hooks)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if !again.Replayed || again.Workers != 0 || spawned.Load() != 2 {
		t.Fatalf("second run: replayed=%v workers=%d spawns=%d, want a replay with no new worker",
			again.Replayed, again.Workers, spawned.Load())
	}
	if again.RunID != fresh.RunID || again.Epoch != fresh.Epoch {
		t.Errorf("replay identity %s/%d, want the journal's %s/%d", again.RunID, again.Epoch, fresh.RunID, fresh.Epoch)
	}
	if size2, epoch2, _ := journalState(t, path); size2 != size || epoch2 != epoch {
		t.Errorf("replay touched the journal: %d bytes epoch %d, was %d bytes epoch %d", size2, epoch2, size, epoch)
	}
	wantReplay := "# resumed: 64/64 tasks restored from checkpoint\n" + want
	if got := outcomeText(again); got != wantReplay {
		t.Errorf("replayed output:\n%s\nwant:\n%s", got, wantReplay)
	}
	if again.Perf.Flops != fresh.Perf.Flops {
		t.Errorf("replayed flops %d != live flops %d", again.Perf.Flops, fresh.Perf.Flops)
	}
}

// TestCoordinateDrainThenResume: a drain that lands mid-run returns
// distrib.ErrDrained with a resumable journal, and the resumed run
// finishes to the serial bytes with exactly one record per task.
func TestCoordinateDrainThenResume(t *testing.T) {
	// The first committed result pulls the drain. A task of this spec takes
	// about 0.1 ms, and a loaded host can let the workers run dozens of
	// them before the first group commit lands, so the grid is ten times
	// the other tests': hundreds of tasks are still unleased then.
	drained := func(workers int, journal string, resume bool) spec.RunSpec {
		s := testSpec(workers, journal, resume)
		s.Grid.NE = 640
		return s
	}
	want := serialText(t, drained(1, "", false))
	path := filepath.Join(t.TempDir(), "sweep.journal")
	drain := make(chan struct{})
	var once sync.Once
	out, err := Coordinate(context.Background(), build(t, drained(2, path, false)), Hooks{
		Addr: "127.0.0.1:0", Spawn: ReExec, Drain: drain, Logf: t.Logf,
		OnResult: func(cluster.Task, []byte) { once.Do(func() { close(drain) }) },
	})
	if !errors.Is(err, distrib.ErrDrained) {
		t.Fatalf("drained run returned %v, want distrib.ErrDrained", err)
	}
	if out.Sweep != nil || out.Report == nil || out.Report.Completed == 0 || out.Report.Completed >= 640 {
		t.Fatalf("drained outcome %+v (report %+v), want a partial run with no sweep", out, out.Report)
	}

	out, err = Coordinate(context.Background(), build(t, drained(2, path, true)), Hooks{
		Addr: "127.0.0.1:0", Spawn: ReExec, Logf: t.Logf,
	})
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if out.Replayed || out.Epoch != 2 || out.Report.Restored == 0 {
		t.Fatalf("resumed outcome %+v (report %+v), want a live run at epoch 2 with restored tasks", out, out.Report)
	}
	got := outcomeText(out)
	resumed, rest, _ := strings.Cut(got, "\n")
	if !strings.HasPrefix(resumed, "# resumed: ") || rest != want {
		t.Fatalf("resumed output differs from serial:\n got:\n%s\nwant (after the # resumed line):\n%s", got, want)
	}
	_, _, perTask := journalState(t, path)
	if len(perTask) != 640 {
		t.Fatalf("journal covers %d tasks, want 640", len(perTask))
	}
	for idx, n := range perTask {
		if n != 1 {
			t.Errorf("task %d has %d journal records, want exactly 1", idx, n)
		}
	}
}

// TestCoordinateFailsThenResumes: a coordinator fails one way. A failed
// task ends the run with Serve's error, once, naming the task, and leaves
// the journal resumable at its epoch; the same spec resumed with the
// fault drill off (fault settings are unhashed) finishes at epoch 2 to
// the serial engine's bytes, `# flops` included.
func TestCoordinateFailsThenResumes(t *testing.T) {
	want := serialText(t, testSpec(1, "", false))
	path := filepath.Join(t.TempDir(), "sweep.journal")
	hooks := Hooks{Addr: "127.0.0.1:0", Spawn: ReExec, Logf: t.Logf}

	// Every task fails its first attempt, with no retry and no quarantine.
	failing := testSpec(2, path, false)
	failing.Resilience.FaultRate = 1
	failing.Resilience.MaxRetries = 0
	failing.Resilience.Quarantine = false
	out, err := Coordinate(context.Background(), build(t, failing), hooks)
	if err == nil || !regexp.MustCompile(`^distrib: task failed: task \d+ \(`).MatchString(err.Error()) {
		t.Fatalf("failing run returned %v, want a task failure naming the task", err)
	}
	if out.Sweep != nil || out.Epoch != 1 {
		t.Fatalf("failed outcome %+v, want no sweep at epoch 1", out)
	}
	if _, epoch, _ := journalState(t, path); epoch != 1 {
		t.Fatalf("journal epoch %d after the failure, want 1", epoch)
	}

	out, err = Coordinate(context.Background(), build(t, testSpec(2, path, true)), hooks)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if out.Replayed || out.Epoch != 2 {
		t.Fatalf("resumed outcome %+v, want a live run at epoch 2", out)
	}
	if _, epoch, _ := journalState(t, path); epoch != 2 {
		t.Errorf("journal epoch %d after the resume, want 2", epoch)
	}
	if got := outcomeText(out); got != want {
		t.Fatalf("resumed output differs from serial:\n got:\n%s\nwant:\n%s", got, want)
	}
}
