package cluster

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/resilience"
	"repro/internal/sched"
)

// sweepFixture is a deterministic stand-in for a (bias, k, E) sweep whose
// "observable" is a per-task float64 accumulated into a results slice —
// enough structure to assert bitwise-identical recovery.
type sweepFixture struct {
	nBias, nK, nE int
	mu            sync.Mutex
	results       []float64
}

func newFixture(nBias, nK, nE int) *sweepFixture {
	return &sweepFixture{nBias: nBias, nK: nK, nE: nE, results: make([]float64, nBias*nK*nE)}
}

func (f *sweepFixture) idx(t Task) int { return (t.Bias*f.nK+t.K)*f.nE + t.E }

// value is the deterministic per-task observable.
func (f *sweepFixture) value(t Task) float64 {
	i := f.idx(t)
	return math.Sin(float64(i)*0.7) + float64(t.Bias) - 0.25*float64(t.K)
}

func (f *sweepFixture) fn(_ context.Context, t Task) ([]byte, error) {
	v := f.value(t)
	f.mu.Lock()
	f.results[f.idx(t)] = v
	f.mu.Unlock()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	return b[:], nil
}

func (f *sweepFixture) restore(t Task, payload []byte) error {
	if len(payload) != 8 {
		return errors.New("bad payload length")
	}
	f.results[f.idx(t)] = math.Float64frombits(binary.LittleEndian.Uint64(payload))
	return nil
}

func fastRetry(attempts int) resilience.Policy {
	return resilience.Policy{MaxAttempts: attempts, BaseDelay: 1, MaxDelay: 1}
}

// TestFaultDrillRetriesToCompletion is the first acceptance drill: with
// 10% injected task failures — mixed errors and panics — a full sweep
// completes via retries and reproduces the fault-free observables
// bitwise.
func TestFaultDrillRetriesToCompletion(t *testing.T) {
	clean := newFixture(2, 3, 40)
	if _, err := RunTasksResumable(context.Background(), 2, 3, 40, SweepOptions{}, clean.fn); err != nil {
		t.Fatalf("fault-free run: %v", err)
	}

	inj := &resilience.Injector{Seed: 2024, Rate: 0.1}
	faulty := 0
	for i := 0; i < 2*3*40; i++ {
		if inj.FaultFor(i) != resilience.FaultNone {
			faulty++
		}
	}
	if faulty == 0 {
		t.Fatal("drill has no faulty tasks; pick a different seed")
	}

	drilled := newFixture(2, 3, 40)
	rep, err := RunTasksResumable(context.Background(), 2, 3, 40, SweepOptions{
		Pool:     sched.New(4),
		Retry:    fastRetry(3),
		Injector: inj,
	}, drilled.fn)
	if err != nil {
		t.Fatalf("drilled run did not survive 10%% faults: %v", err)
	}
	if rep.Retries < faulty {
		t.Fatalf("report counts %d retries for %d faulty tasks", rep.Retries, faulty)
	}
	if rep.Completed != rep.Total {
		t.Fatalf("completed %d/%d", rep.Completed, rep.Total)
	}
	for i := range clean.results {
		if clean.results[i] != drilled.results[i] {
			t.Fatalf("observable %d differs: %v vs %v", i, clean.results[i], drilled.results[i])
		}
	}
}

// TestKillAndResumeBitwiseIdentical is the second acceptance drill: fault
// injection plus a mid-sweep kill; resuming from the journal reruns only
// the unfinished tasks and the final observables match an uninterrupted
// fault-free run bit for bit.
func TestKillAndResumeBitwiseIdentical(t *testing.T) {
	const nBias, nK, nE = 2, 2, 30
	total := nBias * nK * nE
	clean := newFixture(nBias, nK, nE)
	if _, err := RunTasksResumable(context.Background(), nBias, nK, nE, SweepOptions{}, clean.fn); err != nil {
		t.Fatalf("fault-free run: %v", err)
	}

	path := filepath.Join(t.TempDir(), "sweep.journal")
	inj := &resilience.Injector{Seed: 7, Rate: 0.1}

	// First run: killed (context canceled) once half the sweep completed.
	j1, err := OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	first := newFixture(nBias, nK, nE)
	_, err = RunTasksResumable(ctx, nBias, nK, nE, SweepOptions{
		Pool:     sched.New(4),
		Journal:  j1,
		Restore:  first.restore,
		Retry:    fastRetry(3),
		Injector: inj,
		OnProgress: func(done, tot int) {
			if done >= tot/2 {
				cancel()
			}
		},
	}, first.fn)
	cancel()
	j1.Close()
	if err == nil {
		t.Fatal("killed run reported success")
	}

	// Second run: resume from the journal with the same injection drill.
	j2, err := OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	resumed := newFixture(nBias, nK, nE)
	rep, err := RunTasksResumable(context.Background(), nBias, nK, nE, SweepOptions{
		Pool:     sched.New(4),
		Journal:  j2,
		Restore:  resumed.restore,
		Retry:    fastRetry(3),
		Injector: inj,
	}, resumed.fn)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if rep.Restored == 0 {
		t.Fatal("resume restored nothing — the kill left no checkpoint")
	}
	if rep.Restored+rep.Completed != total {
		t.Fatalf("restored %d + completed %d != total %d", rep.Restored, rep.Completed, total)
	}
	if rep.Completed == 0 {
		t.Fatal("resume had no work left; kill came too late to exercise restart")
	}
	for i := range clean.results {
		if clean.results[i] != resumed.results[i] {
			t.Fatalf("observable %d differs after resume: %v vs %v", i, clean.results[i], resumed.results[i])
		}
	}
}

// TestQuarantineDegradesGracefully: tasks whose faults never heal are set
// aside after the retry budget, the sweep completes, and the quarantined
// set names exactly the faulty tasks.
func TestQuarantineDegradesGracefully(t *testing.T) {
	const nBias, nK, nE = 1, 2, 50
	inj := &resilience.Injector{Seed: 31, Rate: 0.08, FailuresPerTask: 1 << 20} // hard faults
	f := newFixture(nBias, nK, nE)
	rep, err := RunTasksResumable(context.Background(), nBias, nK, nE, SweepOptions{
		Pool:       sched.New(4),
		Retry:      fastRetry(2),
		Injector:   inj,
		Quarantine: true,
	}, f.fn)
	if err != nil {
		t.Fatalf("quarantined sweep failed outright: %v", err)
	}
	want := make(map[int]bool)
	for i := 0; i < nBias*nK*nE; i++ {
		if inj.FaultFor(i) != resilience.FaultNone {
			want[i] = true
		}
	}
	if len(want) == 0 {
		t.Fatal("no hard faults injected; pick a different seed")
	}
	got := rep.QuarantinedSet(nK, nE)
	if len(got) != len(want) {
		t.Fatalf("quarantined %d tasks, want %d", len(got), len(want))
	}
	for i := range want {
		if !got[i] {
			t.Fatalf("faulty task %d missing from quarantine set", i)
		}
	}
	if n := rep.Restored + rep.Completed + len(rep.Quarantined); n != rep.Total {
		t.Fatalf("accounting: %d restored + %d completed + %d quarantined = %d of %d",
			rep.Restored, rep.Completed, len(rep.Quarantined), n, rep.Total)
	}
	// Healthy observables are untouched by their quarantined neighbors.
	for i := range f.results {
		if want[i] {
			continue
		}
		if f.results[i] != f.value(TaskAt(i, nK, nE)) {
			t.Fatalf("surviving observable %d corrupted", i)
		}
	}
}

// TestQuarantineBudgetCapsLoss: a sweep losing more than a quarter of its
// tasks must fail rather than silently renormalize away its grid.
func TestQuarantineBudgetCapsLoss(t *testing.T) {
	inj := &resilience.Injector{Seed: 5, Rate: 1, FailuresPerTask: 1 << 20, Modes: []resilience.Fault{resilience.FaultError}}
	f := newFixture(1, 1, 40)
	_, err := RunTasksResumable(context.Background(), 1, 1, 40, SweepOptions{
		Pool:       sched.New(2),
		Retry:      fastRetry(2),
		Injector:   inj,
		Quarantine: true,
	}, f.fn)
	if err == nil {
		t.Fatal("sweep losing 100% of its tasks passed a 25% quarantine budget")
	}
}

// TestResumableWithoutRetriesSurfacesPanicError: the safety net under the
// retry layer — a panicking task fails the sweep as a typed error, not a
// crash.
func TestResumableWithoutRetriesSurfacesPanicError(t *testing.T) {
	inj := &resilience.Injector{Seed: 3, Rate: 1, Modes: []resilience.Fault{resilience.FaultPanic}}
	f := newFixture(1, 1, 8)
	_, err := RunTasksResumable(context.Background(), 1, 1, 8, SweepOptions{
		Pool:     sched.New(2),
		Injector: inj,
	}, f.fn)
	if err == nil {
		t.Fatal("panicking sweep reported success")
	}
	var pe *resilience.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("panic not preserved in %v", err)
	}
}

func TestFileJournalToleratesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.journal")
	j, err := OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := j.Append(TaskRecord{Index: i, Payload: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	// Simulate a writer killed mid-line plus a digest-corrupted record.
	fh, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	fh.WriteString(`{"idx":9,"payload":"AA==","sha":"deadbeef"}` + "\n")
	fh.WriteString(`{"idx":10,"payl`) // torn tail
	fh.Close()

	j2, err := OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	recs, err := j2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("loaded %d records, want the 5 intact ones", len(recs))
	}
	for i, rec := range recs {
		if rec.Index != i || !rec.Verify() {
			t.Fatalf("record %d mangled: %+v", i, rec)
		}
	}
}

func TestMemJournalRoundTrip(t *testing.T) {
	j := &MemJournal{}
	if err := j.Append(TaskRecord{Index: 2, Payload: []byte("xy")}); err != nil {
		t.Fatal(err)
	}
	recs, err := j.Load()
	if err != nil || len(recs) != 1 || recs[0].Index != 2 || !recs[0].Verify() {
		t.Fatalf("round trip: %v %v", recs, err)
	}
	if j.Len() != 1 {
		t.Fatalf("Len = %d", j.Len())
	}
}

// TestResumableRejectsOutOfRangeRecords: records from a journal written
// for a different sweep shape must not crash or pollute the run.
func TestResumableRejectsOutOfRangeRecords(t *testing.T) {
	j := &MemJournal{}
	j.Append(TaskRecord{Index: -4, Payload: []byte{0, 0, 0, 0, 0, 0, 0, 0}})
	j.Append(TaskRecord{Index: 999, Payload: []byte{0, 0, 0, 0, 0, 0, 0, 0}})
	f := newFixture(1, 1, 4)
	rep, err := RunTasksResumable(context.Background(), 1, 1, 4, SweepOptions{
		Journal: j,
		Restore: f.restore,
	}, f.fn)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Restored != 0 || rep.Completed != 4 {
		t.Fatalf("foreign records restored: %+v", rep)
	}
}
