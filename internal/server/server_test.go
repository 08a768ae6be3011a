package server

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/perf"
	"repro/internal/spec"
)

// testSpec is a small, fast sweep: the 1D chain solves in milliseconds
// per energy point, which keeps the end-to-end tests snappy.
func testSpec(ne int) spec.RunSpec {
	s := spec.Default()
	s.Device.Name = "chain"
	s.Device.CellsX = 6
	s.Grid.NE = ne
	s.Grid.NK = 1
	s.Grid.EMin, s.Grid.EMax = -1, 1
	s.Exec.LeaseTimeout = spec.Duration(5 * time.Second)
	return s
}

// serialObservables computes the reference sweep in-process and renders
// it in omen's output format, returning only the observable rows (the
// byte-identity contract the service must honor).
func serialObservables(t *testing.T, s spec.RunSpec) []string {
	t.Helper()
	b, err := spec.Build(s)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	sweep, err := b.Sim.TransmissionResumable(context.Background(), b.Grid, nil, b.SweepOptions())
	if err != nil {
		t.Fatalf("serial sweep: %v", err)
	}
	var buf bytes.Buffer
	core.WriteSweep(&buf, sweep, perf.Snapshot{})
	return observableRows(buf.String())
}

// observableRows strips comment lines, leaving the E/T table.
func observableRows(text string) []string {
	var out []string
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			out = append(out, line)
		}
	}
	return out
}

// newTestManager builds a manager with in-process workers over a temp
// data dir.
func newTestManager(t *testing.T, dir string, mut func(*Config)) *Manager {
	t.Helper()
	cfg := Config{
		DataDir:        dir,
		MaxRunning:     1,
		DefaultWorkers: 1,
		SpawnWorker:    InProcessSpawner(),
		Logf:           t.Logf,
	}
	if mut != nil {
		mut(&cfg)
	}
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	t.Cleanup(m.Close)
	return m
}

// waitTerminal blocks until the job lands in a terminal state.
func waitTerminal(t *testing.T, j *Job) State {
	t.Helper()
	deadline := time.After(120 * time.Second)
	for {
		ch := j.changed()
		st := j.State()
		if terminal(st) {
			return st
		}
		select {
		case <-ch:
		case <-deadline:
			t.Fatalf("job %s stuck in %s", shortID(j.ID), st)
		}
	}
}

// TestSubmitRunResultStream drives the full happy path over HTTP:
// submit, run to completion on an in-process worker, fetch the result,
// and stream the journal — observables byte-identical to the serial
// engine, one SSE point per task.
func TestSubmitRunResultStream(t *testing.T) {
	s := testSpec(12)
	wantObs := serialObservables(t, s)

	m := newTestManager(t, t.TempDir(), nil)
	api := &API{M: m, Version: "test"}
	ts := httptest.NewServer(api.Handler())
	defer ts.Close()

	body, err := s.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202 (%+v)", resp.StatusCode, v)
	}
	if v.ID != s.SpecHash() {
		t.Fatalf("job ID %s != spec hash %s", v.ID, s.SpecHash())
	}

	j, ok := m.Job(v.ID)
	if !ok {
		t.Fatal("job missing from manager")
	}
	if st := waitTerminal(t, j); st != StateDone {
		t.Fatalf("job landed %s, want done (err %q)", st, j.view(true).Error)
	}

	// Status endpoint.
	resp, err = http.Get(ts.URL + "/v1/jobs/" + v.ID)
	if err != nil {
		t.Fatal(err)
	}
	var detail JobView
	if err := json.NewDecoder(resp.Body).Decode(&detail); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if detail.State != StateDone || detail.Done != 12 || detail.Total != 12 {
		t.Fatalf("detail = %+v, want done 12/12", detail)
	}
	if detail.Flops <= 0 || detail.Perf == nil {
		t.Fatalf("detail should carry perf (flops %d)", detail.Flops)
	}

	// Result endpoint: observables byte-identical to serial.
	resp, err = http.Get(ts.URL + "/v1/jobs/" + v.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result status = %d: %s", resp.StatusCode, text)
	}
	if got := observableRows(string(text)); !equalLines(got, wantObs) {
		t.Fatalf("result observables differ from serial:\n got %v\nwant %v", got, wantObs)
	}
	if !strings.Contains(string(text), "# cluster: ") {
		t.Fatal("result should carry the cluster summary comment")
	}

	// Stream endpoint: one point per task, then done.
	points, done := readStream(t, ts.URL+"/v1/jobs/"+v.ID+"/stream")
	if points != 12 {
		t.Fatalf("stream emitted %d points, want 12", points)
	}
	if done.State != StateDone {
		t.Fatalf("stream done event state = %s, want done", done.State)
	}

	// List endpoint includes it.
	resp, err = http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Jobs []JobView `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Jobs) != 1 || list.Jobs[0].ID != v.ID {
		t.Fatalf("list = %+v, want the one job", list.Jobs)
	}

	// Metrics carry the engine counters.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(metrics), "omend_flops_total") ||
		!strings.Contains(string(metrics), `omend_jobs{state="done"} 1`) {
		t.Fatalf("metrics missing expected series:\n%s", metrics)
	}
	// The coordinator's wire observability (frames/bytes moved, lease
	// grants) folds into the job's perf merge and must surface here next
	// to the engine counters.
	if !strings.Contains(string(metrics), `omend_counter_total{name="wire-bytes-sent"}`) ||
		!strings.Contains(string(metrics), `omend_counter_total{name="lease-grants"}`) {
		t.Fatalf("metrics missing wire counters:\n%s", metrics)
	}
}

// readStream consumes an SSE stream to its done event.
func readStream(t *testing.T, url string) (points int, done JobView) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content-type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch event {
			case "point":
				points++
			case "done":
				if err := json.Unmarshal([]byte(data), &done); err != nil {
					t.Fatalf("done event: %v", err)
				}
				return points, done
			}
		}
	}
	t.Fatalf("stream ended without done event (scan err %v)", sc.Err())
	return 0, done
}

func equalLines(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestDedupAndReplay: re-submitting a completed spec to the same
// manager is a 200 dedup hit; re-submitting it to a fresh manager over
// the same data directory replays the journal — done with zero new
// solves and the exact journaled flop total.
func TestDedupAndReplay(t *testing.T) {
	s := testSpec(8)
	dir := t.TempDir()

	m1 := newTestManager(t, dir, nil)
	j1, created, err := m1.Submit(s, "alice")
	if err != nil || !created {
		t.Fatalf("submit: created=%v err=%v", created, err)
	}
	if st := waitTerminal(t, j1); st != StateDone {
		t.Fatalf("first run landed %s (%s)", st, j1.view(true).Error)
	}
	liveFlops := j1.view(true).Flops

	// Same manager: dedup, not a new job.
	j1b, created, err := m1.Submit(s, "bob")
	if err != nil || created || j1b != j1 {
		t.Fatalf("dedup: created=%v err=%v same=%v", created, err, j1b == j1)
	}
	m1.Close()

	// Fresh manager, same data dir: replay from journal. No SpawnWorker
	// is configured at all — replay must not need one.
	m2 := newTestManager(t, dir, func(c *Config) { c.SpawnWorker = nil })
	j2, created, err := m2.Submit(s, "carol")
	if err != nil || !created {
		t.Fatalf("replay submit: created=%v err=%v", created, err)
	}
	if st := waitTerminal(t, j2); st != StateDone {
		t.Fatalf("replay landed %s (%s)", st, j2.view(true).Error)
	}
	v2 := j2.view(true)
	if !v2.Replayed || v2.Restored != 8 {
		t.Fatalf("replay view = %+v, want replayed with 8 restored", v2)
	}
	if v2.Flops != liveFlops {
		t.Fatalf("replayed flops %d != live flops %d (journaled perf must re-sum exactly)", v2.Flops, liveFlops)
	}
	// And the store lists it as a complete historical job even before
	// the replay submission.
	sj, ok := m2.store.Lookup(s.SpecHash())
	if !ok || !sj.Complete || sj.Total != 8 {
		t.Fatalf("store lookup = %+v ok=%v, want complete 8-task job", sj, ok)
	}
}

// TestLeaseTimeoutIsOneJob: two POSTs that differ only in
// exec.leaseTimeout describe the same physics, so they are the same job —
// the second is a 200 dedup hit on the first, not a second run.
func TestLeaseTimeoutIsOneJob(t *testing.T) {
	m := newTestManager(t, t.TempDir(), nil)
	ts := httptest.NewServer((&API{M: m}).Handler())
	defer ts.Close()

	post := func(lease time.Duration) (int, JobView) {
		s := testSpec(8)
		s.Exec.LeaseTimeout = spec.Duration(lease)
		body, err := s.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var v JobView
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, v
	}
	code1, v1 := post(30 * time.Second)
	if code1 != http.StatusAccepted {
		t.Fatalf("first submit status = %d, want 202 (%+v)", code1, v1)
	}
	code2, v2 := post(time.Minute)
	if code2 != http.StatusOK || v2.ID != v1.ID {
		t.Fatalf("submit with another lease timeout: status %d, job %s; want 200 and job %s", code2, v2.ID, v1.ID)
	}
	if n := len(m.Jobs()); n != 1 {
		t.Fatalf("%d jobs after two submissions of one physics, want 1", n)
	}
}

// TestStoredTotalMatchesRun: the store and the engine take a sweep's
// shape from one place, so a job with a real momentum grid (the
// y-periodic device, nK = 3) reads back from a restarted daemon's store
// as the complete job the run reported — not as one for ever short of a
// total the engine never planned.
func TestStoredTotalMatchesRun(t *testing.T) {
	s := spec.Default()
	s.Device.Name = "utb"
	s.Device.CellsX = 2
	s.Grid.NE, s.Grid.NK = 4, 3
	dir := t.TempDir()

	m1 := newTestManager(t, dir, nil)
	j, _, err := m1.Submit(s, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, j); st != StateDone {
		t.Fatalf("run landed %s (%s)", st, j.view(true).Error)
	}
	out, _ := j.Result()
	if out.Report.Total != 12 {
		t.Fatalf("the run planned %d tasks, want 3 k × 4 E = 12", out.Report.Total)
	}
	m1.Close()

	m2 := newTestManager(t, dir, nil)
	sj, ok := m2.store.Lookup(j.ID)
	if !ok || sj.Total != out.Report.Total || sj.Done != sj.Total || !sj.Complete {
		t.Fatalf("stored job = %+v ok=%v, want the run's %d tasks, all done", sj, ok, out.Report.Total)
	}
	if v := sj.View(); v.State != StateDone {
		t.Fatalf("stored view state %s, want done", v.State)
	}
}

// TestSubmitValidation: the HTTP layer rejects non-job specs with 400s.
func TestSubmitValidation(t *testing.T) {
	m := newTestManager(t, t.TempDir(), func(c *Config) { c.MaxRunning = -1 })
	ts := httptest.NewServer((&API{M: m}).Handler())
	defer ts.Close()

	cases := []struct {
		name, body string
		wantStatus int
		wantErr    string
	}{
		{"garbage", "{nope", http.StatusBadRequest, "parse"},
		{"unknown field", `{"divece":{}}`, http.StatusBadRequest, "divece"},
		{"iv mode", `{"mode":"iv"}`, http.StatusBadRequest, "job"},
		{"checkpoint set", `{"resilience":{"checkpoint":"x.journal"}}`, http.StatusBadRequest, "server"},
		{"bad priority", `{"exec":{"priority":"urgent"}}`, http.StatusBadRequest, "priority"},
		{"momentum grid on a ribbon", `{"grid":{"nE":20,"nK":3}}`, http.StatusBadRequest, "-nk 3"},
		{"removed seedRefine", `{"solver":{"seedRefine":0.01}}`, http.StatusBadRequest, "seedRefine"},
		{"sigmaCacheCap at its old location", `{"solver":{"sigmaCacheCap":128}}`, http.StatusBadRequest, "sigmaCacheCap"},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.wantStatus {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.wantStatus, body)
		}
		if !strings.Contains(string(body), tc.wantErr) {
			t.Errorf("%s: body %q missing %q", tc.name, body, tc.wantErr)
		}
	}

	// Unknown job lookups.
	for _, path := range []string{"/v1/jobs/deadbeef", "/v1/jobs/deadbeef/result", "/v1/jobs/deadbeef/stream"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestAdmissionControl: quotas and saturation map to 429, and canceling
// a queued job frees its slot. No executors run, so jobs stay queued.
func TestAdmissionControl(t *testing.T) {
	m := newTestManager(t, t.TempDir(), func(c *Config) {
		c.MaxRunning = -1 // no executors: everything stays queued
		c.MaxQueued = 2
		c.ClientQuota = 1
	})
	ts := httptest.NewServer((&API{M: m}).Handler())
	defer ts.Close()

	submit := func(client string, ne int) *http.Response {
		t.Helper()
		body := fmt.Sprintf(`{"device":{"name":"chain","cellsx":6},"grid":{"ne":%d,"nk":1,"emin":-1,"emax":1}}`, ne)
		req, _ := http.NewRequest("POST", ts.URL+"/v1/jobs", strings.NewReader(body))
		req.Header.Set("X-Client", client)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	read := func(resp *http.Response) (int, string) {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(b)
	}

	r1 := submit("alice", 10)
	code, body := read(r1)
	if code != http.StatusAccepted {
		t.Fatalf("first submit = %d: %s", code, body)
	}
	var v1 JobView
	json.Unmarshal([]byte(body), &v1)
	if v1.State != StateQueued || v1.Total != 10 {
		t.Fatalf("queued view = %+v, want its 10-task total known at submission", v1)
	}

	// Alice is at quota.
	if code, body = read(submit("alice", 11)); code != http.StatusTooManyRequests || !strings.Contains(body, "quota") {
		t.Fatalf("over-quota submit = %d: %s", code, body)
	}
	// Bob fills the queue.
	if code, _ = read(submit("bob", 12)); code != http.StatusAccepted {
		t.Fatalf("bob submit = %d", code)
	}
	// Carol finds it saturated, with Retry-After.
	r4 := submit("carol", 13)
	if r4.StatusCode != http.StatusTooManyRequests || r4.Header.Get("Retry-After") == "" {
		t.Fatalf("saturated submit = %d, Retry-After %q", r4.StatusCode, r4.Header.Get("Retry-After"))
	}
	read(r4)

	// Cancel alice's queued job; carol now fits.
	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+v1.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if code, body = read(resp); code != http.StatusOK {
		t.Fatalf("cancel = %d: %s", code, body)
	}
	if code, body = read(submit("carol", 13)); code != http.StatusAccepted {
		t.Fatalf("post-cancel submit = %d: %s", code, body)
	}
}

// TestDrainAndResume: a drain lands a running job in "drained" with a
// resumable journal, and re-submitting the spec to a fresh manager
// completes it with byte-identical observables.
func TestDrainAndResume(t *testing.T) {
	s := testSpec(16)
	wantObs := serialObservables(t, s)
	dir := t.TempDir()

	// The worker never connects: its spawner blocks until released, so
	// the job is deterministically mid-flight (running, nothing leased)
	// when the drain hits.
	release := make(chan struct{})
	m1 := newTestManager(t, dir, func(c *Config) {
		c.SpawnWorker = func(ctx context.Context, addr string, ws spec.RunSpec) error {
			select {
			case <-release:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	})
	j1, _, err := m1.Submit(s, "alice")
	if err != nil {
		t.Fatal(err)
	}
	for j1.State() == StateQueued {
		<-j1.changed()
	}
	close(release)
	m1.Drain(30 * time.Second)
	if st := j1.State(); st != StateDrained {
		t.Fatalf("after drain job is %s, want drained (%s)", st, j1.view(true).Error)
	}
	if _, _, err := m1.Submit(s, "alice"); err == nil {
		t.Fatal("submit after drain should be refused")
	}

	// Fresh manager, same data dir: the re-submission resumes the
	// journal and completes the sweep.
	m2 := newTestManager(t, dir, nil)
	j2, created, err := m2.Submit(s, "alice")
	if err != nil || !created {
		t.Fatalf("resume submit: created=%v err=%v", created, err)
	}
	if st := waitTerminal(t, j2); st != StateDone {
		t.Fatalf("resumed job landed %s (%s)", st, j2.view(true).Error)
	}
	out, ok := j2.Result()
	if !ok {
		t.Fatal("resumed job has no result")
	}
	var buf bytes.Buffer
	core.WriteSweep(&buf, out.Sweep, out.Perf)
	if got := observableRows(buf.String()); !equalLines(got, wantObs) {
		t.Fatalf("resumed observables differ from serial:\n got %v\nwant %v", got, wantObs)
	}
}

// TestCancelRunning: canceling a running job lands it canceled.
func TestCancelRunning(t *testing.T) {
	s := testSpec(10)
	// A worker that never connects keeps the job running indefinitely.
	m := newTestManager(t, t.TempDir(), func(c *Config) {
		c.SpawnWorker = func(ctx context.Context, addr string, ws spec.RunSpec) error {
			<-ctx.Done()
			return ctx.Err()
		}
	})
	j, _, err := m.Submit(s, "alice")
	if err != nil {
		t.Fatal(err)
	}
	for j.State() == StateQueued {
		<-j.changed()
	}
	ok, err := m.Cancel(j.ID)
	if !ok || err != nil {
		t.Fatalf("cancel: ok=%v err=%v", ok, err)
	}
	if st := waitTerminal(t, j); st != StateCanceled {
		t.Fatalf("job landed %s, want canceled", st)
	}
	// Canceling again reports conflict.
	if ok, _ := m.Cancel(j.ID); ok {
		t.Fatal("second cancel should refuse a finished job")
	}
}

// finishedJournal runs a job to completion in a throwaway manager and
// returns its ID and journal path: a historical job for the store.
func finishedJournal(t *testing.T, dir string, s spec.RunSpec) (id, path string) {
	t.Helper()
	m := newTestManager(t, dir, nil)
	j, _, err := m.Submit(s, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, j); st != StateDone {
		t.Fatalf("job landed %s (%s)", st, j.view(true).Error)
	}
	m.Close()
	return j.ID, m.JournalPath(j.ID)
}

// TestStoreNeverWritesToJournals: the store is a reader. A journal cut
// mid-record — what a killed coordinator leaves — must come out of List
// and Lookup byte for byte as it went in (the parent's store opened it
// for appending and "repaired" the tail), with the torn record reported
// missing.
func TestStoreNeverWritesToJournals(t *testing.T) {
	dir := t.TempDir()
	id, path := finishedJournal(t, dir, testSpec(8))
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := whole[:len(whole)-9] // inside the last record
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	st := NewStore(dir)
	list := st.List()
	sj, ok := st.Lookup(id)
	if len(list) != 1 || !ok {
		t.Fatalf("List = %+v, Lookup ok = %v; want the one job from both", list, ok)
	}
	for _, got := range []StoredJob{list[0], sj} {
		if got.ID != id || got.Done != 7 || got.Total != 8 || got.Complete {
			t.Errorf("stored job = %+v, want 7/8 done, incomplete: the torn record is missing", got)
		}
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, torn) {
		t.Fatalf("the store changed the journal: %d bytes, was %d", len(after), len(torn))
	}

	// A header whose grid no run could have had — the spec is read off
	// the disk, and its hash matches because the hash covers the bad grid
	// too — is skipped, not a panic that fails the whole listing.
	for name, grid := range map[string][2]int{
		"negative":    {1, -8},
		"zero":        {0, 8},
		"overflowing": {1<<62 + 2, 4}, // wraps to 8
	} {
		bad := testSpec(8)
		bad.Grid.NK, bad.Grid.NE = grid[0], grid[1]
		canon, err := bad.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		j, err := cluster.OpenFileJournal(filepath.Join(dir, bad.SpecHash()+".journal"))
		if err != nil {
			t.Fatal(err)
		}
		if err := j.WriteHeader(cluster.Header{SpecHash: bad.SpecHash(), Spec: canon}); err != nil {
			t.Fatal(err)
		}
		j.Close()
		if _, ok := st.Lookup(bad.SpecHash()); ok {
			t.Errorf("%s grid %v: Lookup took it for a job", name, grid)
		}
	}
	if list := st.List(); len(list) != 1 || list[0].ID != id {
		t.Fatalf("List beside bad-grid journals = %+v, want only job %s", list, id)
	}

	// A journal an earlier build wrote (PR 23's, when solver.seedRefine and
	// solver.sigmaCacheCap were hashed fields): its header spec still
	// unmarshals, but hashes to a name this build never computes, so it is
	// not a job — neither adopted nor touched.
	fixture := filepath.Join("..", "spec", "testdata", "pr23.journal")
	h, err := cluster.ReadJournal(fixture)
	if err != nil || h.Header == nil || len(h.Records) != 4 {
		t.Fatalf("the parent-format fixture does not read as a header + 4 records: %v", err)
	}
	old, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatal(err)
	}
	oldPath := filepath.Join(dir, h.Header.SpecHash+".journal")
	if err := os.WriteFile(oldPath, old, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Lookup(h.Header.SpecHash); ok {
		t.Error("Lookup adopted a journal written under the previous hash contract")
	}
	if list := st.List(); len(list) != 1 || list[0].ID != id {
		t.Fatalf("List beside a parent-format journal = %+v, want only job %s", list, id)
	}
	if after, _ := os.ReadFile(oldPath); !bytes.Equal(after, old) {
		t.Fatal("the store changed a journal it does not own")
	}
}

// TestListLeavesRunningJournalAlone: GET /v1/jobs reads the journal of a
// job whose coordinator, in the same manager, has it open for appending.
// A read that lands between the two halves of an append — played here by
// the test, on top of what the coordinator itself wrote — must not put a
// byte between them: the file ends up as exactly those writes, and the
// record survives.
func TestListLeavesRunningJournalAlone(t *testing.T) {
	m := newTestManager(t, t.TempDir(), func(c *Config) {
		c.SpawnWorker = func(ctx context.Context, addr string, ws spec.RunSpec) error {
			<-ctx.Done() // never connects: the job stays running
			return ctx.Err()
		}
	})
	j, _, err := m.Submit(testSpec(4), "alice")
	if err != nil {
		t.Fatal(err)
	}
	for j.State() == StateQueued {
		<-j.changed()
	}
	path := m.JournalPath(j.ID)
	var written []byte // the coordinator's own bytes: header, no results yet
	for deadline := time.Now().Add(10 * time.Second); len(written) == 0; {
		if written, _ = os.ReadFile(path); time.Now().After(deadline) {
			t.Fatal("the running job never wrote its journal header")
		}
	}

	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	payload := []byte("12345678")
	sum := sha256.Sum256(payload)
	line, _ := json.Marshal(cluster.TaskRecord{Index: 2, Payload: payload, Digest: hex.EncodeToString(sum[:])})
	line = append(line, '\n')
	for _, half := range [][]byte{line[:len(line)/2], line[len(line)/2:]} {
		if _, err := f.Write(half); err != nil {
			t.Fatal(err)
		}
		if got := m.store.List(); len(got) != 1 || got[0].ID != j.ID {
			t.Fatalf("List = %+v, want the running job", got)
		}
	}

	after, _ := os.ReadFile(path)
	if want := append(append([]byte(nil), written...), line...); !bytes.Equal(after, want) {
		t.Fatalf("journal holds bytes nobody appended:\n got %q\nwant %q", after, want)
	}
	if sj, _ := m.store.Lookup(j.ID); sj.Done != 1 {
		t.Fatalf("store sees %d/4 done, want the one appended record", sj.Done)
	}
}

// tripWriter is a flushing ResponseWriter that runs a hook on each write.
type tripWriter struct {
	*httptest.ResponseRecorder
	onWrite func(frame []byte)
}

func (w *tripWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseRecorder.Write(b)
	w.onWrite(b)
	return n, err
}

// TestHistoricalStreamLooksUpOnce: streaming a stored job reads its
// journal summary once. The journal disappears right after the `job`
// event; the `done` event must still be that job's view (the parent
// looked the job up again and streamed a zero-valued one).
func TestHistoricalStreamLooksUpOnce(t *testing.T) {
	dir := t.TempDir()
	id, path := finishedJournal(t, dir, testSpec(6))
	m := newTestManager(t, dir, func(c *Config) { c.SpawnWorker = nil })

	w := &tripWriter{ResponseRecorder: httptest.NewRecorder()}
	w.onWrite = func(frame []byte) {
		if bytes.HasPrefix(frame, []byte("event: job\n")) {
			os.Remove(path)
		}
	}
	(&API{M: m}).Handler().ServeHTTP(w, httptest.NewRequest("GET", "/v1/jobs/"+id+"/stream", nil))

	views := make(map[string]JobView)
	event := ""
	for _, line := range strings.Split(w.Body.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "event: "); ok {
			event = rest
		} else if data, ok := strings.CutPrefix(line, "data: "); ok && (event == "job" || event == "done") {
			var v JobView
			if err := json.Unmarshal([]byte(data), &v); err != nil {
				t.Fatalf("%s event: %v", event, err)
			}
			views[event] = v
		}
	}
	job, done := views["job"], views["done"]
	if job.ID != id || job.State != StateDone || job.Total != 6 {
		t.Fatalf("job event = %+v, want the stored job, done, 6 tasks", job)
	}
	if done != job {
		t.Fatalf("done event = %+v, want the job event's view %+v", done, job)
	}
}
