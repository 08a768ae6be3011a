package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/spec"
)

// maxSpecBytes bounds a submitted spec body. Specs are small by
// construction; anything bigger is not a spec.
const maxSpecBytes = 1 << 20

// API is the HTTP front end over a Manager.
type API struct {
	M *Manager
	// Version is reported by /healthz (the daemon's build version).
	Version string
}

// Handler builds the service mux.
func (a *API) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", a.submit)
	mux.HandleFunc("GET /v1/jobs", a.list)
	mux.HandleFunc("GET /v1/jobs/{id}", a.get)
	mux.HandleFunc("GET /v1/jobs/{id}/result", a.result)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", a.stream)
	mux.HandleFunc("DELETE /v1/jobs/{id}", a.cancel)
	mux.HandleFunc("GET /healthz", a.healthz)
	mux.HandleFunc("GET /metrics", a.metrics)
	return mux
}

// jsonError writes a JSON error body with the given status.
func jsonError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// clientOf names the submitting client for quota accounting. An
// explicit header wins; anonymous otherwise (quotas then apply to the
// anonymous pool collectively, which is the safe default).
func clientOf(r *http.Request) string {
	if c := r.Header.Get("X-Client"); c != "" {
		return c
	}
	return "anonymous"
}

// submit admits a spec: POST /v1/jobs with a (partial) RunSpec JSON
// body. 202 queued, 200 dedup hit, 400 invalid, 429 saturated/quota,
// 503 draining.
func (a *API) submit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBytes+1))
	if err != nil {
		jsonError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	if len(body) > maxSpecBytes {
		jsonError(w, http.StatusRequestEntityTooLarge, "spec body exceeds %d bytes", maxSpecBytes)
		return
	}
	s, err := spec.Parse(body)
	if err != nil {
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := s.ValidateFor(spec.RoleServer); err != nil {
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	}
	j, created, err := a.M.Submit(s, clientOf(r))
	switch {
	case errors.Is(err, ErrSaturated), errors.Is(err, ErrQuota):
		w.Header().Set("Retry-After", "5")
		jsonError(w, http.StatusTooManyRequests, "%v", err)
		return
	case errors.Is(err, ErrDraining), errors.Is(err, ErrClosed):
		jsonError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case err != nil:
		jsonError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	status := http.StatusAccepted
	if !created {
		status = http.StatusOK
	}
	w.Header().Set("Location", "/v1/jobs/"+j.ID)
	writeJSON(w, status, j.view(false))
}

// list merges live jobs with the store's historical journals; a live
// job wins over its stored shadow. GET /v1/jobs.
func (a *API) list(w http.ResponseWriter, r *http.Request) {
	views := make(map[string]JobView)
	for _, sj := range a.M.store.List() {
		views[sj.ID] = sj.View()
	}
	for _, j := range a.M.Jobs() {
		views[j.ID] = j.view(false)
	}
	out := make([]JobView, 0, len(views))
	for _, v := range views {
		out = append(out, v)
	}
	sort.Slice(out, func(i, k int) bool {
		if !out[i].Submitted.Equal(out[k].Submitted) {
			return out[i].Submitted.After(out[k].Submitted)
		}
		return out[i].ID < out[k].ID
	})
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

// lookup resolves a job ID against live jobs, then the store.
func (a *API) lookup(id string) (JobView, bool) {
	if j, ok := a.M.Job(id); ok {
		return j.view(true), true
	}
	if sj, ok := a.M.store.Lookup(id); ok {
		return sj.View(), true
	}
	return JobView{}, false
}

// get returns one job's detail view. GET /v1/jobs/{id}.
func (a *API) get(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	v, ok := a.lookup(id)
	if !ok {
		jsonError(w, http.StatusNotFound, "unknown job %s", id)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

// result streams the finished sweep in omen's exact text format (the
// byte-identical-to-serial contract is checked against this endpoint in
// the serve drill). 409 until the job is done; stored-but-not-live done
// jobs must be re-submitted first (a replay, not a recompute).
func (a *API) result(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := a.M.Job(id)
	if !ok {
		if sj, stored := a.M.store.Lookup(id); stored {
			jsonError(w, http.StatusConflict,
				"job %s is journaled but not loaded; re-submit its spec to replay it (complete=%v)", id, sj.Complete)
			return
		}
		jsonError(w, http.StatusNotFound, "unknown job %s", id)
		return
	}
	out, done := j.Result()
	if !done {
		jsonError(w, http.StatusConflict, "job %s is %s; result available when done", id, j.State())
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	core.WriteSweep(w, out.Sweep, out.Perf, out.ClusterLines()...)
}

// cancel cancels a queued or running job. DELETE /v1/jobs/{id}.
func (a *API) cancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ok, err := a.M.Cancel(id)
	if err != nil {
		jsonError(w, http.StatusNotFound, "%v", err)
		return
	}
	if !ok {
		jsonError(w, http.StatusConflict, "job %s already finished", id)
		return
	}
	j, _ := a.M.Job(id)
	writeJSON(w, http.StatusOK, j.view(false))
}

// healthz reports liveness, version, and load. Draining flips status
// so load balancers stop routing before the listener closes.
func (a *API) healthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if a.M.Draining() {
		status = "draining"
	}
	counts := a.M.Counts()
	byState := make(map[string]int, len(counts))
	for st, n := range counts {
		byState[string(st)] = n
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":     status,
		"version":    a.Version,
		"uptime":     a.M.Uptime().Round(time.Second).String(),
		"jobs":       byState,
		"queueDepth": a.M.QueueDepth(),
	})
}

// metrics serves the accumulated engine counters in Prometheus text
// format, plus job-state gauges.
func (a *API) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	agg := a.M.Aggregate()
	agg.WritePrometheus(w, "omend")
	fmt.Fprintf(w, "# TYPE omend_jobs gauge\n")
	states := []State{StateQueued, StateRunning, StateDone, StateFailed, StateCanceled, StateDrained}
	counts := a.M.Counts()
	for _, st := range states {
		fmt.Fprintf(w, "omend_jobs{state=%q} %d\n", st, counts[st])
	}
	fmt.Fprintf(w, "# TYPE omend_queue_depth gauge\nomend_queue_depth %d\n", a.M.QueueDepth())
}
