package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/perf"
	"repro/internal/spec"
)

// streamEvent is one SSE frame: event name plus JSON data.
func writeEvent(w http.ResponseWriter, fl http.Flusher, event string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, b)
	fl.Flush()
}

// pointEvent is one committed sweep point.
type pointEvent struct {
	Index  int     `json:"index"`
	K      int     `json:"k"`
	E      int     `json:"e"`
	Energy float64 `json:"energy"`
	T      float64 `json:"T"`
}

// counterEvent carries the cumulative engine counters of the points
// streamed so far (summed from the journaled per-task perf deltas).
type counterEvent struct {
	Points    int   `json:"points"`
	Flops     int64 `json:"flops"`
	SigmaHits int64 `json:"sigmaHits,omitempty"`
	SigmaMiss int64 `json:"sigmaMisses,omitempty"`
}

// stream follows a job live over SSE: an initial `job` snapshot, a
// `point` per result as it commits to the journal, periodic `counters`,
// and a final `done` with the terminal view. GET /v1/jobs/{id}/stream.
//
// The stream reads the job's journal, not the coordinator: results are
// emitted only once durably committed, so a stream never shows a point
// a crash could retract. Streaming a journaled historical job replays
// its records and closes.
func (a *API) stream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	fl, ok := w.(http.Flusher)
	if !ok {
		jsonError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}

	// A historical job is looked up once: its `job` and `done` events
	// are the same view of one read of the journal, whatever happens to
	// the file in between.
	j, live := a.M.Job(id)
	var (
		s    spec.RunSpec
		view JobView
	)
	if live {
		s, view = j.Spec, j.view(false)
	} else {
		sj, ok := a.M.store.Lookup(id)
		if !ok {
			jsonError(w, http.StatusNotFound, "unknown job %s", id)
			return
		}
		s, view = sj.Spec, sj.View()
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	writeEvent(w, fl, "job", view)

	grid := s.EnergyGrid()
	nBias, nK, nE := s.Dims()
	tail := cluster.NewTail(a.M.JournalPath(id))
	seen := make(map[int]bool)
	var agg perf.Snapshot

	emit := func() bool {
		recs, err := tail.Poll()
		if err != nil {
			writeEvent(w, fl, "error", map[string]string{"error": err.Error()})
			return false
		}
		fresh := 0
		for _, rec := range recs {
			if rec.Index < 0 || rec.Index >= nBias*nK*nE || seen[rec.Index] {
				continue
			}
			seen[rec.Index] = true
			fresh++
			t := cluster.TaskAt(rec.Index, nK, nE)
			// A payload that is not a transmission value streams as T = 0;
			// the run that reads the journal back is what rejects it.
			tv, _ := core.TransmissionValue(rec.Payload)
			writeEvent(w, fl, "point", pointEvent{Index: rec.Index, K: t.K, E: t.E, Energy: grid[t.E], T: tv})
			if rec.Perf != nil {
				agg.Add(*rec.Perf)
			}
		}
		if fresh > 0 {
			writeEvent(w, fl, "counters", counterEvent{
				Points:    len(seen),
				Flops:     agg.Flops,
				SigmaHits: agg.Counters["sigma-hits"],
				SigmaMiss: agg.Counters["sigma-misses"],
			})
		}
		return true
	}

	if !live {
		// Historical job: replay what the journal holds, then close.
		if emit() {
			writeEvent(w, fl, "done", view)
		}
		return
	}

	// Live job: follow the journal until the job lands terminal. Wakes
	// on job transitions (every committed result pings) with a timer
	// backstop for anything in between.
	tick := time.NewTicker(500 * time.Millisecond)
	defer tick.Stop()
	for {
		ch := j.changed()
		st := j.State()
		if !emit() {
			return
		}
		if terminal(st) {
			writeEvent(w, fl, "done", j.view(true))
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-ch:
		case <-tick.C:
		}
	}
}
