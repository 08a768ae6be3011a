package server

import (
	"encoding/json"
	"math"
	"path/filepath"
	"strings"

	"repro/internal/cluster"
	"repro/internal/spec"
)

// Store reads the data directory's journals as the service's durable
// job history: each <spechash>.journal is one job, its header carries
// the full canonical spec (self-describing), and its record count
// against the spec's task grid says whether the job completed. A
// restarted daemon lists and replays jobs it never ran.
type Store struct {
	dir string
}

// NewStore wraps a data directory.
func NewStore(dir string) *Store { return &Store{dir: dir} }

// StoredJob is one journal's summary.
type StoredJob struct {
	ID       string
	Spec     spec.RunSpec
	Summary  string
	RunID    string
	Done     int
	Total    int
	Complete bool
}

// Lookup reads one job's journal by ID; ok is false when no journal
// exists or it is unreadable as a job (no header, foreign spec).
func (st *Store) Lookup(id string) (StoredJob, bool) {
	return st.read(filepath.Join(st.dir, id+".journal"))
}

// List scans the data directory for job journals, sorted by file name
// (= job ID). Unreadable journals are skipped, not fatal: the store is
// a view over files another process may be writing.
func (st *Store) List() []StoredJob {
	paths, err := filepath.Glob(filepath.Join(st.dir, "*.journal"))
	if err != nil {
		return nil
	}
	out := make([]StoredJob, 0, len(paths))
	for _, p := range paths {
		if sj, ok := st.read(p); ok {
			out = append(out, sj)
		}
	}
	return out
}

// read parses one journal into a StoredJob, in one read-only pass: the
// store never opens a journal for writing, so listing jobs cannot touch
// a file some coordinator is appending to (DESIGN.md §7, "Sweep log").
func (st *Store) read(path string) (StoredJob, bool) {
	id := strings.TrimSuffix(filepath.Base(path), ".journal")
	c, err := cluster.ReadJournal(path)
	h := c.Header
	if err != nil || h == nil || len(h.Spec) == 0 {
		return StoredJob{}, false
	}
	var s spec.RunSpec
	if err := json.Unmarshal(h.Spec, &s); err != nil {
		return StoredJob{}, false
	}
	// Trust the file name only when it matches the header: a renamed or
	// hand-copied journal must not impersonate another job.
	if s.SpecHash() != id || h.SpecHash != id {
		return StoredJob{}, false
	}
	// The grid comes off the disk too: one that no run could have had
	// (non-positive, or a product that overflows) is not a job.
	nBias, nK, nE := s.Dims()
	if s.Validate() != nil || nK < 1 || nE < 1 || nK > math.MaxInt/nE {
		return StoredJob{}, false
	}
	done, n, _, _ := cluster.Seed(c.Records, nBias, nK, nE, nil)
	return StoredJob{
		ID: id, Spec: s, Summary: s.Summary(), RunID: h.RunID,
		Done: n, Total: len(done), Complete: n == len(done),
	}, true
}

// View renders a stored job in the API's job shape. Complete journals
// present as done-but-not-yet-replayed; incomplete ones as drained
// (resumable by re-submission).
func (sj StoredJob) View() JobView {
	st := StateDrained
	if sj.Complete {
		st = StateDone
	}
	return JobView{
		ID: sj.ID, State: st, Summary: sj.Summary,
		Priority: className(classOf(sj.Spec.Exec.Priority)),
		Done:     sj.Done, Total: sj.Total,
		RunID: sj.RunID,
	}
}
