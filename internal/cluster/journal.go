package cluster

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"

	"repro/internal/perf"
)

// TaskRecord is one completed task in the sweep journal: its flat index,
// the serialized result payload the task produced, and the payload's
// SHA-256 digest. The digest makes each record self-verifying, so a
// journal written by a crashed run can be trusted record by record — a
// corrupt or truncated record is simply treated as "not done" and the
// task reruns.
type TaskRecord struct {
	// Index is the flat task index (see TaskAt for the layout).
	Index int `json:"idx"`
	// Payload is the task's serialized result, restored on resume.
	Payload []byte `json:"payload,omitempty"`
	// Digest is the lowercase hex SHA-256 of Payload.
	Digest string `json:"sha,omitempty"`
	// Perf records the perf delta the task's execution cost (see Meter).
	// Both engines persist it, and Seed re-sums it, so a resumed or
	// replayed run's flop total stays exactly an uninterrupted run's. It
	// rides outside Digest, which keeps journals from before it existed
	// valid — a damaged Perf at worst skews counters, never observables.
	Perf *perf.Snapshot `json:"perf,omitempty"`
	// Shard records which coordinator scheduling shard owned the task when
	// the result was committed (sharded coordinators only; zero for serial
	// journals and single-shard runs). Provenance only — like Perf it rides
	// outside Digest, so journals from before sharding stay valid and a
	// resume with a different -shards simply re-derives the partition.
	Shard int `json:"shard,omitempty"`
}

// digestOf returns the canonical payload digest.
func digestOf(payload []byte) string {
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:])
}

// Header is the journal's typed header record: it identifies the run
// spec that wrote the journal, so a -resume against a journal written
// by a different spec fails loudly instead of silently merging
// incompatible results. Journals from before headers existed (PR ≤ 5)
// simply have none — readers treat that as "unverifiable", not an error.
type Header struct {
	// SpecHash is the content hash of the writing run's spec
	// (spec.RunSpec.SpecHash — the result-determining subset).
	SpecHash string `json:"specHash"`
	// RunID names this run instance (spec hash prefix + random suffix).
	// It outlives coordinator incarnations: a restarted coordinator
	// serves the same RunID at a higher epoch, which is how rejoining
	// workers tell "my coordinator came back" from "a different run
	// reused the address". Empty for journals written before failover
	// existed — fencing is skipped, exactly like a missing header.
	RunID string `json:"runID,omitempty"`
	// Spec optionally embeds the full canonical spec for forensics, so
	// a journal is self-describing without the original command line.
	Spec json.RawMessage `json:"spec,omitempty"`
}

// headerRecord is the on-disk line shape of a Header. The "header"
// field doubles as a format version and as the discriminator that keeps
// header lines out of the task records. (Old readers skip header lines
// too, without knowing about them: unmarshaled as a TaskRecord the line
// has no digest, so Verify rejects it.)
type headerRecord struct {
	Header   int             `json:"header"`
	SpecHash string          `json:"specHash,omitempty"`
	RunID    string          `json:"runID,omitempty"`
	Spec     json.RawMessage `json:"spec,omitempty"`
}

// headerVersion is the header format this package writes.
const headerVersion = 1

// epochRecord marks the start of a coordinator incarnation in the
// journal. Like the header, it is invisible to task-record readers (no
// digest → Verify rejects it as a TaskRecord) and to pre-failover
// versions of this package, so journals stay fully backward-compatible.
type epochRecord struct {
	Epoch uint64 `json:"epoch"`
}

// Verify reports whether the record's digest matches its payload.
func (r TaskRecord) Verify() bool { return r.Digest == digestOf(r.Payload) }

// line is the union of the three on-disk line shapes, so that one
// decode reads whichever of them a journal line is. The
// discriminators: a non-zero "header" makes it the header; otherwise a
// digest that matches the payload makes it a task record; "epoch" is
// read off any line that carries one. Everything else is garbage.
type line struct {
	headerRecord
	epochRecord
	TaskRecord
}

// Contents is what a journal holds, folded from its lines in one pass.
type Contents struct {
	// Header is the first header line (later ones are ignored); nil for
	// an empty journal or one written before headers existed.
	Header *Header
	// Epoch is the highest epoch mark, 1 when there is none.
	Epoch uint64
	// Records are the digest-valid task records in file order, echoes
	// and out-of-range indices included — see Seed.
	Records []TaskRecord
}

// fold classifies one journal line (with or without its newline) into c.
// Blank lines, lines that are not JSON — a torn tail after repair,
// foreign garbage — and records whose digest does not match are dropped:
// their tasks simply rerun.
func (c *Contents) fold(b []byte) {
	b = bytes.TrimSuffix(b, []byte{'\n'})
	if len(b) == 0 {
		return
	}
	var l line
	if err := json.Unmarshal(b, &l); err != nil {
		return
	}
	if l.Epoch > c.Epoch {
		c.Epoch = l.Epoch
	}
	switch {
	case l.Header != 0:
		if c.Header == nil {
			c.Header = &Header{SpecHash: l.SpecHash, RunID: l.RunID, Spec: l.Spec}
		}
	case l.TaskRecord.Verify():
		c.Records = append(c.Records, l.TaskRecord)
	}
}

// scanMode says what kind of reader is scanning.
type scanMode int

const (
	// scanWhole reads a file at rest, start to end.
	scanWhole scanMode = iota
	// scanHeader reads a file at rest up to its first header line.
	scanHeader
	// scanFollow reads what a live file gained since the last scan.
	scanFollow
)

// scan is the one loop over journal lines: it folds the lines of r into
// c and returns how many bytes it consumed. The modes differ in how they
// treat a final line with no newline:
//
//   - A reader of a file at rest takes it. If it verifies, the writer was
//     killed between the record and its newline; OpenFileJournal's tail
//     repair will terminate it and every later reader will see it, so
//     skipping it now would rerun the task and record it twice.
//   - A follower leaves it and does not count its bytes: the writer is
//     mid-append, and the line is read whole once it is finished.
func scan(r *bufio.Reader, c *Contents, mode scanMode) (int64, error) {
	var n int64
	for {
		b, err := r.ReadBytes('\n')
		if err != nil && err != io.EOF {
			return n, fmt.Errorf("cluster: scan journal: %w", err)
		}
		if err == io.EOF && mode == scanFollow {
			return n, nil
		}
		n += int64(len(b))
		c.fold(b)
		if err == io.EOF || (mode == scanHeader && c.Header != nil) {
			return n, nil
		}
	}
}

// readFile scans the journal at path without opening it for writing. A
// missing file is an empty journal at epoch 1.
func readFile(path string, mode scanMode) (Contents, error) {
	c := Contents{Epoch: 1}
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return c, nil
		}
		return c, fmt.Errorf("cluster: read journal: %w", err)
	}
	defer f.Close()
	_, err = scan(bufio.NewReaderSize(f, 1<<16), &c, mode)
	return c, err
}

// ReadJournal reads the journal at path in one pass, read-only: unlike
// OpenFileJournal it neither creates the file nor repairs a torn tail,
// so it is what every consumer that does not append uses — the job
// store, the audit tool. A missing file is an empty journal at epoch 1.
func ReadJournal(path string) (Contents, error) { return readFile(path, scanWhole) }

// Checkpointer persists completed-task records of a sweep so an
// interrupted run can resume without redoing finished work. The appends
// must be safe for concurrent use from many workers and must not return
// until their records are handed to the underlying medium (a crashed
// process loses at most what the OS had not flushed; those tasks rerun on
// resume, which is always safe because records are idempotent).
type Checkpointer interface {
	// Append records one completed task: AppendBatch of one record.
	Append(rec TaskRecord) error
	// AppendBatch records a group of completed tasks at the cost of one:
	// one write, and one fsync where the journal syncs at all. Not atomic —
	// a crash inside the call can keep any prefix of the group.
	AppendBatch(recs []TaskRecord) error
	// Load returns the records persisted so far, tolerating a corrupt or
	// truncated tail (such records are dropped, not errors).
	Load() ([]TaskRecord, error)
	// Close flushes and releases the journal.
	Close() error
}

// FileJournal is an append-only JSON-lines checkpoint file: one TaskRecord
// per line. The format is deliberately dumb — append-only, self-verifying
// per record, order-insensitive, duplicate-tolerant — so that a process
// killed mid-write, of one record or of a batch, leaves at worst one
// garbage tail line, which Load skips. It is the single-node stand-in for
// the parallel checkpoint streams extreme-scale transport codes write per
// communicator.
type FileJournal struct {
	path string
	sync bool
	// afterWrite, when non-nil, runs between an append's write and its
	// fsync: where the crash tests kill the writer.
	afterWrite func()

	mu sync.Mutex
	f  *os.File
	// epoch is the highest epoch this handle has read or written (0:
	// none yet) — a journal's one appender need not rescan for it.
	epoch uint64
}

// JournalOption configures OpenFileJournal.
type JournalOption func(*FileJournal)

// WithFsync makes every append — a record, a batch, the header, an epoch
// mark — force what it wrote to stable storage with one fsync before
// returning. The default (hand-to-OS only) survives a
// process crash but can lose the unsynced tail on an OS or power crash —
// acceptable for a worker, whose lost tasks simply rerun, but not for a
// distributed coordinator, whose journal is the cluster-wide source of
// truth: a coordinator restarted after a machine crash must trust every
// record it acknowledged to the workers.
func WithFsync() JournalOption {
	return func(j *FileJournal) { j.sync = true }
}

// OpenFileJournal opens (creating if needed) the journal at path for
// appending. Existing records are preserved; call Load to read them. If
// the previous writer was killed mid-record, the torn trailing line is
// terminated so that records appended by this process start on a fresh
// line instead of merging into the torn one (which would corrupt them).
func OpenFileJournal(path string, opts ...JournalOption) (*FileJournal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("cluster: open journal: %w", err)
	}
	j := &FileJournal{path: path, f: f}
	for _, o := range opts {
		o(j)
	}
	if err := j.repairTail(); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// repairTail terminates an unterminated trailing line (the torn tail of a
// writer killed mid-record). Load already ignores the torn record; the
// repair only guarantees the *next* record is not appended onto the same
// line, which would destroy it too.
func (j *FileJournal) repairTail() error {
	st, err := j.f.Stat()
	if err != nil {
		return fmt.Errorf("cluster: journal stat: %w", err)
	}
	if st.Size() == 0 {
		return nil
	}
	var b [1]byte
	if _, err := j.f.ReadAt(b[:], st.Size()-1); err != nil {
		return fmt.Errorf("cluster: journal tail: %w", err)
	}
	if b[0] == '\n' {
		return nil
	}
	if _, err := j.f.Write([]byte{'\n'}); err != nil {
		return fmt.Errorf("cluster: journal tail repair: %w", err)
	}
	return nil
}

// WriteHeader appends the typed header record identifying the run spec
// this journal belongs to. Call it once, right after creating a fresh
// journal; resumed journals already carry theirs.
func (j *FileJournal) WriteHeader(h Header) error {
	line, err := json.Marshal(headerRecord{Header: headerVersion, SpecHash: h.SpecHash, RunID: h.RunID, Spec: h.Spec})
	if err != nil {
		return fmt.Errorf("cluster: journal header marshal: %w", err)
	}
	return j.appendLines(append(line, '\n'), "header")
}

// appendLines is the journal's one write path: newline-terminated lines go
// to the OS in a single write under the journal lock (and are fsync'd,
// once, when configured) before it returns.
func (j *FileJournal) appendLines(lines []byte, what string) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("cluster: journal %s is closed", j.path)
	}
	if _, err := j.f.Write(lines); err != nil {
		return fmt.Errorf("cluster: journal %s: %w", what, err)
	}
	if j.afterWrite != nil {
		j.afterWrite()
	}
	if j.sync {
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("cluster: journal fsync: %w", err)
		}
	}
	return nil
}

// LatestEpoch returns the highest coordinator-incarnation epoch recorded
// in the journal, or 1 when none is — a journal with no epoch records
// was written by a single (first) incarnation.
func (j *FileJournal) LatestEpoch() (uint64, error) {
	c, err := j.Read()
	return c.Epoch, err
}

// BumpEpoch persists the start of a new coordinator incarnation and
// returns its epoch number (latest recorded + 1; the first bump on a
// fresh journal therefore returns 2 — epoch 1 is the implicit first
// incarnation). The latest epoch is the one this handle's last Read or
// BumpEpoch saw; the file is scanned only when there was neither. The
// record is fsync'd under WithFsync, so a worker can never be welcomed
// into an epoch the journal might forget.
func (j *FileJournal) BumpEpoch() (uint64, error) {
	if j.noteEpoch(0) == 0 {
		if _, err := j.Read(); err != nil {
			return 0, err
		}
	}
	next := j.noteEpoch(0) + 1
	line, err := json.Marshal(epochRecord{Epoch: next})
	if err != nil {
		return 0, fmt.Errorf("cluster: journal epoch marshal: %w", err)
	}
	if err := j.appendLines(append(line, '\n'), "epoch"); err != nil {
		return 0, err
	}
	return j.noteEpoch(next), nil
}

// noteEpoch raises the remembered epoch to e and returns it (never
// lowers: a Read that overlapped a BumpEpoch comes back with the older).
func (j *FileJournal) noteEpoch(e uint64) uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	if e > j.epoch {
		j.epoch = e
	}
	return j.epoch
}

// ReadHeader returns the journal's header record, or nil when the file
// has none — either an empty fresh journal or one written before
// headers existed. The scan stops at the first header, so checking a
// resumed journal's identity does not cost a pass over its records.
func (j *FileJournal) ReadHeader() (*Header, error) {
	c, err := readFile(j.path, scanHeader)
	return c.Header, err
}

// CheckHeader verifies that the journal was written by the run spec
// identified by specHash. A mismatch is an error — resuming would merge
// results computed under a different device/grid/solver configuration.
// A journal without a header (written by an older version) cannot be
// verified; that degrades to a warning through warnf (when non-nil) so
// pre-header journals keep resuming.
func (j *FileJournal) CheckHeader(specHash string, warnf func(format string, args ...any)) error {
	h, err := j.ReadHeader()
	if err != nil {
		return err
	}
	if h == nil {
		if warnf != nil {
			warnf("journal %s has no spec header (written before run specs existed); cannot verify it matches this run", j.path)
		}
		return nil
	}
	if h.SpecHash != specHash {
		return fmt.Errorf("cluster: journal %s was written by a different run spec (journal %.16s…, this run %.16s…); resuming would merge incompatible results — remove the journal or rerun with the original spec",
			j.path, h.SpecHash, specHash)
	}
	return nil
}

// Append implements Checkpointer.
func (j *FileJournal) Append(rec TaskRecord) error { return j.AppendBatch([]TaskRecord{rec}) }

// AppendBatch implements Checkpointer: one JSON line per record, handed to
// the OS before returning so a process crash cannot lose an acknowledged
// record (an OS crash can lose the unsynced tail; affected tasks rerun).
func (j *FileJournal) AppendBatch(recs []TaskRecord) error {
	var lines bytes.Buffer
	enc := json.NewEncoder(&lines) // Encode writes Marshal's bytes and a newline
	for _, rec := range recs {
		if rec.Digest == "" {
			rec.Digest = digestOf(rec.Payload)
		}
		if err := enc.Encode(rec); err != nil {
			return fmt.Errorf("cluster: journal marshal: %w", err)
		}
	}
	return j.appendLines(lines.Bytes(), "append")
}

// Load implements Checkpointer: it reads every well-formed, digest-valid
// record from the file, silently dropping malformed lines (the torn tail
// of a killed writer) and records whose digest does not match.
func (j *FileJournal) Load() ([]TaskRecord, error) {
	c, err := j.Read()
	return c.Records, err
}

// Read returns everything the journal holds — header, latest epoch, task
// records — in one pass, and remembers the epoch for BumpEpoch.
func (j *FileJournal) Read() (Contents, error) {
	c, err := ReadJournal(j.path)
	if err == nil {
		j.noteEpoch(c.Epoch)
	}
	return c, err
}

// Close implements Checkpointer.
func (j *FileJournal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// MemJournal is an in-memory Checkpointer for tests and for callers that
// want resume-within-process semantics without touching disk.
type MemJournal struct {
	mu   sync.Mutex
	recs []TaskRecord
}

// Append implements Checkpointer.
func (j *MemJournal) Append(rec TaskRecord) error { return j.AppendBatch([]TaskRecord{rec}) }

// AppendBatch implements Checkpointer.
func (j *MemJournal) AppendBatch(recs []TaskRecord) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, rec := range recs {
		if rec.Digest == "" {
			rec.Digest = digestOf(rec.Payload)
		}
		j.recs = append(j.recs, rec)
	}
	return nil
}

// Load implements Checkpointer.
func (j *MemJournal) Load() ([]TaskRecord, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]TaskRecord, len(j.recs))
	copy(out, j.recs)
	return out, nil
}

// Close implements Checkpointer.
func (j *MemJournal) Close() error { return nil }

// Len returns the number of records appended so far.
func (j *MemJournal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.recs)
}
