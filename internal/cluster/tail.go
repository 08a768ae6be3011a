package cluster

import (
	"bufio"
	"fmt"
	"io"
	"os"
)

// Tail incrementally reads the task records of a journal file as they
// are appended — the streaming face of FileJournal that the job
// service's SSE endpoint follows. Each Poll returns the digest-valid
// records appended since the previous Poll, in file order, through the
// same scan as a whole-file read (see scan), so header/epoch metadata
// and malformed lines are skipped exactly like Load skips them.
//
// The reader is deliberately stateless about the writer: it reopens the
// file on every Poll (cheap at streaming cadence, and immune to the
// writer rotating file descriptors), and it only ever advances past
// complete, newline-terminated lines — a torn tail the writer is still
// mid-append on is re-read whole on the next Poll, so no record can be
// half-seen. A missing file is "nothing yet", not an error: a job's
// journal is created a moment after the job is admitted.
//
// Tail is not safe for concurrent use; give each stream its own.
type Tail struct {
	path string
	off  int64
	// r is the scratch read buffer, reused across Polls (Reset onto each
	// freshly opened file). A long-lived SSE stream polls for the life of
	// the job; allocating a fresh 64 KiB buffer per poll was pure churn.
	r *bufio.Reader
}

// NewTail returns a tail reader starting at the head of the journal.
func NewTail(path string) *Tail { return &Tail{path: path} }

// Poll returns the verified task records appended since the last Poll.
// An empty batch means no complete new records — poll again later.
func (t *Tail) Poll() ([]TaskRecord, error) {
	f, err := os.Open(t.path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("cluster: tail journal: %w", err)
	}
	defer f.Close()
	if _, err := f.Seek(t.off, io.SeekStart); err != nil {
		return nil, fmt.Errorf("cluster: tail seek: %w", err)
	}
	if t.r == nil {
		t.r = bufio.NewReaderSize(f, 1<<16)
	} else {
		t.r.Reset(f)
	}
	var c Contents
	n, err := scan(t.r, &c, scanFollow)
	t.off += n
	return c.Records, err
}
