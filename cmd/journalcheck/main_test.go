package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/spec"
)

// TestAuditDoesNotEditTheEvidence: a journal cut mid-record is audited
// as it lies — the torn record reported missing, the file byte for byte
// what it was (the parent's auditor opened it for appending and
// terminated the torn tail) — and an intact one passes.
func TestAuditDoesNotEditTheEvidence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	j, err := cluster.OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.BumpEpoch(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := j.Append(cluster.TaskRecord{Index: i, Payload: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	var stdout, stderr bytes.Buffer
	if code := audit(path, 5, 2, &stdout, &stderr); code != 0 || !strings.Contains(stdout.String(), "5 records, exactly one per task, latest epoch 2") {
		t.Fatalf("intact journal: exit %d, stdout %q, stderr %q", code, stdout.String(), stderr.String())
	}

	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := whole[:len(whole)-9]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	stderr.Reset()
	if code := audit(path, 5, 0, &stdout, &stderr); code != 1 || !strings.Contains(stderr.String(), "1 tasks have no record: [4]") {
		t.Fatalf("torn journal: exit %d, stderr %q; want the torn record 4 reported missing", code, stderr.String())
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, torn) {
		t.Fatalf("the audit changed the journal: %d bytes, was %d", len(after), len(torn))
	}
}

// TestAuditTakesTheTotalFromTheHeader: a journal opened through
// spec.OpenJournal embeds its spec, whose sweep shape is the task count
// when -total is left 0; a journal with no header then has no count to
// audit against, which is a usage error (exit 2), not a failed audit.
func TestAuditTakesTheTotalFromTheHeader(t *testing.T) {
	s := spec.Default()
	s.Grid.NE = 5
	s.Resilience.Checkpoint = filepath.Join(t.TempDir(), "sweep.journal")
	j, err := spec.OpenJournal(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := j.Append(cluster.TaskRecord{Index: i, Payload: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	var stdout, stderr bytes.Buffer
	if code := audit(s.Resilience.Checkpoint, 0, 0, &stdout, &stderr); code != 1 || !strings.Contains(stderr.String(), "1 tasks have no record: [4]") {
		t.Fatalf("4 of the spec's 5 tasks: exit %d, stderr %q; want task 4 reported missing", code, stderr.String())
	}
	if err := j.Append(cluster.TaskRecord{Index: 4, Payload: []byte{4}}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	stderr.Reset()
	if code := audit(s.Resilience.Checkpoint, 0, 0, &stdout, &stderr); code != 0 || !strings.Contains(stdout.String(), "5 records, exactly one per task") {
		t.Fatalf("complete journal: exit %d, stdout %q, stderr %q", code, stdout.String(), stderr.String())
	}

	bare := filepath.Join(t.TempDir(), "bare.journal")
	jb, err := cluster.OpenFileJournal(bare)
	if err != nil {
		t.Fatal(err)
	}
	if err := jb.Append(cluster.TaskRecord{Index: 0, Payload: []byte{0}}); err != nil {
		t.Fatal(err)
	}
	jb.Close()
	stdout.Reset()
	stderr.Reset()
	if code := audit(bare, 0, 0, &stdout, &stderr); code != 2 || !strings.Contains(stderr.String(), "-total") {
		t.Fatalf("headerless journal without -total: exit %d, stderr %q; want 2 and a message naming -total", code, stderr.String())
	}
	if code := audit(bare, 1, 0, &stdout, &stderr); code != 0 {
		t.Fatalf("headerless journal with -total 1: exit %d, stderr %q", code, stderr.String())
	}
}
