package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cluster"
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
