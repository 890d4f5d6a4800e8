package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"aether/internal/wire"
)

// TestRefusesSingleFileLog: a database directory that still holds the
// single-file log an earlier version wrote at <db>/log is refused before
// anything is opened or created, and the old log keeps its bytes — an
// upgrade never comes up empty over old data.
func TestRefusesSingleFileLog(t *testing.T) {
	dbDir := t.TempDir()
	old := filepath.Join(dbDir, "log")
	want := []byte("an old single-file log")
	if err := os.WriteFile(old, want, 0o644); err != nil {
		t.Fatal(err)
	}
	err := run("127.0.0.1:0", dbDir, 0, 0, 0, 0, 0, "pipelined", time.Second, time.Second, wire.DefaultMaxFrame)
	if err == nil || !strings.Contains(err.Error(), "single-file log") {
		t.Fatalf("run over <db>/log: %v, want the single-file-log refusal", err)
	}
	if got, err := os.ReadFile(old); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("refused start changed <db>/log: %q, %v", got, err)
	}
	if _, err := os.Stat(filepath.Join(dbDir, "logseg")); !os.IsNotExist(err) {
		t.Fatalf("refused start created <db>/logseg: %v", err)
	}
}
