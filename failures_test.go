package aether

import (
	"errors"
	"testing"
	"time"

	"aether/internal/vfs"
)

// The engine's *Failures counters count background work that failed and
// will be retried. Each test below makes one of them non-zero with a
// fault rule on the filesystem under the database, clears the rule, and
// shows the work converging: the next pass succeeds, the counter stops
// rising, and the horizon it guards advances.

// TestTruncateFailuresConverge: a checkpoint whose log truncation cannot
// record its horizon (the MANIFEST write fails) still succeeds, counts
// the failure and leaves the base where it was; the next checkpoint
// after the fault clears truncates.
func TestTruncateFailuresConverge(t *testing.T) {
	db, err := Open(Options{Mode: CommitSync})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	failures := func() int64 { return db.eng.Stats().TruncateFailures.Load() }

	db.mem.AddRule(vfs.Rule{Path: "MANIFEST*", Err: errors.New("manifest volume read-only")})
	writeRows(t, db, tbl, 1, 50)
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("checkpoint with a failing truncation: %v", err)
	}
	if got := failures(); got != 1 {
		t.Fatalf("TruncateFailures = %d after one checkpoint whose truncation failed, want 1", got)
	}
	if base := db.Stats().LogBase; base != 0 {
		t.Fatalf("LogBase = %d after a failed truncation, want 0", base)
	}

	db.mem.ClearRules()
	var base int64
	for k := uint64(50); k < 200; k += 50 {
		writeRows(t, db, tbl, k, k+50)
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if got := failures(); got != 1 {
			t.Fatalf("TruncateFailures rose to %d with the fault cleared", got)
		}
		next := db.Stats().LogBase
		if next <= base {
			t.Fatalf("LogBase %d did not advance past %d after the fault cleared", next, base)
		}
		base = next
	}
}

// TestAutoCheckpointFailuresConverge: a failed log fsync poisons the log
// — an fsync is never retried — so every background checkpoint after it
// fails and is counted. The database converges the one way a poisoned
// log can, through a restart (DB.Crash: power cut, reopen, recovery):
// with the fault cleared the restarted checkpointer succeeds, counts no
// failure, and the log base advances again.
func TestAutoCheckpointFailuresConverge(t *testing.T) {
	const segSize = 16 << 10
	db, err := Open(Options{SegmentSize: segSize, CheckpointEveryBytes: 2 * segSize, Mode: CommitSync})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	last := waitLogBaseAbove(t, db, tbl, 1, 0)

	db.mem.AddRule(vfs.Rule{Op: vfs.OpSync, Path: "*.seg", Times: 1, Err: errors.New("fsync: I/O error")})
	s := db.Session()
	payload := make([]byte, 256)
	deadline := time.Now().Add(15 * time.Second)
	for k := last; db.eng.Stats().AutoCheckpointFailures.Load() == 0; k++ {
		if time.Now().After(deadline) {
			t.Fatal("no background checkpoint failed on the poisoned log")
		}
		tx := s.Begin()
		if err := tx.Insert(tbl, k, Row(k, payload)); err != nil {
			tx.Abort()
			continue
		}
		if err := tx.Commit(); err == nil && k > last+1 {
			t.Fatalf("commit %d acknowledged on a log whose fsync failed (last %d, rules %+v, failed %v)", k, last, db.mem.RuleStats(), db.eng.Log().Failed())
		}
	}
	s.Close()

	db.mem.ClearRules()
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
	if tbl, err = db.LookupTable("t"); err != nil {
		t.Fatal(err)
	}
	before := db.Stats()
	waitLogBaseAbove(t, db, tbl, 100000, before.LogBase)
	after := db.Stats()
	if after.AutoCheckpoints == 0 {
		t.Fatal("the log base advanced without a background checkpoint")
	}
	if got := db.eng.Stats().AutoCheckpointFailures.Load(); got != 0 {
		t.Fatalf("AutoCheckpointFailures = %d after the restart with the fault cleared, want 0", got)
	}
	verifyRows(t, db, tbl, 1, last)
}

// TestRetentionFailuresConverge: while snapshot uploads fail, each
// maintenance pass counts a failure and no retention floor exists; once
// the fault clears, the next pass cuts a snapshot, the floor rises above
// zero, and later passes count no more failures.
func TestRetentionFailuresConverge(t *testing.T) {
	fs := vfs.NewFaultFS(1)
	db, err := Open(Options{
		LogPath:            "/db",
		SegmentSize:        4096,
		ArchiveDir:         "/cold",
		SnapshotEveryBytes: 8192,
		RetainSnapshots:    1,
		Mode:               CommitSync,
		fs:                 fs,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	fs.AddRule(vfs.Rule{Dir: "/cold/manifest", Err: errors.New("snapshot store unreachable")})
	k := uint64(1)
	round := func() {
		t.Helper()
		writeRows(t, db, tbl, k, k+40)
		k += 40
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(15 * time.Second)
	for db.Stats().RetentionFailures == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no maintenance pass failed while snapshot uploads fail")
		}
		round()
	}
	if st := db.Stats(); st.RestoreFloor != 0 || st.LogSnapshots != 0 {
		t.Fatalf("floor %d and %d snapshots while every snapshot upload fails, want none", st.RestoreFloor, st.LogSnapshots)
	}

	fs.ClearRules()
	for db.Stats().RestoreFloor == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the retention floor never rose after the fault cleared")
		}
		round()
		time.Sleep(5 * time.Millisecond)
	}
	// Stats reads the floor from a listing of the cold store, which a
	// concurrent prune can make fail (reported as 0): poll for the rise.
	st := db.Stats()
	for db.Stats().RestoreFloor <= st.RestoreFloor {
		if time.Now().After(deadline) {
			t.Fatalf("retention floor stuck at %d after the fault cleared", st.RestoreFloor)
		}
		round()
		time.Sleep(5 * time.Millisecond)
	}
	if got := db.Stats().RetentionFailures; got != st.RetentionFailures {
		t.Fatalf("RetentionFailures rose from %d to %d with the fault cleared", st.RetentionFailures, got)
	}
}
