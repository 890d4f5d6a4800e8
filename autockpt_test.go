package aether

import (
	"path/filepath"
	"testing"
	"time"
)

// waitLogBaseAbove drives commits until Stats.LogBase exceeds prev (the
// background checkpointer is the only thing advancing it here) and
// Stats.AutoCheckpoints counts a checkpoint: the checkpointer moves the
// base inside Checkpoint and counts the checkpoint only once that
// returns, so a base that moved does not yet mean a counted checkpoint.
func waitLogBaseAbove(t *testing.T, db *DB, tbl *Table, from uint64, prev int64) uint64 {
	t.Helper()
	s := db.Session()
	defer s.Close()
	payload := make([]byte, 256)
	deadline := time.Now().Add(15 * time.Second)
	k := from
	for st := db.Stats(); st.LogBase <= prev || st.AutoCheckpoints == 0; st = db.Stats() {
		if time.Now().After(deadline) {
			t.Fatalf("LogBase stuck at %d (auto checkpoints: %d)",
				db.Stats().LogBase, db.Stats().AutoCheckpoints)
		}
		tx := s.Begin()
		if err := tx.Insert(tbl, k, Row(k, payload)); err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("commit %d: %v", k, err)
		}
		k++
	}
	return k
}

// TestBackgroundCheckpointerBoundsFileBackedLog is the tentpole's
// end-to-end acceptance test: with CheckpointEveryBytes set and no
// explicit Checkpoint() calls, a sustained workload keeps the truncation
// horizon advancing, and a reopen recovers every committed row from the
// pagefile plus the surviving log tail.
func TestBackgroundCheckpointerBoundsFileBackedLog(t *testing.T) {
	const segSize = 16 << 10
	dir := filepath.Join(t.TempDir(), "wal.d")
	db, err := Open(Options{
		LogPath:              dir,
		SegmentSize:          segSize,
		CheckpointEveryBytes: 2 * segSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}

	// The horizon must advance twice purely from background checkpoints.
	next := waitLogBaseAbove(t, db, tbl, 1, 0)
	base1 := db.Stats().LogBase
	last := waitLogBaseAbove(t, db, tbl, next, base1)

	st := db.Stats()
	if st.AutoCheckpoints == 0 {
		t.Fatalf("horizon advanced without auto checkpoints: %+v", st)
	}
	if st.Checkpoints < st.AutoCheckpoints {
		t.Fatalf("auto checkpoints (%d) not counted in Checkpoints (%d)",
			st.AutoCheckpoints, st.Checkpoints)
	}
	if st.SweepPages == 0 {
		t.Fatal("background sweeps wrote no pages")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: rows whose log was recycled live only in the pagefile.
	db2, err := Open(Options{LogPath: dir, SegmentSize: segSize})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	tbl2, err := db2.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	if err := db2.RebuildAfterRecovery(); err != nil {
		t.Fatal(err)
	}
	verifyRows(t, db2, tbl2, 1, last)
	if db2.Stats().LogBase == 0 {
		t.Fatal("reopened database lost its truncation base")
	}
}

// TestBackgroundCheckpointerSurvivesCrash runs the same property on the
// in-memory segmented device with simulated power loss: committed rows
// survive Crash with only background checkpoints bounding the log.
func TestBackgroundCheckpointerSurvivesCrash(t *testing.T) {
	const segSize = 16 << 10
	db, err := Open(Options{SegmentSize: segSize, CheckpointEveryBytes: 2 * segSize})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	last := waitLogBaseAbove(t, db, tbl, 1, 0)
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
	tbl, err = db.LookupTable("t")
	if err != nil {
		t.Fatal(err)
	}
	verifyRows(t, db, tbl, 1, last)
	// The restarted engine re-arms the checkpointer: the horizon must
	// keep advancing after recovery too.
	waitLogBaseAbove(t, db, tbl, last, db.Stats().LogBase)
}
