package aether

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"aether/internal/logdev"
)

// writeRows commits each key in [from, to) in its own transaction with a
// payload large enough to push the log through segments quickly (and
// not zero: a row's zero tail is not logged).
func writeRows(t *testing.T, db *DB, tbl *Table, from, to uint64) {
	t.Helper()
	s := db.Session()
	defer s.Close()
	payload := bytes.Repeat([]byte{0xa5}, 256)
	for k := from; k < to; k++ {
		tx := s.Begin()
		if err := tx.Insert(tbl, k, Row(k, payload)); err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("commit %d: %v", k, err)
		}
	}
}

func verifyRows(t *testing.T, db *DB, tbl *Table, from, to uint64) {
	t.Helper()
	s := db.Session()
	defer s.Close()
	tx := s.Begin()
	for k := from; k < to; k++ {
		if _, err := tx.Read(tbl, k); err != nil {
			t.Fatalf("read %d after recovery: %v", k, err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// deadSegmentFiles lists every lane's segment files that lie wholly
// below the lane's truncation base, its newest file aside: log no reader
// reaches that still takes space.
func deadSegmentFiles(db *DB) ([]string, error) {
	var dead []string
	for i, l := range db.lanes {
		dir := logdev.LaneDir(db.root, i, len(db.lanes))
		entries, err := db.fs.ReadDir(dir)
		if err != nil {
			return nil, err
		}
		newest, idxs := int64(-1), []int64{}
		for _, e := range entries {
			name, ok := strings.CutSuffix(e.Name(), ".seg")
			if !ok {
				continue
			}
			idx, err := strconv.ParseInt(name, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("stray file %s in %s", e.Name(), dir)
			}
			idxs = append(idxs, idx)
			newest = max(newest, idx)
		}
		for _, idx := range idxs {
			if idx != newest && (idx+1)*l.seg.SegmentSize() <= l.seg.Base() {
				dead = append(dead, filepath.Join(dir, fmt.Sprintf("%016d.seg", idx)))
			}
		}
	}
	return dead, nil
}

// A checkpoint's unlinks are not made durable, so a power cut brings the
// segments it recycled back below the MANIFEST's base. On a database
// without a cold store the next checkpoint recycles them: no dead
// segment outlives a crash.
func TestCrashLeavesNoDeadSegments(t *testing.T) {
	const segSize = 16 << 10
	db, err := Open(Options{SegmentSize: segSize})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	writeRows(t, db, tbl, 1, 300) // ≥ 4 segments
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if n := db.Stats().LogSegmentsRecycled; n < 4 {
		t.Fatalf("checkpoint recycled %d segments, want ≥ 4", n)
	}
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if n := db.Stats().LogSegmentsPendingArchive; n != 0 {
		t.Fatalf("LogSegmentsPendingArchive = %d on a database without a cold store, want 0", n)
	}
	dead, err := deadSegmentFiles(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(dead) > 0 {
		t.Fatalf("%d dead segment files outlived the crash and a checkpoint: %v", len(dead), dead)
	}
	verifyRows(t, db, tbl, 1, 300)
}

// TestCheckpointTruncatesAndRecoveryReadsOnlyTail is the tentpole's
// acceptance test on the in-memory segmented device: a workload that
// writes several segments, a checkpoint that recycles the dead prefix,
// more traffic, a crash — and a recovery that reads only bytes at or
// above the truncation base.
func TestCheckpointTruncatesAndRecoveryReadsOnlyTail(t *testing.T) {
	const segSize = 16 << 10
	db, err := Open(Options{SegmentSize: segSize})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}

	// Enough traffic for ≥ 4 segments (each row logs ~300B).
	writeRows(t, db, tbl, 1, 300)
	if got := db.Stats().LogBytes; got < 4*segSize {
		t.Fatalf("workload only logged %d bytes, want ≥ 4 segments (%d)", got, 4*segSize)
	}

	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.LogTruncations == 0 || st.LogBase == 0 {
		t.Fatalf("checkpoint did not truncate: %+v", st)
	}
	if st.LogSegmentsRecycled < 4 {
		t.Fatalf("only %d segments recycled, want ≥ 4", st.LogSegmentsRecycled)
	}
	if st.LogTruncatedBytes < 4*segSize {
		t.Fatalf("only %d bytes truncated, want ≥ %d", st.LogTruncatedBytes, 4*segSize)
	}

	// Post-truncation traffic, then a crash.
	writeRows(t, db, tbl, 300, 400)
	base := db.Stats().LogBase
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
	tbl, err = db.LookupTable("t")
	if err != nil {
		t.Fatal(err)
	}
	verifyRows(t, db, tbl, 1, 400)

	// The device itself proves recovery never touched the dead prefix.
	if low := db.lanes[0].seg.LowestRead(); low < base {
		t.Fatalf("recovery read offset %d, below truncation base %d", low, base)
	}
}

// TestFileBackedSegmentedRecovery reopens a directory-backed database
// whose dead segments were recycled and checks every committed row
// survives — the process-restart variant of the crash test.
func TestFileBackedSegmentedRecovery(t *testing.T) {
	const segSize = 16 << 10
	dir := filepath.Join(t.TempDir(), "wal.d")
	db, err := Open(Options{LogPath: dir, SegmentSize: segSize})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	writeRows(t, db, tbl, 1, 300)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.LogSegmentsRecycled < 4 {
		t.Fatalf("only %d segments recycled, want ≥ 4", st.LogSegmentsRecycled)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
	liveBytes := int64(0)
	for range files {
		liveBytes += segSize
	}
	if liveBytes >= st.LogBytes {
		t.Fatalf("no disk space reclaimed: %d live segment bytes vs %d logged", liveBytes, st.LogBytes)
	}
	writeRows(t, db, tbl, 300, 350)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Double Close stays safe (the device is closed too, exactly once).
	if err := db.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	// A plain reopen must find everything: the segmented log's dead
	// prefix only exists as page images in the on-disk archive, and
	// Open wires that archive up automatically.
	db2, err := Open(Options{LogPath: dir, SegmentSize: segSize})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	t.Cleanup(func() { db2.Close() })
	tbl2, err := db2.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	if err := db2.RebuildAfterRecovery(); err != nil {
		t.Fatal(err)
	}
	verifyRows(t, db2, tbl2, 1, 350)
	if base := db2.Stats().LogBase; base == 0 {
		t.Fatal("reopened database lost its truncation base")
	}
}

func TestTruncationHorizonRespectsActiveTxns(t *testing.T) {
	const segSize = 8 << 10
	db, err := Open(Options{SegmentSize: segSize})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}

	// An old transaction stays open across heavy traffic and a
	// checkpoint; its undo chain pins the horizon.
	sOld := db.Session()
	defer sOld.Close()
	txOld := sOld.Begin()
	if err := txOld.Insert(tbl, 999999, Row(999999, []byte("old"))); err != nil {
		t.Fatal(err)
	}
	writeRows(t, db, tbl, 1, 200)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.LogTruncatedBytes > st.LogBytes {
		t.Fatalf("truncated more than was logged: %+v", st)
	}
	// The old transaction must still be able to roll back.
	if err := txOld.Abort(); err != nil {
		t.Fatalf("abort after checkpoint truncation: %v", err)
	}
	// And after a crash, its key must be gone while the others survive.
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
	tbl, err = db.LookupTable("t")
	if err != nil {
		t.Fatal(err)
	}
	verifyRows(t, db, tbl, 1, 200)
	s2 := db.Session()
	defer s2.Close()
	tx := s2.Begin()
	if _, err := tx.Read(tbl, 999999); err == nil {
		t.Fatal("aborted transaction's row survived recovery")
	}
	tx.Commit()
}

// TestFileBackedReopenAfterCheckpointCleansDPT is the regression test
// for the archive-volatility bug: a checkpoint removes archived pages
// from the DPT, so a later checkpoint's DPT snapshot no longer covers
// them and reopen-redo skips their log records — their only copy is the
// archive, which therefore must survive the process.
func TestFileBackedReopenAfterCheckpointCleansDPT(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.d")
	db, err := Open(Options{LogPath: path})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	writeRows(t, db, tbl, 1, 50) // dirties pages
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err) // archives them and cleans the DPT
	}
	writeRows(t, db, tbl, 50, 60) // unrelated later traffic
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err) // snapshot DPT no longer mentions the early pages
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(Options{LogPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	tbl2, err := db2.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	if err := db2.RebuildAfterRecovery(); err != nil {
		t.Fatal(err)
	}
	verifyRows(t, db2, tbl2, 1, 60)
}

// TestReopenStartsAtCheckpointHorizon: the truncation horizon a
// checkpoint reports is on disk when it returns, whether or not a
// segment died under it — so a reopen scans the log from that
// checkpoint, not from wherever a segment boundary last fell. One
// megabyte of log in 8 MiB segments recycles nothing; without the
// horizon in the MANIFEST the reopened database would report LogBase 0
// and recovery would walk the whole megabyte to find the checkpoint.
func TestReopenStartsAtCheckpointHorizon(t *testing.T) {
	opts := Options{LogPath: filepath.Join(t.TempDir(), "wal.d"), SegmentSize: 8 << 20}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	s := db.Session()
	payload := bytes.Repeat([]byte{0xa5}, 4000)
	for k := uint64(1); k <= 256; {
		tx := s.Begin()
		for i := 0; i < 8; i, k = i+1, k+1 {
			if err := tx.Insert(tbl, k, Row(k, payload)); err != nil {
				t.Fatalf("insert %d: %v", k, err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.LogBytes < 1_000_000 || st.LogSegmentsRecycled != 0 {
		t.Fatalf("test invalid: want ≥ 1 MB logged and no segment recycled, got %d bytes, %d segments", st.LogBytes, st.LogSegmentsRecycled)
	}
	if st.LogBase < 1_000_000 {
		t.Fatalf("checkpoint left the horizon at %d with %d bytes logged", st.LogBase, st.LogBytes)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	if got := db2.Stats().LogBase; got != st.LogBase {
		t.Fatalf("reopened at LogBase %d, the checkpoint before Close reported %d", got, st.LogBase)
	}
	tbl2, err := db2.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	if err := db2.RebuildAfterRecovery(); err != nil {
		t.Fatal(err)
	}
	verifyRows(t, db2, tbl2, 1, 257)
}
