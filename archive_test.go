package aether

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"aether/internal/logdev"
)

// waitFor polls cond for up to two seconds — the background archiver
// runs on its own goroutine, so tests wait for it instead of assuming
// scheduling order.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// restoredKeys returns how many rows RestoreTo(RestorePoint()) — the
// committed state replayed from the cold store's history stitched to the
// hot log — holds for table, failing unless they are exactly the keys
// [1, want].
func restoredKeys(t *testing.T, db *DB, table string, want uint64) {
	t.Helper()
	at := db.RestorePoint()
	r, err := db.RestoreTo(at)
	if err != nil {
		t.Fatalf("RestoreTo(%d): %v", at, err)
	}
	defer r.Close()
	next := uint64(1)
	if err := r.Scan(table, func(key uint64, _ []byte) bool {
		if key != next {
			t.Fatalf("restored state jumps from key %d to %d", next-1, key)
		}
		next++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if next-1 != want {
		t.Fatalf("restored state holds keys 1..%d, want 1..%d", next-1, want)
	}
}

// TestArchiverShipsDeadSegmentsBeforeRecycle drives the full lifecycle
// through the public API, on one lane and on four: commits fill
// segments, checkpoints kill them, the background archiver ships every
// dead segment to the cold store, and only then are their slots recycled
// — so the union of cold store and hot directory always covers the
// entire history, and replaying that union from offset 0 reproduces the
// committed state although the hot log holds only the tail.
func TestArchiverShipsDeadSegmentsBeforeRecycle(t *testing.T) {
	for _, n := range []int{1, 4} {
		t.Run(fmt.Sprintf("N=%d", n), func(t *testing.T) {
			const segSize = 16 << 10
			logDir := filepath.Join(t.TempDir(), "wal.d")
			db, err := Open(Options{
				LogPath:       logDir,
				SegmentSize:   segSize,
				ArchiveDir:    filepath.Join(logDir, "archive"),
				LogPartitions: n,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			tbl, err := db.CreateTable("t")
			if err != nil {
				t.Fatal(err)
			}

			writeRows(t, db, tbl, 1, 301) // several segments of traffic
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			st := db.Stats()
			if st.LogBase == 0 {
				t.Fatalf("checkpoint did not truncate: %+v", st)
			}
			waitFor(t, "background archiver drain", func() bool {
				s := db.Stats()
				return s.LogSegmentsPendingArchive == 0 && s.LogSegmentsArchived > 0
			})

			st = db.Stats()
			if st.LogSegmentsArchived != st.LogSegmentsRecycled {
				t.Fatalf("recycled %d segments but archived %d — a slot was reused before cold storage had it",
					st.LogSegmentsRecycled, st.LogSegmentsArchived)
			}
			// Every segment wholly below a lane's base is accounted for:
			// in the cold store or still in the hot directory.
			for i, l := range db.lanes {
				covered := make(map[int64]bool)
				archived, err := l.remote.Segments()
				if err != nil {
					t.Fatal(err)
				}
				for _, idx := range archived {
					covered[idx] = true
				}
				for _, si := range l.seg.Segments() {
					covered[si.Index] = true
				}
				for idx := int64(0); (idx+1)*segSize <= l.seg.Base(); idx++ {
					if !covered[idx] {
						t.Fatalf("lane %d: segment %d (below base %d) vanished without reaching cold storage", i, idx, l.seg.Base())
					}
				}
			}
			restoredKeys(t, db, "t", 300)

			// More traffic and another checkpoint keep the lifecycle moving.
			writeRows(t, db, tbl, 301, 401)
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			waitFor(t, "second drain", func() bool { return db.Stats().LogSegmentsPendingArchive == 0 })
			verifyRows(t, db, tbl, 1, 401)
			restoredKeys(t, db, "t", 400)
		})
	}
}

// TestArchiveDirRestoresThroughSegmentObjects: a local archive is the
// cloud tier on a directory — one write-once object under seg/ per
// archived segment, nothing else — and RestoreTo reads the history back
// through those objects, also after a reopen.
func TestArchiveDirRestoresThroughSegmentObjects(t *testing.T) {
	const segSize = 8 << 10
	logDir := filepath.Join(t.TempDir(), "wal.d")
	coldDir := filepath.Join(logDir, "archive")
	opts := Options{LogPath: logDir, SegmentSize: segSize, ArchiveDir: coldDir}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	for batch := uint64(0); batch < 4; batch++ {
		writeRows(t, db, tbl, 1+batch*100, 1+(batch+1)*100)
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "archiver drain under ArchiveDir", func() bool {
		s := db.Stats()
		return s.LogSegmentsArchived > 0 && s.LogSegmentsPendingArchive == 0
	})
	objs := dirImage(t, coldDir)
	if int64(len(objs)) != db.Stats().LogSegmentsArchived {
		t.Fatalf("%d objects under %s for %d archived segments: %v", len(objs), coldDir, db.Stats().LogSegmentsArchived, imageNames(objs))
	}
	for idx := int64(0); idx < int64(len(objs)); idx++ {
		if _, ok := objs[filepath.Join("seg", fmt.Sprintf("%016d", idx))]; !ok {
			t.Fatalf("no object for archived segment %d: %v", idx, imageNames(objs))
		}
	}
	restoredKeys(t, db, "t", 400)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db, err = Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	if err := db.RebuildAfterRecovery(); err != nil {
		t.Fatal(err)
	}
	restoredKeys(t, db, "t", 400)
}

// TestArchiveDirOldLayoutRefused: an ArchiveDir still holding the *.seg
// files of the earlier one-file-per-segment archive is refused with the
// typed format error — not read as "nothing archived yet", which would
// restart its history — and nothing in it is touched.
func TestArchiveDirOldLayoutRefused(t *testing.T) {
	for _, n := range []int{1, 4} {
		logDir := filepath.Join(t.TempDir(), "wal.d")
		coldDir := filepath.Join(logDir, "archive")
		laneRoot := logdev.LaneDir(coldDir, n-1, n)
		if err := os.MkdirAll(laneRoot, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(laneRoot, "0000000000000000.seg"), make([]byte, 4096), 0o644); err != nil {
			t.Fatal(err)
		}
		before := dirImage(t, coldDir)
		_, err := Open(Options{LogPath: logDir, SegmentSize: 4096, ArchiveDir: coldDir, LogPartitions: n})
		if !errors.Is(err, logdev.ErrFormat) {
			t.Fatalf("N=%d: Open over an old-layout archive: %v, want logdev.ErrFormat", n, err)
		}
		if after := dirImage(t, coldDir); !reflect.DeepEqual(before, after) {
			t.Fatalf("N=%d: refused open changed the archive: %v → %v", n, imageNames(before), imageNames(after))
		}
	}
}

// The background archiver also rides the background checkpointer: with
// both enabled, the log stays bounded and archived with zero client
// calls.
func TestBackgroundArchiverWithAutoCheckpoint(t *testing.T) {
	const segSize = 16 << 10
	logDir := filepath.Join(t.TempDir(), "wal.d")
	db, err := Open(Options{
		LogPath:              logDir,
		SegmentSize:          segSize,
		ArchiveDir:           filepath.Join(logDir, "archive"),
		CheckpointEveryBytes: 2 * segSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	writeRows(t, db, tbl, 1, 400)
	waitFor(t, "auto checkpoint + archive", func() bool {
		s := db.Stats()
		return s.AutoCheckpoints > 0 && s.LogSegmentsArchived > 0 && s.LogSegmentsPendingArchive == 0
	})
	st := db.Stats()
	if st.LogSegmentsArchived != st.LogSegmentsRecycled {
		t.Fatalf("recycled %d ≠ archived %d under the background pipeline",
			st.LogSegmentsRecycled, st.LogSegmentsArchived)
	}
	verifyRows(t, db, tbl, 1, 400)
}

// TestTornTailRepairedOnReopen is the crash-correctness acceptance test
// at the API level: a power loss that persists a later segment's
// unsynced bytes but not an earlier one's used to fail Open as
// "corruption"; the durable watermark repairs it and recovers every
// committed transaction.
func TestTornTailRepairedOnReopen(t *testing.T) {
	const segSize = 16 << 10
	logDir := filepath.Join(t.TempDir(), "wal.d")
	db, err := Open(Options{LogPath: logDir, SegmentSize: segSize})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	writeRows(t, db, tbl, 1, 100)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate the power loss: a later segment full of unsynced bytes
	// hit the platter while the earlier (tail) segment's unsynced bytes
	// did not. Before the watermark, reopen computed durability from
	// file sizes, read the gap as zeros, and failed.
	matches, err := filepath.Glob(filepath.Join(logDir, "*.seg"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no segment files: %v", err)
	}
	var maxIdx int64 = -1
	for _, m := range matches {
		var idx int64
		if _, err := fmt.Sscanf(filepath.Base(m), "%d.seg", &idx); err == nil && idx > maxIdx {
			maxIdx = idx
		}
	}
	junk := make([]byte, segSize)
	for i := range junk {
		junk[i] = 0xAB
	}
	tornSeg := filepath.Join(logDir, fmt.Sprintf("%016d.seg", maxIdx+1))
	if err := os.WriteFile(tornSeg, junk, 0o644); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(Options{LogPath: logDir, SegmentSize: segSize})
	if err != nil {
		t.Fatalf("Open failed on a repairable torn tail: %v", err)
	}
	defer db2.Close()
	if got := db2.Stats().LogTornTailRepaired; got == 0 {
		t.Fatal("Stats.LogTornTailRepaired = 0, want the discarded torn bytes counted")
	}
	if _, err := os.Stat(tornSeg); !os.IsNotExist(err) {
		t.Fatal("torn segment survived the repair")
	}
	tbl2, err := db2.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	if err := db2.RebuildAfterRecovery(); err != nil {
		t.Fatal(err)
	}
	verifyRows(t, db2, tbl2, 1, 100)
}

// Without a cold store the history below the truncation base is gone:
// RestoreTo says so instead of replaying a log that starts mid-history.
func TestRestoreToWithoutColdStore(t *testing.T) {
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
	writeRows(t, db, tbl, 1, 21)
	restoredKeys(t, db, "t", 20) // nothing truncated yet: the hot log is the whole history
	writeRows(t, db, tbl, 21, 301)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if db.Stats().LogBase == 0 {
		t.Fatal("checkpoint did not truncate")
	}
	if _, err := db.RestoreTo(db.RestorePoint()); err == nil || !strings.Contains(err.Error(), "archive incomplete") {
		t.Fatalf("RestoreTo over a truncated log with no cold store: %v, want the archive-incomplete refusal", err)
	}
}

// TestOldRecordFormatDirectoryRefused: a database directory whose
// MANIFEST says format 10, 9, 8, 7, 6, 5, 4, 3 or 2 — today's files
// around an earlier slot layout or record encoding (format 10: a CRC-32C
// of the covered bytes in each watermark slot; format 9: a checkpoint's
// tables in one record, not in chunks; format 8: the full TxnID on every record of a
// transaction; format 7: a CRC-32C in every record's frame and no seals;
// format 6: a back-pointer on every record but a
// commit or an end; format 5: an update's before and after images both
// logged; format 4: a fixed 8-byte record frame, chained commit
// and end records; format 3: whole insert and delete rows, a CLR's
// undo-next as is; format 2: 48-byte headers, whole-row images) — is
// refused by Open
// with the typed format error at every lane count, and nothing in it is
// touched: not the log, not the pagefile, not a stale temporary in its
// cold store (sweeping those is the write-side open's job, and this is
// not a directory it may write).
func TestOldRecordFormatDirectoryRefused(t *testing.T) {
	for _, n := range []int{1, 3} {
		logDir := filepath.Join(t.TempDir(), "wal.d")
		opts := Options{LogPath: logDir, SegmentSize: 4096, ArchiveDir: filepath.Join(logDir, "archive"), LogPartitions: n, Mode: CommitSync}
		db, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := db.CreateTable("t")
		if err != nil {
			t.Fatal(err)
		}
		s := db.Session()
		tx := s.Begin()
		if err := tx.Insert(tbl, 1, Row(1, []byte("written by this version"))); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		s.Close()
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		stale := filepath.Join(opts.ArchiveDir, "seg", "0000000000000009.1.tmp")
		if err := os.MkdirAll(filepath.Dir(stale), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(stale, []byte("half an object"), 0o644); err != nil {
			t.Fatal(err)
		}
		manifests := make(map[string]string)
		for i := 0; i < n; i++ {
			manifest := filepath.Join(logdev.LaneDir(logDir, i, n), "MANIFEST")
			b, err := os.ReadFile(manifest)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(string(b), "format 11\n") {
				t.Fatalf("N=%d: %s does not say format 11: %q", n, manifest, b)
			}
			manifests[manifest] = string(b)
		}
		// What an earlier version's writer would have left: the same
		// layout under the older format number.
		for _, format := range []string{"format 10\n", "format 9\n", "format 8\n", "format 7\n", "format 6\n", "format 5\n", "format 4\n", "format 3\n", "format 2\n"} {
			for manifest, b := range manifests {
				if err := os.WriteFile(manifest, []byte(strings.Replace(b, "format 11\n", format, 1)), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			before := dirImage(t, logDir)
			if _, err := Open(opts); !errors.Is(err, logdev.ErrFormat) {
				t.Fatalf("N=%d: Open over a %q directory: %v, want logdev.ErrFormat", n, format, err)
			}
			if after := dirImage(t, logDir); !reflect.DeepEqual(before, after) {
				t.Fatalf("N=%d: refused open of a %q directory changed it: %v → %v", n, format, imageNames(before), imageNames(after))
			}
		}
	}
}
