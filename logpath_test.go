package aether

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"aether/internal/logdev"
)

// reopen opens opts and re-creates table "t" the way every reopen does.
func reopen(t *testing.T, opts Options) (*DB, *Table) {
	t.Helper()
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.RebuildAfterRecovery(); err != nil {
		t.Fatal(err)
	}
	return db, tbl
}

// commitKey commits a one-row transaction holding key.
func commitKey(t *testing.T, db *DB, tbl *Table, key uint64) {
	t.Helper()
	s := db.Session()
	defer s.Close()
	tx := s.Begin()
	if err := tx.Insert(tbl, key, Row(key, []byte("v"))); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit %d: %v", key, err)
	}
}

// TestTornTailDoesNotEatNextCommit: bytes past the log's durable end —
// here a record frame that claims 64 bytes of which only 20 reached the
// disk — are a torn tail. Open must discard them, not read them as
// durable: a log that resumed its LSN space behind the fragment would
// have recovery stop at the fragment and drop every commit written after
// it, acknowledged ones included.
func TestTornTailDoesNotEatNextCommit(t *testing.T) {
	opts := Options{LogPath: filepath.Join(t.TempDir(), "wal.log"), Mode: CommitSync}
	db, tbl := reopen(t, opts)
	commitKey(t, db, tbl, 1)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// The log's last bytes live in its newest segment file, which is
	// allocated full-size: the fragment goes right after the durable end.
	dev, err := logdev.OpenSegmentedDirRO(opts.LogPath)
	if err != nil {
		t.Fatal(err)
	}
	end, segSize := dev.DurableSize(), dev.SegmentSize()
	dev.Close()
	tail := filepath.Join(opts.LogPath, fmt.Sprintf("%016d.seg", end/segSize))
	frag := make([]byte, 20)
	binary.LittleEndian.PutUint32(frag, 64)
	for i := 4; i < len(frag); i++ {
		frag[i] = 0xAB
	}
	f, err := os.OpenFile(tail, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(frag, logdev.SegmentHeaderSize+end%segSize); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	db, tbl = reopen(t, opts)
	if got := db.Stats().LogTornTailRepaired; got != int64(len(frag)) {
		t.Fatalf("Stats.LogTornTailRepaired = %d, want the %d-byte fragment", got, len(frag))
	}
	commitKey(t, db, tbl, 2) // acknowledged: CommitSync returned nil
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db, tbl = reopen(t, opts)
	defer db.Close()
	s := db.Session()
	defer s.Close()
	tx := s.Begin()
	for k := uint64(1); k <= 2; k++ {
		if _, err := tx.Read(tbl, k); err != nil {
			t.Fatalf("acked key %d: %v", k, err)
		}
	}
	tx.Commit()
}

// TestOldSingleFileLogRefused: a regular file at LogPath is the
// single-file log of an earlier version. Open refuses it at every lane
// count with the typed format error and changes nothing in or beside it.
func TestOldSingleFileLogRefused(t *testing.T) {
	for _, n := range []int{1, 3} {
		dir := t.TempDir()
		path := filepath.Join(dir, "wal.log")
		if err := os.WriteFile(path, []byte("an old single-file log"), 0o644); err != nil {
			t.Fatal(err)
		}
		before := dirImage(t, dir)
		if _, err := Open(Options{LogPath: path, LogPartitions: n}); !errors.Is(err, logdev.ErrFormat) {
			t.Fatalf("N=%d: Open over a single-file log: %v, want logdev.ErrFormat", n, err)
		}
		if after := dirImage(t, dir); !reflect.DeepEqual(before, after) {
			t.Fatalf("N=%d: refused open changed the directory: %v → %v", n, imageNames(before), imageNames(after))
		}
	}
}

// TestDefaultSegmentSize: SegmentSize 0 is 8 MiB for a new log and the
// MANIFEST's size on reopen, and it is enough for every configuration
// that used to demand an explicit size — a cold store on a partitioned
// log among them.
func TestDefaultSegmentSize(t *testing.T) {
	t.Run("new log", func(t *testing.T) {
		for _, logPath := range []string{"", filepath.Join(t.TempDir(), "wal.d")} {
			db, err := Open(Options{LogPath: logPath})
			if err != nil {
				t.Fatal(err)
			}
			if got := db.lanes[0].seg.SegmentSize(); got != logdev.DefaultSegmentSize {
				t.Errorf("LogPath %q: segment size %d, want %d", logPath, got, logdev.DefaultSegmentSize)
			}
			db.Close()
		}
	})
	t.Run("reopen adopts the manifest", func(t *testing.T) {
		opts := Options{LogPath: filepath.Join(t.TempDir(), "wal.d"), SegmentSize: 4096}
		db, tbl := reopen(t, opts)
		writeRows(t, db, tbl, 1, 51)
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		opts.SegmentSize = 0
		db, tbl = reopen(t, opts)
		defer db.Close()
		if got := db.lanes[0].seg.SegmentSize(); got != 4096 {
			t.Fatalf("reopened at segment size %d, want the MANIFEST's 4096", got)
		}
		verifyRows(t, db, tbl, 1, 51)
	})
	t.Run("archive partitioned", func(t *testing.T) {
		logDir := filepath.Join(t.TempDir(), "wal.d")
		db, err := Open(Options{LogPath: logDir, ArchiveDir: filepath.Join(logDir, "archive"), LogPartitions: 3})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		tbl, err := db.CreateTable("t")
		if err != nil {
			t.Fatal(err)
		}
		writeRows(t, db, tbl, 1, 101)
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		for i, l := range db.lanes {
			if got := l.remote.SegmentSize(); got != l.seg.SegmentSize() {
				t.Fatalf("lane %d: cold store built for %d-byte segments, the log's are %d", i, got, l.seg.SegmentSize())
			}
		}
		restoredKeys(t, db, "t", 100)
	})
}
