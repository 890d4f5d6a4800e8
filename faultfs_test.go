package aether

import (
	"errors"
	"path/filepath"
	"testing"

	"aether/internal/vfs"
)

// openFaultDB opens a fully file-backed database (segmented log +
// pagefile archive + cold-store archiver) over the fault filesystem.
func openFaultDB(t *testing.T, fs *vfs.FaultFS) *DB {
	t.Helper()
	db, err := Open(Options{
		LogPath:     "/db",
		SegmentSize: 4096,
		ArchiveDir:  "/cold",
		Mode:        CommitSync,
		fs:          fs,
	})
	if err != nil {
		t.Fatalf("open over FaultFS: %v", err)
	}
	return db
}

// TestFaultFSPowerCutViaFacade exercises the whole public stack over
// the fault filesystem: committed data must survive a power cut that
// lands between transactions, through the same Options surface
// production code uses.
func TestFaultFSPowerCutViaFacade(t *testing.T) {
	fs := vfs.NewFaultFS(3)
	fs.SetTornWrites(true)

	db := openFaultDB(t, fs)
	tbl, err := db.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	s := db.Session()
	tx := s.Begin()
	if err := tx.Insert(tbl, 42, Row(42, []byte("survives"))); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Power-cut without closing anything — the dying daemons' writes
	// fail against the frozen filesystem — then recover and reopen.
	fs.PowerCut()
	db.Close() // error storm expected; must not panic or hang
	fs.Recover()

	db2 := openFaultDB(t, fs)
	defer db2.Close()
	tbl2, err := db2.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	if err := db2.RebuildAfterRecovery(); err != nil {
		t.Fatal(err)
	}
	s2 := db2.Session()
	defer s2.Close()
	tx2 := s2.Begin()
	row, err := tx2.Read(tbl2, 42)
	if err != nil || string(RowPayload(row)) != "survives" {
		t.Fatalf("committed row after power cut: %q, %v", RowPayload(row), err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestFaultFSInjectedSegmentSyncError: a transient fsync error on a
// log segment must surface to the committing transaction as an error,
// not be swallowed as a successful commit.
func TestFaultFSInjectedSegmentSyncError(t *testing.T) {
	fs := vfs.NewFaultFS(4)
	db := openFaultDB(t, fs)
	defer db.Close()
	tbl, err := db.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	s := db.Session()
	defer s.Close()

	tx := s.Begin()
	if err := tx.Insert(tbl, 1, Row(1, []byte("pre"))); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// Every further segment fsync fails permanently: the log device is
	// dying. Commit must report it.
	fs.AddRule(vfs.Rule{Op: vfs.OpSync, Dir: "/db", Path: "*.seg", Err: errors.New("disk failing")})
	tx2 := s.Begin()
	if err := tx2.Insert(tbl, 2, Row(2, []byte("doomed"))); err == nil {
		if err := tx2.Commit(); err == nil {
			t.Fatal("commit succeeded through a failing log-segment fsync")
		}
	}
}

// TestOneFsyncPerBlockingFlush counts, through the fault filesystem's
// op trace, what a blocking Tx.Commit in the default (pipelined) mode
// costs the disk on a file-backed database: every flush is exactly one
// fsync, on one segment file, carrying data and durable watermark
// together, and nothing else is fsynced; a flush that crosses into a
// new segment adds that segment's directory entry and, if the batch
// began in the previous segment, that segment's fsync — and nothing
// else. Stats.LogFsyncs must agree with the filesystem's own count.
// (That one parked commit is one flush is pinned, with the interval
// timer out of the way, by core's TestParkedWaiterWakesDaemon; here the
// timer is live and may split a transaction's records across two
// flushes, so the per-commit assertion is fsyncs == flushes.)
func TestOneFsyncPerBlockingFlush(t *testing.T) {
	fs := vfs.NewFaultFS(5)
	db, err := Open(Options{LogPath: "/db", SegmentSize: 4096, fs: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	s := db.Session()
	defer s.Close()
	commit := func(key uint64) {
		t.Helper()
		tx := s.Begin()
		if err := tx.Insert(tbl, key, Row(key, []byte("one fsync per flush"))); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	commit(1) // creates segment 0 and its directory entry

	var mark uint64
	if tr := fs.Trace(); len(tr) > 0 {
		mark = tr[len(tr)-1].Seq
	}
	before := db.Stats()
	steady, switches, singleFlush := 0, 0, 0
	for key := uint64(2); key < 120; key++ {
		commit(key)
		segPaths := map[string]int{}
		var segSyncs, dirSyncs int64
		for _, e := range fs.Trace() {
			if e.Seq <= mark || (e.Op != vfs.OpSync && e.Op != vfs.OpSyncDir) {
				continue
			}
			switch {
			case e.Op == vfs.OpSync && filepath.Dir(e.Path) == "/db" && filepath.Ext(e.Path) == ".seg":
				segSyncs++
				segPaths[e.Path]++
			case e.Op == vfs.OpSyncDir && e.Path == "/db":
				dirSyncs++
			default:
				t.Errorf("commit %d fsynced %s (%s)", key, e.Path, e.Op)
			}
		}
		tr := fs.Trace()
		mark = tr[len(tr)-1].Seq
		after := db.Stats()
		flushes := after.LogFlushes - before.LogFlushes
		if got := after.LogFsyncs - before.LogFsyncs; got != segSyncs+dirSyncs {
			t.Fatalf("commit %d: Stats.LogFsyncs moved by %d, the filesystem saw %d", key, got, segSyncs+dirSyncs)
		}
		before = after
		if flushes < 1 {
			t.Fatalf("commit %d returned without a flush", key)
		}
		if dirSyncs == 0 {
			steady++
			if segSyncs != flushes || len(segPaths) != 1 {
				t.Fatalf("commit %d, steady state: %d flushes cost %d segment fsyncs over %d files, want one each on one file",
					key, flushes, segSyncs, len(segPaths))
			}
			if flushes == 1 {
				singleFlush++
			}
			continue
		}
		switches++
		if dirSyncs != 1 || segSyncs < flushes || segSyncs > flushes+1 || len(segPaths) > 2 {
			t.Fatalf("commit %d, segment switch: %d flushes cost %d segment fsyncs over %d files and %d directory fsyncs",
				key, flushes, segSyncs, len(segPaths), dirSyncs)
		}
	}
	if switches == 0 || steady == 0 {
		t.Fatalf("saw %d steady-state commits and %d segment switches; the test needs both", steady, switches)
	}
	if singleFlush == 0 {
		t.Fatal("no commit completed in a single flush")
	}
	t.Logf("%d steady-state commits (%d in one flush = one fsync), %d segment switches", steady, singleFlush, switches)
}
