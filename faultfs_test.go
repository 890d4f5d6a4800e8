package aether

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"aether/internal/storage"
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

// TestPageFileWriteErrorKeepsCommitsAcked: the database file's disk
// starts failing every write. The first write-back that meets it — a
// cleaner pass here — fails and leaves the page file failed; every later
// one fails too and the pages stay dirty, so the log behind them is
// kept. Commits never touch the page file and keep being acknowledged.
// Once the disk is back, the file holds exactly the images it had
// committed before the failure, and a reopen recovers every acknowledged
// commit from it and the log.
func TestPageFileWriteErrorKeepsCommitsAcked(t *testing.T) {
	fs := vfs.NewFaultFS(6)
	opts := Options{LogPath: "/db", SegmentSize: 4096, CachePages: 16, CleanerPages: 14, Mode: CommitSync, fs: fs}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	s := db.Session()
	want := map[uint64]string{}
	put := func(key uint64, val string) {
		t.Helper()
		tx := s.Begin()
		var err error
		if _, ok := want[key]; ok {
			err = tx.Update(tbl, key, func([]byte) ([]byte, error) { return Row(key, []byte(val)), nil })
		} else {
			err = tx.Insert(tbl, key, Row(key, []byte(val)))
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("commit of key %d: %v", key, err)
		}
		want[key] = val
	}
	filler := strings.Repeat("x", 900)
	for key := uint64(1); key <= 40; key++ {
		put(key, fmt.Sprintf("v1-%d-%s", key, filler))
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	committed := db.archive.(*storage.PageFile).Slots()
	if len(committed) == 0 {
		t.Fatal("the checkpoint wrote no page")
	}

	fs.AddRule(vfs.Rule{Op: vfs.OpWrite, Dir: "/db", Path: "pagefile.db", Err: errors.New("disk failing")})
	deadline := time.Now().Add(10 * time.Second)
	for round := 0; db.eng.Stats().CleanerFailures.Load() == 0; round++ {
		if time.Now().After(deadline) {
			t.Fatal("no cleaner pass met the failing disk")
		}
		for key := uint64(1); key <= 40; key += 3 {
			put(key, fmt.Sprintf("v%d-%d-%s", round+2, key, filler))
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("checkpoint over the failed page file: %v", err)
	}
	for key := uint64(41); key <= 60; key++ {
		put(key, fmt.Sprintf("late-%d-%s", key, filler))
	}
	if dirty := db.eng.Store().DirtyPages(); len(dirty) == 0 {
		t.Fatal("the failed write-backs cleaned pages")
	}
	s.Close()
	db.Close()
	fs.ClearRules()

	pf, err := storage.OpenPageFileFS(fs, "/db/pagefile.db")
	if err != nil {
		t.Fatal(err)
	}
	if got := pf.Slots(); fmt.Sprint(got) != fmt.Sprint(committed) {
		t.Fatalf("page file after the failure:\n%v\nwant the images committed before it:\n%v", got, committed)
	}
	pf.Close()

	db2, err := Open(opts)
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
	s2 := db2.Session()
	defer s2.Close()
	tx := s2.Begin()
	got := map[uint64]string{}
	if err := tx.Scan(tbl2, 0, 1<<20, func(key uint64, row []byte) bool {
		got[key] = string(RowPayload(row))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("reopen holds %d rows, %d were acknowledged", len(got), len(want))
	}
	for key, val := range want {
		if got[key] != val {
			t.Fatalf("key %d after reopen: %.12q, want %.12q", key, got[key], val)
		}
	}
}

// TestAbortRetryResumesRollback: a rollback that fails part way — the
// page of the transaction's older update was evicted, and faulting it
// back in fails once — leaves the transaction to a retried Abort, which
// resumes where the failure stopped. The newer update, compensated
// before the failure, is not compensated again (an update logs its
// changed bytes as an XOR, so a second undo would put the write back),
// and both rows hold their committed values, before a crash and after.
func TestAbortRetryResumesRollback(t *testing.T) {
	db, err := Open(Options{CachePages: 8, Mode: CommitSync})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	const rows = 200 // of about 900 bytes: far more pages than the pool holds
	val := func(tag string, key uint64) []byte {
		return Row(key, []byte(fmt.Sprintf("%s-%d-%s", tag, key, strings.Repeat("x", 900))))
	}
	s := db.Session()
	load := s.Begin()
	for key := uint64(1); key <= rows; key++ {
		if err := load.Insert(tbl, key, val("old", key)); err != nil {
			t.Fatal(err)
		}
	}
	if err := load.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	set := func(row []byte) func([]byte) ([]byte, error) {
		return func([]byte) ([]byte, error) { return row, nil }
	}
	tx := s.Begin()
	if err := tx.Update(tbl, 1, set(val("new", 1))); err != nil {
		t.Fatal(err)
	}
	for key := uint64(rows / 4); key < rows; key++ { // evicts the first row's page
		if _, err := tx.Read(tbl, key); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Update(tbl, rows, set(val("new", rows))); err != nil {
		t.Fatal(err)
	}
	db.mem.AddRule(vfs.Rule{Op: vfs.OpRead, Path: "pagefile.db", Times: 1})
	if err := tx.Abort(); err == nil || !strings.Contains(err.Error(), "undo fault") {
		t.Fatalf("Abort with the first row's page unreadable: %v, want an undo fault", err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatalf("retried Abort: %v", err)
	}
	check := func(when string) {
		t.Helper()
		rd := s.Begin()
		for _, key := range []uint64{1, rows} {
			got, err := rd.Read(tbl, key)
			if err != nil || !bytes.Equal(got, val("old", key)) {
				t.Fatalf("%s: row %d reads %.12q (%v), want its committed value", when, key, got, err)
			}
		}
		if err := rd.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	check("after the retried abort")
	s.Close()
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
	if tbl, err = db.LookupTable("t"); err != nil {
		t.Fatal(err)
	}
	s = db.Session()
	check("after a crash")
	s.Close()
}
