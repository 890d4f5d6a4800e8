package aether

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aether/internal/logdev"
	"aether/internal/logrec"
	"aether/internal/vfs"
)

// restoreModel tracks the expected committed state at each captured
// restore point.
type restoreModel map[uint64][]byte

func (m restoreModel) clone() restoreModel {
	c := make(restoreModel, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

// restoredState scans a table of a RestoredDB into a map, and closes
// the RestoredDB.
func restoredState(t *testing.T, r *RestoredDB, table string) restoreModel {
	t.Helper()
	defer r.Close()
	got := make(restoreModel)
	if err := r.Scan(table, func(key uint64, row []byte) bool {
		got[key] = append([]byte(nil), RowPayload(row)...)
		return true
	}); err != nil {
		t.Fatalf("Scan: %v", err)
	}
	return got
}

func diffModel(want, got restoreModel) string {
	for k, v := range want {
		g, ok := got[k]
		if !ok {
			return fmt.Sprintf("key %d missing (want %q)", k, v)
		}
		if !bytes.Equal(v, g) {
			return fmt.Sprintf("key %d: want %q, got %q", k, v, g)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			return fmt.Sprintf("key %d unexpected (%q)", k, got[k])
		}
	}
	return ""
}

// TestRestoreToSingle drives a single segmented log archiving into a
// fault-injecting object store — transient 5xx storms and a torn
// upload throughout — captures a restore point after every batch, and
// checks RestoreTo reproduces the exact committed state at each one,
// including points where an uncommitted transaction straddled the
// capture (its updates must be rolled back in the restored state).
func TestRestoreToSingle(t *testing.T) {
	store := NewMemObjectStore()
	db, err := Open(Options{
		SegmentSize:        4096,
		RemoteStore:        store,
		SnapshotEveryBytes: 8192,
		Mode:               CommitSync,
	})
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
	model := make(restoreModel)
	type point struct {
		at   int64
		want restoreModel
	}
	var points []point

	const batches = 12
	for b := 0; b < batches; b++ {
		// A transient 5xx storm on the upload path every other batch:
		// the archiver's backoff must ride it out with zero loss.
		if b%2 == 0 {
			store.Arm(logdev.NetFault{FailPuts: 2})
		}
		for i := 0; i < 10; i++ {
			key := uint64(b*10 + i)
			val := []byte(fmt.Sprintf("b%02d-i%02d", b, i))
			tx := s.Begin()
			if key%7 == 3 && b > 0 {
				// Rewrite an older key now and then.
				old := uint64(b*10+i) % uint64(b*10)
				if _, ok := model[old]; ok {
					if err := tx.Update(tbl, old, func([]byte) ([]byte, error) {
						return Row(old, val), nil
					}); err != nil {
						t.Fatal(err)
					}
					model[old] = val
				}
			}
			if err := tx.Insert(tbl, key, Row(key, val)); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			model[key] = val
		}
		if b == 7 {
			// Leave a transaction in flight across the capture: its
			// durable updates must be undone by the restore.
			straddler := s.db.Session()
			tx := straddler.Begin()
			if err := tx.Update(tbl, uint64(b*10), func([]byte) ([]byte, error) {
				return Row(uint64(b*10), []byte("uncommitted")), nil
			}); err != nil {
				t.Fatal(err)
			}
			// Harden the straddler's update without committing it: a
			// later commit on another session flushes the shared log.
			tx2 := s.Begin()
			if err := tx2.Insert(tbl, 9990, Row(9990, []byte("flusher"))); err != nil {
				t.Fatal(err)
			}
			if err := tx2.Commit(); err != nil {
				t.Fatal(err)
			}
			model[9990] = []byte("flusher")
			points = append(points, point{at: db.RestorePoint(), want: model.clone()})
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			model[uint64(b*10)] = []byte("uncommitted")
			straddler.Close()
		} else {
			points = append(points, point{at: db.RestorePoint(), want: model.clone()})
		}
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	// Tear the very next upload mid-object: the store keeps a truncated
	// prefix, the archiver must detect it and re-ship. Drive batches
	// until the tear actually fires (uploads are asynchronous).
	store.Arm(logdev.NetFault{TearPutAfter: 1})
	deadline := time.Now().Add(20 * time.Second)
	for b := batches; store.Stats().TornPuts == 0; b++ {
		if time.Now().After(deadline) {
			t.Fatalf("no upload torn: %+v", store.Stats())
		}
		for i := 0; i < 10; i++ {
			key := uint64(b*10 + i)
			val := []byte(fmt.Sprintf("b%02d-i%02d", b, i))
			tx := s.Begin()
			if err := tx.Insert(tbl, key, Row(key, val)); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			model[key] = val
		}
		points = append(points, point{at: db.RestorePoint(), want: model.clone()})
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	store.Arm(logdev.NetFault{})

	for i, p := range points {
		r, err := db.RestoreTo(p.at)
		if err != nil {
			t.Fatalf("RestoreTo(point %d @ %d): %v", i, p.at, err)
		}
		if d := diffModel(p.want, restoredState(t, r, "t")); d != "" {
			t.Fatalf("point %d @ %d: %s", i, p.at, d)
		}
	}

	// The faults healed: nothing may stay parked forever.
	waitDrain := time.Now().Add(10 * time.Second)
	for db.Stats().LogSegmentsPendingArchive > 0 {
		if time.Now().After(waitDrain) {
			t.Fatalf("segments stuck pending after faults healed: %+v", db.Stats())
		}
		_ = db.Checkpoint()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRestoreToPartitioned is the same round-trip on a 4-partition log:
// per-partition lanes in the shared object store, restore merged by
// global seq.
func TestRestoreToPartitioned(t *testing.T) {
	store := NewMemObjectStore()
	db, err := Open(Options{
		SegmentSize:    4096,
		LogPartitions:  4,
		RoutePartition: func(txnID uint64, _ uint32) int { return int(txnID % 4) },
		RemoteStore:    store,
		Mode:           CommitSync,
	})
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
	model := make(restoreModel)
	type point struct {
		at   int64
		want restoreModel
	}
	var points []point

	for b := 0; b < 10; b++ {
		if b%3 == 0 {
			store.Arm(logdev.NetFault{FailPuts: 2})
		}
		for i := 0; i < 10; i++ {
			key := uint64(b*10 + i)
			val := []byte(fmt.Sprintf("p%02d-%02d", b, i))
			tx := s.Begin()
			if err := tx.Insert(tbl, key, Row(key, val)); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			model[key] = val
		}
		points = append(points, point{at: db.RestorePoint(), want: model.clone()})
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	store.Arm(logdev.NetFault{})

	for i, p := range points {
		r, err := db.RestoreTo(p.at)
		if err != nil {
			t.Fatalf("RestoreTo(point %d @ seq %d): %v", i, p.at, err)
		}
		if d := diffModel(p.want, restoredState(t, r, "t")); d != "" {
			t.Fatalf("point %d @ seq %d: %s", i, p.at, d)
		}
	}
}

// TestRetentionFloorProperty is the retention invariant: pruning never
// reaches the oldest restorable point. Once retention has raised the
// floor, RestoreTo at the exact floor succeeds and one stamp below fails
// with the typed error — and every captured point at or above the floor
// still round-trips. It holds on three lanes as on one: a snapshot is a
// page file and its restore point a stamp.
func TestRetentionFloorProperty(t *testing.T) {
	for _, n := range []int{1, 3} {
		t.Run(fmt.Sprintf("N=%d", n), func(t *testing.T) { testRetentionFloorProperty(t, n) })
	}
}

func testRetentionFloorProperty(t *testing.T, lanes int) {
	store := NewMemObjectStore()
	db, err := Open(Options{
		SegmentSize:        4096,
		RemoteStore:        store,
		SnapshotEveryBytes: 4096,
		RetainSnapshots:    2,
		Mode:               CommitSync,
		LogPartitions:      lanes,
		RoutePartition:     func(txnID uint64, _ uint32) int { return int(txnID) },
	})
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
	model := make(restoreModel)
	type point struct {
		at   int64
		want restoreModel
	}
	var points []point

	// Drive history until retention has pruned the start of the log: a
	// first prune may drop only a snapshot, leaving the floor at 0 while
	// the log objects under it survive.
	deadline := time.Now().Add(30 * time.Second)
	var key uint64
	for db.Stats().RestoreFloor == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("retention never raised the floor: %+v", db.Stats())
		}
		for i := 0; i < 10; i++ {
			key++
			val := []byte(fmt.Sprintf("v%05d", key))
			tx := s.Begin()
			if err := tx.Insert(tbl, key, Row(key, val)); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			model[key] = val
		}
		points = append(points, point{at: db.RestorePoint(), want: model.clone()})
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}

	// Stop the background daemons before reading the floor the checks
	// use: a maintenance pass a checkpoint nudged may still be running,
	// and it can cut a snapshot and raise the floor under them. RestoreTo
	// needs none of the daemons.
	db.eng.Close()
	floor := db.Stats().RestoreFloor

	// Exactly at the floor: must succeed.
	if r, err := db.RestoreTo(floor); err != nil {
		t.Fatalf("RestoreTo(floor %d): %v", floor, err)
	} else {
		r.Close()
	}
	// One below: typed error.
	if _, err := db.RestoreTo(floor - 1); !errors.Is(err, ErrRestorePruned) {
		t.Fatalf("RestoreTo(floor-1) = %v, want ErrRestorePruned", err)
	}
	// Every captured point at or above the floor still round-trips.
	checked := 0
	for i, p := range points {
		if p.at < floor {
			continue
		}
		r, err := db.RestoreTo(p.at)
		if err != nil {
			t.Fatalf("RestoreTo(point %d @ %d, floor %d): %v", i, p.at, floor, err)
		}
		if d := diffModel(p.want, restoredState(t, r, "t")); d != "" {
			t.Fatalf("point %d @ %d: %s", i, p.at, d)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no captured point at or above the floor; test drove too little history")
	}
}

// TestRestoreScratchSweptOnOpen: a file-backed RestoreTo keeps its copy
// in <LogPath>.restore-<k> until RestoredDB.Close. One whose process dies
// first — here, the power fails and its Close cannot remove anything —
// leaves the directory behind, and the next Open of the database removes
// it. A RestoredDB still open in this process keeps its directory across
// another Open of the same path.
func TestRestoreScratchSweptOnOpen(t *testing.T) {
	fs := vfs.NewFaultFS(11)
	opts := Options{LogPath: "/db", SegmentSize: 4096, Mode: CommitSync, fs: fs}
	open := func() (*DB, *Table) {
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
	exists := func(dir string) bool {
		t.Helper()
		_, err := fs.Stat(dir)
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			t.Fatal(err)
		}
		return err == nil
	}

	db, tbl := open()
	writeRows(t, db, tbl, 1, 6)
	r, err := db.RestoreTo(db.RestorePoint())
	if err != nil {
		t.Fatal(err)
	}
	left := r.scratch
	fs.PowerCut()
	r.Close()
	db.Close()
	fs.Recover()
	if !exists(left) {
		t.Fatalf("test invalid: the power cut took %s with it", left)
	}
	db, tbl = open()
	if exists(left) {
		t.Fatalf("Open left %s, which no RestoredDB holds", left)
	}

	r, err = db.RestoreTo(db.RestorePoint())
	if err != nil {
		t.Fatal(err)
	}
	held := r.scratch
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, _ = open()
	defer db.Close()
	if !exists(held) {
		t.Fatalf("Open removed %s under an open RestoredDB", held)
	}
	if row, err := r.Get("t", 5); err != nil || len(row) == 0 {
		t.Fatalf("the open RestoredDB lost row 5: %q, %v", row, err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if exists(held) {
		t.Fatalf("RestoredDB.Close left %s", held)
	}
}

// pruneOnSegmentGet is a cold store whose first GET of a segment object,
// once armed, runs prune before it answers: a retention pass that lands
// while a restore copies the log.
type pruneOnSegmentGet struct {
	ObjectStore
	armed atomic.Bool
	once  sync.Once
	prune func()
}

func (s *pruneOnSegmentGet) Get(key string) ([]byte, error) {
	if s.armed.Load() && strings.HasPrefix(key, "seg/") {
		s.once.Do(s.prune)
	}
	return s.ObjectStore.Get(key)
}

// TestRestoreRacingPruneIsTyped: a restore reads the floor, picks the
// newest snapshot at or below its target and copies the lane's log from
// that snapshot's low-water mark; a prune that advances the floor past
// the target meanwhile deletes the segment objects the copy needs. The
// restore then reports what happened — ErrRestorePruned, with the target
// and the floor it saw — not the copy's untyped refusal.
func TestRestoreRacingPruneIsTyped(t *testing.T) {
	store := &pruneOnSegmentGet{ObjectStore: NewMemObjectStore()}
	db, err := Open(Options{RemoteStore: store, SegmentSize: 4096, SnapshotEveryBytes: 4096, Mode: CommitSync})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	// Checkpoint until the cold tier has taken snapshots enough for a
	// prune to a single one to leave the target below the floor and its
	// snapshot's segment objects deleted.
	snapshots := func(n int64) {
		deadline := time.Now().Add(10 * time.Second)
		for k := uint64(1); db.Stats().LogSnapshots < n; k += 20 {
			if time.Now().After(deadline) {
				t.Fatalf("the cold tier took %d snapshots, want %d", db.Stats().LogSnapshots, n)
			}
			writeRows(t, db, tbl, 1000*uint64(n)+k, 1000*uint64(n)+k+20)
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			time.Sleep(time.Millisecond)
		}
	}
	snapshots(1)
	target := db.RestorePoint()
	snapshots(4)
	if db.Stats().LogSegmentsArchived == 0 {
		t.Fatal("test invalid: no segment was archived")
	}
	var pruned atomic.Bool
	store.prune = func() {
		pruned.Store(true)
		if _, _, err := db.snaps.Prune(1); err != nil {
			t.Error(err)
		}
	}
	store.armed.Store(true)
	r, err := db.RestoreTo(target)
	if !pruned.Load() {
		t.Fatalf("RestoreTo(%d) read no segment object: %v", target, err)
	}
	if err == nil {
		r.Close()
		t.Fatalf("RestoreTo(%d) succeeded after a prune to one snapshot deleted its history", target)
	}
	if !errors.Is(err, ErrRestorePruned) {
		t.Fatalf("RestoreTo(%d) racing a prune: %v, want ErrRestorePruned", target, err)
	}
	if floor := db.Stats().RestoreFloor; floor <= target || !strings.Contains(err.Error(), fmt.Sprintf("floor %d", floor)) {
		t.Fatalf("RestoreTo(%d): %v, want it to name the floor %d", target, err, floor)
	}
}

// TestCutAtSealsWhatItKeeps: a restore that stops inside a batch keeps
// only part of what the batch's seal vouched for, so it seals what it
// keeps; one that stops at a batch's end keeps the seal the batch had.
// Either way the copy's seals vouch for every byte of it.
func TestCutAtSealsWhatItKeeps(t *testing.T) {
	const base = 4096
	var data []byte
	var ends []int // each record's end, in data
	batch := func(recs ...*logrec.Record) {
		from := len(data)
		for _, rec := range recs {
			b, err := rec.Encode()
			if err != nil {
				t.Fatal(err)
			}
			data = append(data, b...)
			ends = append(ends, len(data))
		}
		data = logrec.AppendSeal(data, from)
	}
	batch(logrec.NewCommit(1), logrec.NewCommit(2))
	first := len(data)
	batch(logrec.NewCommit(3), logrec.NewCommit(4), logrec.NewCommit(5))
	for i, end := range ends {
		in := bytes.Clone(data) // cutAt seals in place
		kept, _, err := cutAt(in, base, uint64(base+end), 1, 1<<20)
		if err != nil {
			t.Fatalf("cut after record %d: %v", i, err)
		}
		if &kept[0] != &in[0] {
			t.Fatalf("cut after record %d copied the log it keeps", i)
		}
		if n, err := logrec.Verify(kept, base); n != len(kept) || err != nil {
			t.Fatalf("cut after record %d: the seals vouch for %d of %d kept bytes: %v", i, n, len(kept), err)
		}
		start, sealEnd := 0, first // the batch the record is in
		if i > 1 {
			start, sealEnd = first, len(data)
		}
		if i == 1 || i == 4 { // a batch's last record: its own seal stays
			if !bytes.Equal(kept, data[:sealEnd]) {
				t.Fatalf("cut at the end of a batch kept %d bytes, want the %d through its seal", len(kept), sealEnd)
			}
		} else if !bytes.Equal(kept[:end], data[:end]) || len(kept) != end+logrec.SealSize(end-start) {
			t.Fatalf("cut after record %d kept %d bytes, want its %d and a seal of the batch's part", i, len(kept), end)
		}
	}
}

// TestRestoredCopyOpenReadsOnePiece: a restored copy's log opens reading
// back at most a segment's worth of log bytes and one block past its
// durable end, besides each segment file's header, however many
// segments it spans. copyLog syncs the copy a segment at a time, each
// piece ending at a seal, and a writable open judges the newest
// watermark slot first, which covers the last piece alone; a copy synced
// whole left one slot over all of it, which the open read back in full
// before recovery read it again.
func TestRestoredCopyOpenReadsOnePiece(t *testing.T) {
	const segSize = 4096
	db, err := Open(Options{SegmentSize: segSize, Mode: CommitSync})
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
	for k := uint64(1); k <= 600; k++ {
		tx := s.Begin()
		if err := tx.Insert(tbl, k, Row(k, bytes.Repeat([]byte{byte(k)}, 40))); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	l := db.lanes[0]
	end := l.seg.DurableSize()
	if end < 8*segSize {
		t.Fatalf("the log is %d bytes, want at least 8 segments of %d", end, segSize)
	}
	fs := vfs.NewFaultFS(1)
	if err := l.copyLog(fs, "/copy", 0, uint64(end), 1); err != nil {
		t.Fatal(err)
	}
	tr := fs.Trace()
	mark := tr[len(tr)-1].Seq
	seg, err := logdev.OpenSegmentedDirFS(fs, "/copy", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	if got := seg.DurableSize(); got != end {
		t.Fatalf("the copy opens durable through %d, want %d", got, end)
	}
	var headers, logBytes, files int
	for _, e := range fs.Trace() {
		if e.Seq <= mark || e.Op != vfs.OpRead || !strings.HasSuffix(e.Path, ".seg") {
			continue
		}
		if e.Off < logdev.SegmentHeaderSize {
			headers += e.Len
			files++
		} else {
			logBytes += e.Len
		}
	}
	t.Logf("opening a %d-byte copy read %d log bytes and %d header bytes of %d segment files", end, logBytes, headers, files)
	if files < int(end/segSize) {
		t.Fatalf("the trace saw %d headers read, want one a segment file (%d)", files, end/segSize+1)
	}
	if headers > files*logdev.SegmentHeaderSize {
		t.Errorf("the open read %d header bytes of %d files, want at most one header each", headers, files)
	}
	if limit := segSize + logdev.SegmentHeaderSize; logBytes > limit {
		t.Errorf("the open read back %d log bytes of a %d-byte copy, want at most a segment plus a block past its end (%d)", logBytes, end, limit)
	}
}
