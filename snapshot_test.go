package aether

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"aether/internal/logdev"
	"aether/internal/logrec"
	"aether/internal/lsn"
	"aether/internal/storage"
	"aether/internal/vfs"
)

// putRows commits one transaction that sets each key in keys to a row of
// size bytes filled with fill, inserting the keys it does not hold yet.
func putRows(t *testing.T, db *DB, tbl *Table, keys []uint64, size int, fill byte, model restoreModel) {
	t.Helper()
	s := db.Session()
	defer s.Close()
	tx := s.Begin()
	for _, k := range keys {
		val := bytes.Repeat([]byte{fill}, size)
		row := Row(k, val)
		var err error
		if _, ok := model[k]; ok {
			err = tx.Update(tbl, k, func([]byte) ([]byte, error) { return row, nil })
		} else {
			err = tx.Insert(tbl, k, row)
		}
		if err != nil {
			t.Fatalf("put %d: %v", k, err)
		}
		model[k] = val
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// keyRange returns the keys [from, to).
func keyRange(from, to uint64) []uint64 {
	var keys []uint64
	for k := from; k < to; k++ {
		keys = append(keys, k)
	}
	return keys
}

// TestRestoreSnapshotEquivalence: at one lane and at two, a restore
// seeded by a snapshot equals a restore of the same target from genesis,
// and both equal the committed state, at every target captured — while a
// transaction whose ranged updates (same length, shorter, longer) span a
// checkpoint and a snapshot is in flight at some targets, and commits
// or aborts after them.
func TestRestoreSnapshotEquivalence(t *testing.T) {
	for _, n := range []int{1, 2} {
		t.Run(fmt.Sprintf("N=%d", n), func(t *testing.T) {
			db, err := Open(Options{
				SegmentSize:        4096,
				RemoteStore:        NewMemObjectStore(),
				SnapshotEveryBytes: 256,
				Mode:               CommitSync,
				LogPartitions:      n,
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
			s, straddler := db.Session(), db.Session()
			defer s.Close()
			defer straddler.Close()
			model := make(restoreModel)
			type point struct {
				at   int64
				want restoreModel
			}
			var points []point
			for b := uint64(0); b < 10; b++ {
				// The straddler owns key 1000: it grows, shrinks and rewrites
				// its row while the batch commits around it.
				sk := uint64(1000)
				st := straddler.Begin()
				staged := []byte(fmt.Sprintf("straddle-%02d", b))
				var serr error
				if _, ok := model[sk]; ok {
					serr = st.Update(tbl, sk, func([]byte) ([]byte, error) { return Row(sk, staged), nil })
				} else {
					serr = st.Insert(tbl, sk, Row(sk, staged))
				}
				if serr != nil {
					t.Fatal(serr)
				}
				for _, v := range []string{"straddle", "s", "straddle, but longer now", "sTRADDLE, but longer now"} {
					staged = []byte(v)
					if err := st.Update(tbl, sk, func([]byte) ([]byte, error) { return Row(sk, staged), nil }); err != nil {
						t.Fatal(err)
					}
				}
				for i := uint64(0); i < 6; i++ {
					k := b*6 + i + 1
					val := []byte(fmt.Sprintf("b%02d-%02d", b, i))
					tx := s.Begin()
					if err := tx.Insert(tbl, k, Row(k, val)); err != nil {
						t.Fatal(err)
					}
					if b > 0 && i == 0 {
						// And one delete of an older batch's row.
						if err := tx.Delete(tbl, k-6); err != nil {
							t.Fatal(err)
						}
						delete(model, k-6)
					}
					if err := tx.Commit(); err != nil {
						t.Fatal(err)
					}
					model[k] = val
					points = append(points, point{at: db.RestorePoint(), want: model.clone()})
				}
				if err := db.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				// Every batch logs more than SnapshotEveryBytes: its
				// checkpoint's snapshot copies the straddler's page.
				waitFor(t, "the batch's snapshot", func() bool { return db.Stats().LogSnapshots == int64(b+1) })
				if b%3 == 2 {
					if err := st.Abort(); err != nil {
						t.Fatal(err)
					}
				} else {
					if err := st.Commit(); err != nil {
						t.Fatal(err)
					}
					model[sk] = staged
				}
				points = append(points, point{at: db.RestorePoint(), want: model.clone()})
			}
			db.eng.Close()

			genesis := &logdev.Manifest{Checkpoint: uint64(lsn.Undefined), Lanes: make([]logdev.ManifestLane, n)}
			seeded := 0
			for i, p := range points {
				snap, err := db.snaps.NewestAtOrBelow(uint64(p.at))
				if err != nil {
					t.Fatal(err)
				}
				if snap != nil {
					seeded++
				}
				r, err := db.RestoreTo(p.at)
				if err != nil {
					t.Fatalf("RestoreTo(point %d @ %d): %v", i, p.at, err)
				}
				if d := diffModel(p.want, restoredState(t, r, "t")); d != "" {
					t.Fatalf("point %d @ %d, seeded by a snapshot: %s", i, p.at, d)
				}
				r, err = db.restore(genesis, uint64(p.at))
				if err != nil {
					t.Fatalf("restore of point %d @ %d from genesis: %v", i, p.at, err)
				}
				if d := diffModel(p.want, restoredState(t, r, "t")); d != "" {
					t.Fatalf("point %d @ %d, from genesis: %s", i, p.at, d)
				}
			}
			if seeded < len(points)/2 {
				t.Fatalf("only %d of %d targets had a snapshot to start from", seeded, len(points))
			}
		})
	}
}

// TestRestoreRollsBackInflight: at every lane count, a target before a
// transaction's commit record must not show its updates — although they
// are durable in the log — and a target after it must. On one lane a
// target may also fall inside a record, a stamp no record carries: the
// record it cuts is not there.
func TestRestoreRollsBackInflight(t *testing.T) {
	for _, n := range []int{1, 2} {
		t.Run(fmt.Sprintf("N=%d", n), func(t *testing.T) {
			db, err := Open(Options{
				RemoteStore:    NewMemObjectStore(),
				Mode:           CommitSync,
				LogPartitions:  n,
				RoutePartition: func(txnID uint64, _ uint32) int { return int(txnID) },
			})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			tbl, err := db.CreateTable("t")
			if err != nil {
				t.Fatal(err)
			}
			s1, s2 := db.Session(), db.Session()
			defer s1.Close()
			defer s2.Close()
			t1 := s1.Begin()
			if err := t1.Insert(tbl, 1, Row(1, []byte("one"))); err != nil {
				t.Fatal(err)
			}
			t2 := s2.Begin()
			if err := t2.Insert(tbl, 2, Row(2, []byte("two"))); err != nil {
				t.Fatal(err)
			}
			if err := t2.Commit(); err != nil { // hardens t1's insert too
				t.Fatal(err)
			}
			before := db.RestorePoint()
			if err := t1.Commit(); err != nil {
				t.Fatal(err)
			}
			after := db.RestorePoint()

			cases := []struct {
				at   int64
				want restoreModel
			}{
				{before, restoreModel{2: []byte("two")}},
				{after, restoreModel{1: []byte("one"), 2: []byte("two")}},
			}
			if n == 1 {
				// One byte short of the end of t2's commit record (the
				// seal of its flush follows it).
				cases = append(cases, struct {
					at   int64
					want restoreModel
				}{lastRecordEnd(t, db, before) - 1, restoreModel{}})
			}
			for _, c := range cases {
				r, err := db.RestoreTo(c.at)
				if err != nil {
					t.Fatalf("RestoreTo(%d): %v", c.at, err)
				}
				if d := diffModel(c.want, restoredState(t, r, "t")); d != "" {
					t.Fatalf("RestoreTo(%d): %s", c.at, d)
				}
			}
		})
	}
}

// lastRecordEnd returns the end of the last record on a one-lane
// database's log that ends at or below point: a restore point taken
// after a flush is that flush's seal's end, past its last record.
func lastRecordEnd(t *testing.T, db *DB, point int64) int64 {
	t.Helper()
	data, base, err := logdev.ReadTail(db.lanes[0].seg)
	if err != nil {
		t.Fatal(err)
	}
	end := base
	it := logrec.NewIterator(data, lsn.LSN(base))
	for rec, ok := it.Next(); ok; rec, ok = it.Next() {
		if e := int64(rec.LSN) + int64(rec.TotalLen); e <= point {
			end = e
		}
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	return end
}

// TestRestoreAnalysisStartsAtSnapshotCheckpoint: a restore's log runs
// past the checkpoint its snapshot followed. Two later checkpoints sweep
// pages the snapshot holds older images of; the newest one's dirty-page
// table no longer names them, so an analysis starting there would skip
// their redo. The restore must start at the snapshot's own checkpoint.
func TestRestoreAnalysisStartsAtSnapshotCheckpoint(t *testing.T) {
	db, err := Open(Options{
		RemoteStore:        NewMemObjectStore(),
		SnapshotEveryBytes: 256 << 10,
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
	model := make(restoreModel)
	for k := uint64(1); k <= 400; k += 50 {
		putRows(t, db, tbl, keyRange(k, k+50), 700, 'a', model)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the snapshot", func() bool { return db.Stats().LogSnapshots == 1 })
	for _, fill := range []byte{'b', 'c'} {
		putRows(t, db, tbl, keyRange(uint64(fill)*1000, uint64(fill)*1000+30), 700, fill, model)
		putRows(t, db, tbl, []uint64{7, 300}, 500, fill, model)
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	db.eng.Close()
	if st := db.Stats(); st.LogSnapshots != 1 || st.Checkpoints != 3 {
		t.Fatalf("%d snapshots over %d checkpoints, want 1 over 3", st.LogSnapshots, st.Checkpoints)
	}
	r, err := db.RestoreTo(db.RestorePoint())
	if err != nil {
		t.Fatal(err)
	}
	if d := diffModel(model, restoredState(t, r, "t")); d != "" {
		t.Fatal(d)
	}
}

// TestRestoreMemoryBoundedByCachePages: a restore reads through a buffer
// pool of the live database's CachePages, so replaying a log ten times
// the pool never holds more than that many pages.
func TestRestoreMemoryBoundedByCachePages(t *testing.T) {
	const pool = 16
	db, err := Open(Options{RemoteStore: NewMemObjectStore(), CachePages: pool, Mode: CommitSync})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	model := make(restoreModel)
	// About 7 rows of 1 KiB per page: 200 pages, over ten pools' worth.
	for k := uint64(1); k <= 1400; k += 56 {
		putRows(t, db, tbl, keyRange(k, k+56), 1024, byte(k), model)
	}
	if logged := db.Stats().LogBytes; logged < 10*pool*storage.PageSize {
		t.Fatalf("logged %d bytes, want ten pools' worth (%d)", logged, 10*pool*storage.PageSize)
	}
	r, err := db.RestoreTo(db.RestorePoint())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if st := r.db.Stats(); st.CacheResident > pool || st.PageEvictions == 0 {
		t.Fatalf("after the restore: %d pages resident, %d evicted; want at most %d resident, under pressure", st.CacheResident, st.PageEvictions, pool)
	}
	got := make(restoreModel)
	if err := r.Scan("t", func(key uint64, row []byte) bool {
		got[key] = append([]byte(nil), RowPayload(row)...)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if d := diffModel(model, got); d != "" {
		t.Fatal(d)
	}
	if st := r.db.Stats(); st.CacheResident > pool {
		t.Fatalf("after the scan: %d pages resident, want at most %d", st.CacheResident, pool)
	}
}

// snapshotImages returns how many page images the newest snapshot
// uploaded itself, and how many pages it names.
func snapshotImages(t *testing.T, db *DB) (own, pages int) {
	t.Helper()
	m, err := db.snaps.NewestAtOrBelow(^uint64(0))
	if err != nil || m == nil {
		t.Fatalf("no snapshot (%v)", err)
	}
	for _, p := range m.Pages {
		if p.Object.At == m.At {
			own++
		}
	}
	return own, len(m.Pages)
}

// TestSnapshotUploadsChangedPages: a snapshot costs what changed since
// the previous one, not the database's size. After a first snapshot of
// 1 000 pages, changing 10 of them makes the next snapshot upload at most
// 12 page images.
func TestSnapshotUploadsChangedPages(t *testing.T) {
	db, err := Open(Options{RemoteStore: NewMemObjectStore(), SnapshotEveryBytes: 1, Mode: CommitSync})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	model := make(restoreModel)
	// One 7 000-byte row per page.
	for k := uint64(1); k <= 1000; k += 50 {
		putRows(t, db, tbl, keyRange(k, k+50), 7000, 'a', model)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the first snapshot", func() bool { return db.Stats().LogSnapshots == 1 })
	if own, pages := snapshotImages(t, db); own != pages || pages < 1000 {
		t.Fatalf("first snapshot uploaded %d of its %d pages, want all of at least 1 000", own, pages)
	}
	putRows(t, db, tbl, []uint64{5, 105, 205, 305, 405, 505, 605, 705, 805, 905}, 7000, 'b', model)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the second snapshot", func() bool { return db.Stats().LogSnapshots == 2 })
	if own, pages := snapshotImages(t, db); own > 12 || own < 10 || pages < 1000 {
		t.Fatalf("second snapshot uploaded %d page images of %d pages after 10 changed, want 10 to 12", own, pages)
	}
	db.eng.Close()
	r, err := db.RestoreTo(db.RestorePoint())
	if err != nil {
		t.Fatal(err)
	}
	if d := diffModel(model, restoredState(t, r, "t")); d != "" {
		t.Fatal(d)
	}
}

// TestSnapshotsPinNoSlots: a snapshot copies images out of pagefile.db
// and never holds a slot, so k checkpoint-and-snapshot cycles over a
// fixed working set leave the file no larger than twice the live pages
// plus one batch.
func TestSnapshotsPinNoSlots(t *testing.T) {
	const rows, cycles = 40, 12
	db, err := Open(Options{RemoteStore: NewMemObjectStore(), SnapshotEveryBytes: 1, RetainSnapshots: 2, Mode: CommitSync})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	model := make(restoreModel)
	for c := 0; c < cycles; c++ {
		putRows(t, db, tbl, keyRange(1, rows+1), 7000, byte('a'+c), model)
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "the cycle's snapshot", func() bool { return db.Stats().LogSnapshots == int64(c+1) })
	}
	db.eng.Close()
	pf := db.archive.(*storage.PageFile)
	live := len(pf.Slots())
	fi, err := db.fs.Stat(filepath.Join(db.root, "pagefile.db"))
	if err != nil {
		t.Fatal(err)
	}
	slots := (fi.Size() - 4096) / (32 + storage.PageSize)
	if live < rows || slots > int64(2*live+rows) {
		t.Fatalf("pagefile.db holds %d slots for %d live pages after %d cycles, want at most 2 × live + one batch (%d)", slots, live, cycles, 2*live+rows)
	}
	r, err := db.RestoreTo(db.RestorePoint())
	if err != nil {
		t.Fatal(err)
	}
	if d := diffModel(model, restoredState(t, r, "t")); d != "" {
		t.Fatal(d)
	}
}

// TestRestoreBelowPrunedFloorRefused: once retention has pruned every
// segment object the lane archived — one snapshot kept, the log well
// past its first segments — genesis is gone, so the floor is the oldest
// snapshot's restore point: Stats reports it, and a RestoreTo below it
// is refused with ErrRestorePruned.
func TestRestoreBelowPrunedFloorRefused(t *testing.T) {
	db, err := Open(Options{
		LogPath:            "/db",
		SegmentSize:        4096,
		ArchiveDir:         "/cold",
		SnapshotEveryBytes: 8192,
		RetainSnapshots:    1,
		Mode:               CommitSync,
		fs:                 vfs.NewFaultFS(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	// The cold-tier daemon archives, snapshots and prunes behind the
	// checkpoints, one pass per nudge: write until a pass has left no
	// segment object, and the daemon has nothing more to do.
	prunedBare := func() bool {
		segs, err := db.lanes[0].remote.Segments()
		return err == nil && len(segs) == 0 && db.Stats().LogObjectsPruned > 0
	}
	deadline := time.Now().Add(10 * time.Second)
	for k := uint64(1); ; k += 40 {
		if prunedBare() {
			time.Sleep(50 * time.Millisecond) // for a pass the last checkpoint nudged
			if prunedBare() {
				break
			}
		}
		if time.Now().After(deadline) {
			st := db.Stats()
			t.Fatalf("no pass pruned every segment object: %d objects pruned, %d snapshots", st.LogObjectsPruned, st.LogSnapshots)
		}
		writeRows(t, db, tbl, k, k+40)
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	st := db.Stats()
	if st.RestoreFloor == 0 {
		t.Fatalf("floor 0 with every segment object pruned (%d objects, %d snapshots), want the oldest snapshot's restore point",
			st.LogObjectsPruned, st.LogSnapshots)
	}
	if r, err := db.RestoreTo(1); !errors.Is(err, ErrRestorePruned) {
		if err == nil {
			r.Close()
		}
		t.Fatalf("RestoreTo(1) below floor %d: %v, want ErrRestorePruned", st.RestoreFloor, err)
	}
}
