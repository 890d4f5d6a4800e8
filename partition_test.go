package aether

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"aether/internal/logrec"
	"aether/internal/lsn"
)

// TestPartitionedRoundTrip drives a 4-partition in-memory database with
// concurrent writers whose transactions deliberately touch pages homed
// on other partitions (cross-log dependency edges), crashes it, and
// checks that recovery — which verifies every record's PrevPageSeq edge
// while merging the logs — restores exactly the committed state.
func TestPartitionedRoundTrip(t *testing.T) {
	db, err := Open(Options{LogPartitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	const tables = 4
	tbls := make([]*Table, tables)
	for i := range tbls {
		if tbls[i], err = db.CreateTable(fmt.Sprintf("t%d", i)); err != nil {
			t.Fatal(err)
		}
	}

	const workers = 4
	const perWorker = 60
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := db.Session()
			defer s.Close()
			for k := 0; k < perWorker; k++ {
				key := uint64(w*perWorker + k + 1)
				tx := s.Begin()
				// First insert homes the transaction on table w's
				// partition; the second touches a different table whose
				// pages other workers (homed elsewhere) also update —
				// that is what manufactures cross-log page dependencies.
				if err := tx.Insert(tbls[w%tables], key, Row(key, []byte("home"))); err != nil {
					t.Error(err)
					tx.Abort()
					return
				}
				other := tbls[(w+1)%tables]
				if err := tx.Insert(other, key+100000, Row(key+100000, []byte("away"))); err != nil {
					t.Error(err)
					tx.Abort()
					return
				}
				if err := tx.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	st := db.Stats()
	if st.LogPartitions != 4 {
		t.Fatalf("LogPartitions = %d, want 4", st.LogPartitions)
	}
	if st.DepEdges == 0 {
		t.Fatalf("workload produced no cross-partition dependency edges; the test is not exercising A.5")
	}
	var parts int
	for _, b := range st.PartitionBytes {
		if b > 0 {
			parts++
		}
	}
	if parts < 2 {
		t.Fatalf("log bytes landed on %d partition(s), want >= 2 (routing broken?): %v", parts, st.PartitionBytes)
	}

	// Crash + recover: RecoverMulti errors out if any record's
	// PrevPageSeq edge was violated in the merged order, so a clean
	// Crash() is itself the zero-dependency-violations assertion.
	if err := db.Crash(); err != nil {
		t.Fatalf("crash recovery: %v", err)
	}
	s := db.Session()
	defer s.Close()
	tx := s.Begin()
	for w := 0; w < workers; w++ {
		tbl, err := db.LookupTable(fmt.Sprintf("t%d", w%tables))
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < perWorker; k++ {
			key := uint64(w*perWorker + k + 1)
			if _, err := tx.Read(tbl, key); err != nil {
				t.Fatalf("committed row t%d/%d lost after crash: %v", w%tables, key, err)
			}
		}
	}
	tx.Commit()
}

// TestPartitionedFileBackedReopen writes through a 4-partition
// file-backed database, closes it, and reopens it — recovery must merge
// the partition logs by global seq and restore every committed row.
func TestPartitionedFileBackedReopen(t *testing.T) {
	dir := t.TempDir()
	opts := Options{LogPath: dir, SegmentSize: 1 << 16, LogPartitions: 4}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	tbls := make([]*Table, 4)
	for i := range tbls {
		tbls[i], _ = db.CreateTable(fmt.Sprintf("t%d", i))
	}
	s := db.Session()
	for k := uint64(1); k <= 200; k++ {
		tx := s.Begin()
		if err := tx.Insert(tbls[k%4], k, Row(k, []byte("v"))); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// The partition layout is on disk now: p0..p3 plus the shared
	// pagefile.
	for i := 0; i < 4; i++ {
		if _, err := Open(Options{LogPath: dir, SegmentSize: 1 << 16}); err == nil {
			t.Fatal("opening a partitioned directory in single-log mode must fail")
		} else if !strings.Contains(err.Error(), "partitioned") {
			t.Fatalf("unhelpful layout error: %v", err)
		}
		break
	}
	if _, err := Open(Options{LogPath: dir, SegmentSize: 1 << 16, LogPartitions: 2}); err == nil {
		t.Fatal("opening a 4-partition directory with LogPartitions=2 must fail")
	}

	db, err = Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := range tbls {
		if tbls[i], err = db.CreateTable(fmt.Sprintf("t%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.RebuildAfterRecovery(); err != nil {
		t.Fatal(err)
	}
	s = db.Session()
	defer s.Close()
	tx := s.Begin()
	for k := uint64(1); k <= 200; k++ {
		if _, err := tx.Read(tbls[k%4], k); err != nil {
			t.Fatalf("row %d lost across reopen: %v", k, err)
		}
	}
	tx.Commit()
}

// TestLegacyLayoutCompat pins the backward-compatibility contract:
// LogPartitions 0 and 1 take the identical single-log code path, the
// directory they produce is the legacy layout, and a legacy directory
// reopens unchanged — while opening it with LogPartitions >= 2 is
// refused rather than silently reinterpreted.
func TestLegacyLayoutCompat(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{LogPath: dir, SegmentSize: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.CreateTable("t")
	s := db.Session()
	tx := s.Begin()
	if err := tx.Insert(tbl, 1, Row(1, []byte("legacy"))); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// A legacy directory must not open partitioned.
	if _, err := Open(Options{LogPath: dir, SegmentSize: 1 << 16, LogPartitions: 4}); err == nil {
		t.Fatal("opening a legacy single-log directory with LogPartitions=4 must fail")
	} else if !strings.Contains(err.Error(), "single-log") {
		t.Fatalf("unhelpful layout error: %v", err)
	}

	// LogPartitions: 1 is a lane count like any other, and one lane keeps
	// the flat layout: the directory reopens bit-for-bit (same MANIFEST,
	// same segments, no p0/), reports as the unpartitioned log it is, and
	// stamps with LSNs — no global seq is ever handed out.
	before := dirImage(t, dir)
	db, err = Open(Options{LogPath: dir, SegmentSize: 1 << 16, LogPartitions: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st := db.Stats(); st.LogPartitions != 0 || st.PartitionBytes != nil || st.DepStalls != nil {
		t.Fatalf("one lane must report as the unpartitioned log; Stats says %d lanes, per-lane %v %v", st.LogPartitions, st.PartitionBytes, st.DepStalls)
	}
	if tbl, err = db.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	if err := db.RebuildAfterRecovery(); err != nil {
		t.Fatal(err)
	}
	s = db.Session()
	tx = s.Begin()
	row, err := tx.Read(tbl, 1)
	if err != nil || string(RowPayload(row)) != "legacy" {
		t.Fatalf("legacy row: %q, %v", RowPayload(row), err)
	}
	tx.Commit()
	s.Close()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if after := dirImage(t, dir); !reflect.DeepEqual(before, after) {
		t.Fatalf("reopening the flat layout with LogPartitions=1 changed it:\nbefore %v\nafter  %v", imageNames(before), imageNames(after))
	}

	// And it writes the flat layout's log: new records carry no seq.
	db, err = Open(Options{LogPath: dir, SegmentSize: 1 << 16, LogPartitions: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if tbl, err = db.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	if err := db.RebuildAfterRecovery(); err != nil {
		t.Fatal(err)
	}
	s = db.Session()
	defer s.Close()
	tx = s.Begin()
	if err := tx.Insert(tbl, 2, Row(2, []byte("flat"))); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if seq := db.eng.Multi().LastSeq(); seq != 0 {
		t.Fatalf("a one-lane log consumed %d global seqs", seq)
	}
	data, base, err := db.lanes[0].seg.RestoreLog(db.lanes[0].remote, 0)
	if err != nil {
		t.Fatal(err)
	}
	it := logrec.NewIterator(data, lsn.LSN(base))
	n := 0
	for rec, ok := it.Next(); ok; rec, ok = it.Next() {
		if n++; rec.Seq != 0 {
			t.Fatalf("record at %v carries seq %d on a one-lane log", rec.LSN, rec.Seq)
		}
	}
	if n < 4 {
		t.Fatalf("only %d records in the flat log", n)
	}
}

// dirImage reads every regular file under dir, by relative path.
func dirImage(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	img := make(map[string][]byte)
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		rel, _ := filepath.Rel(dir, path)
		img[rel] = b
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func imageNames(img map[string][]byte) []string {
	var names []string
	for name, b := range img {
		names = append(names, fmt.Sprintf("%s(%d)", name, len(b)))
	}
	sort.Strings(names)
	return names
}

// TestPartitionedCheckpointTruncation checks that checkpoints advance
// every partition's truncation horizon (bounded logs in multi mode).
func TestPartitionedCheckpointTruncation(t *testing.T) {
	db, err := Open(Options{SegmentSize: 1 << 14, LogPartitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	t0, _ := db.CreateTable("a")
	t1, _ := db.CreateTable("b")
	s := db.Session()
	defer s.Close()
	payload := make([]byte, 512)
	for round := 0; round < 6; round++ {
		for k := uint64(1); k <= 40; k++ {
			key := uint64(round*1000) + k
			tx := s.Begin()
			tbl := t0
			if k%2 == 0 {
				tbl = t1
			}
			if err := tx.Insert(tbl, key, Row(key, payload)); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	if st := db.Stats(); st.LogBase == 0 {
		t.Fatalf("no partition truncated across 6 checkpoints: %+v", st.LogBase)
	}
}
