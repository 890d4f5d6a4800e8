package aether

import (
	"errors"
	"fmt"
	"testing"
)

// TestInMemoryDatabaseFsyncs: an in-memory database is the file-backed
// engine on an in-memory filesystem, so it issues the fsyncs a
// file-backed one does — at least one per log flush, and at least two
// (the page images, then the commit record) per checkpoint page batch —
// and reports them.
func TestInMemoryDatabaseFsyncs(t *testing.T) {
	db, err := Open(Options{Mode: CommitSync})
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
	for k := uint64(1); k <= 20; k++ {
		tx := s.Begin()
		if err := tx.Insert(tbl, k, Row(k, []byte("v"))); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	st := db.Stats()
	if st.LogFlushes < 20 || st.LogFsyncs < st.LogFlushes {
		t.Fatalf("%d log fsyncs for %d flushes of 20 blocking commits, want at least one per flush", st.LogFsyncs, st.LogFlushes)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st = db.Stats()
	if st.Checkpoints != 1 || st.SweepPages == 0 || st.SweepFsyncs < 2 {
		t.Fatalf("checkpoint %d swept %d pages with %d fsyncs, want at least 2 for its one batch", st.Checkpoints, st.SweepPages, st.SweepFsyncs)
	}
}

// TestCrashKeepsAckedRollsBackInFlight cuts the power under an
// in-memory database, on one lane and on three, with a transaction in
// flight whose updates are in the durable log and, after a checkpoint,
// in the database file: every acknowledged commit survives, and the
// in-flight transaction is rolled back wholly.
func TestCrashKeepsAckedRollsBackInFlight(t *testing.T) {
	for _, n := range []int{1, 3} {
		t.Run(fmt.Sprintf("N=%d", n), func(t *testing.T) {
			db, err := Open(Options{LogPartitions: n, Mode: CommitSync})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			tt, err := db.CreateTable("t")
			if err != nil {
				t.Fatal(err)
			}
			tu, err := db.CreateTable("u")
			if err != nil {
				t.Fatal(err)
			}
			s := db.Session()
			const acked = 30
			for k := uint64(1); k <= acked; k++ {
				tx := s.Begin()
				first, second := tt, tu
				if k%2 == 0 {
					first, second = tu, tt
				}
				if err := tx.Insert(first, k, Row(k, []byte("acked"))); err != nil {
					t.Fatal(err)
				}
				if err := tx.Insert(second, k, Row(k, []byte("acked"))); err != nil {
					t.Fatal(err)
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
			}

			loserSession := db.Session()
			loser := loserSession.Begin()
			for k := uint64(1); k <= acked; k += 3 {
				kk := k
				lost := func([]byte) ([]byte, error) { return Row(kk, []byte("lost")), nil }
				if err := loser.Update(tu, k, lost); err != nil {
					t.Fatal(err)
				}
				if err := loser.Insert(tt, 1000+k, Row(1000+k, []byte("lost"))); err != nil {
					t.Fatal(err)
				}
			}
			// The loser's records reach the log and its pages the
			// database file; then one more acknowledged commit.
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			tx := s.Begin()
			if err := tx.Insert(tt, acked+1, Row(acked+1, []byte("acked"))); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			s.Close()

			if err := db.Crash(); err != nil {
				t.Fatal(err)
			}
			loserSession.Close()
			tt, _ = db.LookupTable("t")
			tu, _ = db.LookupTable("u")
			s = db.Session()
			defer s.Close()
			check := s.Begin()
			for k := uint64(1); k <= acked+1; k++ {
				for _, tbl := range []*Table{tt, tu} {
					if tbl == tu && k > acked {
						continue
					}
					row, err := check.Read(tbl, k)
					if err != nil {
						t.Fatalf("acknowledged row %d lost: %v", k, err)
					}
					if got := string(RowPayload(row)); got != "acked" {
						t.Fatalf("row %d = %q after the crash, want the acknowledged value", k, got)
					}
				}
			}
			for k := uint64(1); k <= acked; k += 3 {
				if _, err := check.Read(tt, 1000+k); !errors.Is(err, ErrKeyNotFound) {
					t.Fatalf("in-flight insert %d survived the crash: %v", 1000+k, err)
				}
			}
			if err := check.Commit(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
