package aether

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"aether/internal/vfs"
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

// TestGrownRowPastItsPage grows a row past what its page can hold: the
// update must fail before anything is logged, so that committing or
// aborting the transaction afterwards leaves nothing for recovery to
// redo or undo, and the database survives a crash with every row as it
// was.
func TestGrownRowPastItsPage(t *testing.T) {
	for _, tc := range []struct {
		name   string
		finish func(*Tx) error
	}{
		{"commit", (*Tx).Commit},
		{"abort", (*Tx).Abort},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db, err := Open(Options{Mode: CommitSync, DeadlockTimeout: 200 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			tbl, err := db.CreateTable("t")
			if err != nil {
				t.Fatal(err)
			}
			const rows = 30
			payload := make([]byte, 240) // 248-byte rows: one page holds them all
			s := db.Session()
			for k := uint64(1); k <= rows; k++ {
				tx := s.Begin()
				if err := tx.Insert(tbl, k, Row(k, payload)); err != nil {
					t.Fatal(err)
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			tx := s.Begin()
			grow := func([]byte) ([]byte, error) { return Row(5, make([]byte, 4000)), nil }
			if err := tx.Update(tbl, 5, grow); err == nil {
				t.Fatal("a row grown past its page was stored")
			}
			if err := tc.finish(tx); err != nil {
				t.Fatalf("%s after the failed update: %v", tc.name, err)
			}
			s.Close()
			verify := func(when string) {
				t.Helper()
				s := db.Session()
				defer s.Close()
				tx := s.Begin()
				for k := uint64(1); k <= rows; k++ {
					row, err := tx.Read(tbl, k)
					if err != nil {
						t.Fatalf("%s: row %d: %v", when, k, err)
					}
					if !bytes.Equal(row, Row(k, payload)) {
						t.Fatalf("%s: row %d is %d bytes, want the %d it was written with", when, k, len(row), 8+len(payload))
					}
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			verify("before the crash")
			if err := db.Crash(); err != nil {
				t.Fatal(err)
			}
			tbl, _ = db.LookupTable("t")
			verify("after the crash")
		})
	}
}

// TestCloseAfterFailedCrash: when the reopen inside Crash fails — here
// recovery cannot make its rollback of an in-flight transaction durable
// — Crash reports it, and Close still releases the files instead of
// reaching for the engine that never started.
func TestCloseAfterFailedCrash(t *testing.T) {
	db, err := Open(Options{Mode: CommitSync})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	writeRows(t, db, tbl, 1, 10)
	loser := db.Session()
	defer loser.Close()
	tx := loser.Begin()
	if err := tx.Insert(tbl, 100, Row(100, []byte("in flight"))); err != nil {
		t.Fatal(err)
	}
	// One more commit hardens the in-flight insert's record too.
	writeRows(t, db, tbl, 10, 11)

	db.mem.AddRule(vfs.Rule{Op: vfs.OpSync, Path: "*.seg", Err: errors.New("fsync: I/O error")})
	if err := db.Crash(); err == nil {
		t.Fatal("Crash succeeded although recovery could not sync its rollback")
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close after the failed Crash: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
