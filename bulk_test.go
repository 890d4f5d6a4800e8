package aether

import (
	"encoding/binary"
	"errors"
	"testing"

	"aether/internal/storage"
)

// bulkRows is how many rows the bulk tests insert in one transaction:
// far past the 64 row locks after which a transaction escalates to a
// table lock.
const bulkRows = 10_000

// bulkInsert inserts keys from..to-1 into tbl in tx, each row carrying
// payload.
func bulkInsert(t *testing.T, tx *Tx, tbl *Table, from, to uint64, payload string) {
	t.Helper()
	for k := from; k < to; k++ {
		if err := tx.Insert(tbl, k, Row(k, []byte(payload))); err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
	}
}

// heapRows counts the live rows in tbl's heap, bypassing the index.
func heapRows(t *testing.T, tbl *Table) int {
	t.Helper()
	n := 0
	if err := tbl.t.Heap.Scan(func(storage.RID, []byte) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	return n
}

// expectRows checks that keys from..to-1 of tbl read back with payload,
// and that tbl's index and heap hold exactly that many rows.
func expectRows(t *testing.T, db *DB, tbl *Table, from, to uint64, payload string) {
	t.Helper()
	s := db.Session()
	defer s.Close()
	tx := s.Begin()
	for k := from; k < to; k++ {
		row, err := tx.Read(tbl, k)
		if err != nil {
			t.Fatalf("row %d: %v", k, err)
		}
		if got := string(RowPayload(row)); got != payload {
			t.Fatalf("row %d = %q, want %q", k, got, payload)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if n, want := tbl.t.Index.Len(), int(to-from); n != want {
		t.Fatalf("index holds %d keys, want %d", n, want)
	}
	if n, want := heapRows(t, tbl), int(to-from); n != want {
		t.Fatalf("heap holds %d rows, want %d", n, want)
	}
}

// TestBulkInsertCommitSurvivesCrash: a 10 000-row insert transaction
// escalates to a table lock and pins at most 65 lock heads — its table
// and the 64 rows before the escalation — and once committed every row
// survives a power cut.
func TestBulkInsertCommitSurvivesCrash(t *testing.T) {
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
	tx := s.Begin()
	bulkInsert(t, tx, tbl, 1, bulkRows+1, "bulk")
	if heads := db.eng.Locks().Heads(); heads > 65 {
		t.Fatalf("a %d-row insert transaction pins %d lock heads, want ≤ 65", bulkRows, heads)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
	tbl, _ = db.LookupTable("t")
	expectRows(t, db, tbl, 1, bulkRows+1, "bulk")
}

// TestBulkInsertAbortEmptiesTable: aborting a 10 000-row insert
// transaction — whose undo keeps no copy of the rows — deletes every row
// from the heap and every key from the index, and the rollback holds
// across a power cut.
func TestBulkInsertAbortEmptiesTable(t *testing.T) {
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
	tx := s.Begin()
	bulkInsert(t, tx, tbl, 1, bulkRows+1, "bulk")
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	expectRows(t, db, tbl, 1, 1, "")
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
	tbl, _ = db.LookupTable("t")
	expectRows(t, db, tbl, 1, 1, "")
}

// TestBulkInsertUpdateAbort: a transaction inserts rows, rewrites some of
// them and some committed rows, and aborts. Each insert's undo finds its
// row as it was inserted once the update is undone, so only the
// committed rows are left, with their committed values.
func TestBulkInsertUpdateAbort(t *testing.T) {
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
	tx := s.Begin()
	bulkInsert(t, tx, tbl, 1, 101, "kept")
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	tx = s.Begin()
	bulkInsert(t, tx, tbl, 101, bulkRows+1, "bulk")
	for k := uint64(1); k <= bulkRows; k += 7 {
		kk := k
		rewrite := func([]byte) ([]byte, error) { return Row(kk, []byte("XXXX")), nil }
		if err := tx.Update(tbl, k, rewrite); err != nil {
			t.Fatalf("update %d: %v", k, err)
		}
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	expectRows(t, db, tbl, 1, 101, "kept")
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
	tbl, _ = db.LookupTable("t")
	expectRows(t, db, tbl, 1, 101, "kept")
}

// TestCrashRollsBackEscalatedBulkInsert cuts the power under a 10 000-row
// insert transaction that escalated to a table lock and whose pages
// partly reached the database file in a checkpoint: recovery rolls it
// back wholly, and a commit on another table made meanwhile survives.
func TestCrashRollsBackEscalatedBulkInsert(t *testing.T) {
	db, err := Open(Options{Mode: CommitSync})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	other, err := db.CreateTable("u")
	if err != nil {
		t.Fatal(err)
	}
	bulkSession := db.Session()
	bulk := bulkSession.Begin()
	bulkInsert(t, bulk, tbl, 1, bulkRows/2, "lost")
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	bulkInsert(t, bulk, tbl, bulkRows/2, bulkRows+1, "lost")
	if db.eng.Locks().Stats().Escalations.Load() == 0 {
		t.Fatal("the bulk transaction did not escalate")
	}

	s := db.Session()
	tx := s.Begin()
	bulkInsert(t, tx, other, 1, 11, "acked")
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
	bulkSession.Close()
	tbl, _ = db.LookupTable("t")
	other, _ = db.LookupTable("u")
	expectRows(t, db, tbl, 1, 1, "")
	expectRows(t, db, other, 1, 11, "acked")
	s = db.Session()
	defer s.Close()
	check := s.Begin()
	if _, err := check.Read(tbl, bulkRows); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("the rolled-back transaction's row %d: %v", bulkRows, err)
	}
	if err := check.Commit(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkLoadTPCB is the load the repository benchmark's TPC-B
// workloads time in setup_s: on a new file-backed database, 10 branches,
// 100 tellers and 100 000 accounts of 100-byte rows, inserted in
// 1 000-row blocking transactions, then a checkpoint. One iteration is
// one load; besides ns/op it reports rows/s, the lock heads a load
// transaction pins at its commit per row it inserted (heads/row: about
// 1/16 when a transaction escalates after 64 row locks, 1 when it holds
// one per row) and the slot-directory entries read choosing insert
// slots per row (slotprobes/row). `make load-profile` runs it under a
// cpu and an allocation profile and prints where both go.
func BenchmarkLoadTPCB(b *testing.B) {
	const (
		rowSize  = 100
		perTxn   = 1_000
		accounts = 100_000
	)
	counts := []uint64{10, 100, accounts}
	var rows, heads, probes uint64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := b.TempDir()
		b.StartTimer()
		db, err := Open(Options{LogPath: dir, SegmentSize: 8 << 20, CheckpointEveryBytes: 64 << 20})
		if err != nil {
			b.Fatal(err)
		}
		var tables [4]*Table
		for t, name := range []string{"branch", "teller", "account", "history"} {
			if tables[t], err = db.CreateTable(name); err != nil {
				b.Fatal(err)
			}
		}
		s := db.Session()
		tx, pending := s.Begin(), 0
		commit := func() {
			heads += uint64(db.eng.Locks().Heads())
			if err := tx.Commit(); err != nil {
				b.Fatal(err)
			}
			tx, pending = s.Begin(), 0
		}
		for t, n := range counts {
			for k := uint64(1); k <= n; k++ {
				r := make([]byte, rowSize)
				binary.LittleEndian.PutUint64(r, k)
				if err := tx.Insert(tables[t], k, r); err != nil {
					b.Fatal(err)
				}
				rows++
				if pending++; pending == perTxn {
					commit()
				}
			}
		}
		commit()
		tx.Abort() // the empty transaction commit began
		s.Close()
		if err := db.Checkpoint(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		for _, t := range tables {
			probes += t.t.Heap.SlotProbes()
		}
		if err := db.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows)/b.Elapsed().Seconds(), "rows/s")
	b.ReportMetric(float64(heads)/float64(rows), "heads/row")
	b.ReportMetric(float64(probes)/float64(rows), "slotprobes/row")
}
