package aether

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestOpenInsertReadClose(t *testing.T) {
	db, err := Open(Options{})
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
	if err := tx.Insert(tbl, 1, Row(1, []byte("hello"))); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	tx = s.Begin()
	row, err := tx.Read(tbl, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(RowPayload(row), []byte("hello")) {
		t.Fatalf("payload: %q", RowPayload(row))
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestCommitModes(t *testing.T) {
	for _, mode := range []CommitMode{CommitPipelined, CommitSync, CommitSyncELR, CommitAsync} {
		db, err := Open(Options{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		tbl, _ := db.CreateTable("t")
		s := db.Session()
		tx := s.Begin()
		if err := tx.Insert(tbl, 7, Row(7, []byte("x"))); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		s.Close()
		db.Close()
	}
}

func TestBufferVariants(t *testing.T) {
	for _, v := range []BufferVariant{BufferBaseline, BufferC, BufferD, BufferCD, BufferCDME} {
		db, err := Open(Options{Buffer: v})
		if err != nil {
			t.Fatal(err)
		}
		tbl, _ := db.CreateTable("t")
		s := db.Session()
		tx := s.Begin()
		for k := uint64(1); k <= 50; k++ {
			if err := tx.Insert(tbl, k, Row(k, []byte("v"))); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("variant %d: %v", v, err)
		}
		s.Close()
		db.Close()
	}
}

// TestOutOfRangeEnumsRefused: an Options.Buffer, Mode or Device, or a
// mode given to SetCommitMode, that names no value of its type is an
// error that says which — not another variant, protocol or device run
// in its place. A refused commit leaves the transaction open.
func TestOutOfRangeEnumsRefused(t *testing.T) {
	for _, c := range []struct {
		name    string
		opts    Options
		setMode bool // Open succeeds; the transaction's mode is out of range
		mode    CommitMode
		want    string
	}{
		{name: "Buffer below", opts: Options{Buffer: -1}, want: "Options.Buffer -1"},
		{name: "Buffer above", opts: Options{Buffer: BufferCDME + 1}, want: "Options.Buffer 5"},
		{name: "Mode below", opts: Options{Mode: -1}, want: "Options.Mode -1"},
		{name: "Mode above", opts: Options{Mode: CommitAsync + 1}, want: "Options.Mode 4"},
		{name: "Device below", opts: Options{Device: -1}, want: "Options.Device -1"},
		{name: "Device above", opts: Options{Device: DeviceSlowDisk + 1}, want: "Options.Device 4"},
		{name: "SetCommitMode below", setMode: true, mode: -1, want: "commit mode -1"},
		{name: "SetCommitMode above", setMode: true, mode: CommitAsync + 1, want: "commit mode 4"},
	} {
		t.Run(c.name, func(t *testing.T) {
			db, err := Open(c.opts)
			if !c.setMode {
				if err == nil {
					db.Close()
					t.Fatalf("Open accepted %s", c.want)
				}
				if !strings.Contains(err.Error(), c.want) {
					t.Fatalf("Open: %v, want an error naming %s", err, c.want)
				}
				return
			}
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
			if err := tx.Insert(tbl, 1, Row(1, []byte("x"))); err != nil {
				t.Fatal(err)
			}
			tx.SetCommitMode(c.mode)
			if err := tx.Commit(); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Commit: %v, want an error naming %s", err, c.want)
			}
			if err := tx.CommitAsyncAck(nil); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("CommitAsyncAck: %v, want an error naming %s", err, c.want)
			}
			tx.SetCommitMode(CommitSync)
			if err := tx.Commit(); err != nil {
				t.Fatalf("commit after the refused ones: %v", err)
			}
		})
	}
}

func TestUpdateDeleteAbort(t *testing.T) {
	db, _ := Open(Options{})
	defer db.Close()
	tbl, _ := db.CreateTable("t")
	s := db.Session()
	defer s.Close()

	tx := s.Begin()
	tx.Insert(tbl, 1, Row(1, []byte("one")))
	tx.Insert(tbl, 2, Row(2, []byte("two")))
	tx.Commit()

	tx = s.Begin()
	if err := tx.Update(tbl, 1, func(row []byte) ([]byte, error) {
		return Row(1, []byte("ONE")), nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete(tbl, 2); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}

	tx = s.Begin()
	row, err := tx.Read(tbl, 1)
	if err != nil || string(RowPayload(row)) != "one" {
		t.Fatalf("update not rolled back: %q %v", RowPayload(row), err)
	}
	row, err = tx.Read(tbl, 2)
	if err != nil || string(RowPayload(row)) != "two" {
		t.Fatalf("delete not rolled back: %q %v", RowPayload(row), err)
	}
	tx.Commit()

	// A committed delete, by contrast, stays deleted.
	tx = s.Begin()
	if err := tx.Delete(tbl, 2); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	tx = s.Begin()
	if _, err := tx.Read(tbl, 2); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("committed delete: %v", err)
	}
	tx.Commit()
}

func TestCrashRecoveryViaFacade(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, _ := db.CreateTable("t")
	s := db.Session()

	tx := s.Begin()
	for k := uint64(1); k <= 20; k++ {
		tx.Insert(tbl, k, Row(k, []byte(fmt.Sprintf("v%d", k))))
	}
	if err := tx.Commit(); err != nil { // durable
		t.Fatal(err)
	}
	s.Close()

	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}

	// Handles must be re-fetched after recovery... the table handle is
	// stale; recreate via lookup: CreateTable was called by Crash, so
	// fetch through a fresh read transaction using a fresh handle.
	tbl2 := db.tableByName("t")
	s2 := db.Session()
	defer s2.Close()
	tx = s2.Begin()
	for k := uint64(1); k <= 20; k++ {
		row, err := tx.Read(tbl2, k)
		if err != nil {
			t.Fatalf("key %d lost after crash: %v", k, err)
		}
		if want := fmt.Sprintf("v%d", k); string(RowPayload(row)) != want {
			t.Fatalf("key %d: %q", k, RowPayload(row))
		}
	}
	tx.Commit()
}

func TestAsyncCommitUnsafeLosesOnCrash(t *testing.T) {
	db, _ := Open(Options{Mode: CommitAsync})
	defer db.Close()
	tbl, _ := db.CreateTable("t")
	s := db.Session()
	tx := s.Begin()
	tx.Insert(tbl, 1, Row(1, []byte("gone?")))
	if err := tx.Commit(); err != nil { // acked instantly, maybe not durable
		t.Fatal(err)
	}
	s.Close()
	// No flush guarantee: the row may or may not survive; the database
	// must at least recover to a consistent state.
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
}

func TestPipelinedAckSurvivesCrash(t *testing.T) {
	db, _ := Open(Options{Mode: CommitPipelined})
	defer db.Close()
	tbl, _ := db.CreateTable("t")
	s := db.Session()
	var wg sync.WaitGroup
	const n = 30
	for k := uint64(1); k <= n; k++ {
		tx := s.Begin()
		tx.Insert(tbl, k, Row(k, []byte("ack")))
		wg.Add(1)
		if err := tx.CommitAsyncAck(func(err error) {
			if err != nil {
				t.Errorf("ack error: %v", err)
			}
			wg.Done()
		}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait() // every transaction acked ⇒ durable
	s.Close()
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
	tbl2 := db.tableByName("t")
	s2 := db.Session()
	defer s2.Close()
	tx := s2.Begin()
	for k := uint64(1); k <= n; k++ {
		if _, err := tx.Read(tbl2, k); err != nil {
			t.Fatalf("acked txn %d lost: %v", k, err)
		}
	}
	tx.Commit()
}

func TestFileBackedReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.d")
	db, err := Open(Options{LogPath: path})
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.CreateTable("t")
	s := db.Session()
	tx := s.Begin()
	tx.Insert(tbl, 42, Row(42, []byte("persisted")))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen from the file: recovery replays the log.
	db2, err := Open(Options{LogPath: path})
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
	tx = s2.Begin()
	row, err := tx.Read(tbl2, 42)
	if err != nil || string(RowPayload(row)) != "persisted" {
		t.Fatalf("file reopen: %q %v", RowPayload(row), err)
	}
	tx.Commit()
}

func TestStatsAndCheckpoint(t *testing.T) {
	db, _ := Open(Options{})
	defer db.Close()
	tbl, _ := db.CreateTable("t")
	s := db.Session()
	defer s.Close()
	tx := s.Begin()
	tx.Insert(tbl, 1, Row(1, []byte("x")))
	tx.Commit()
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.Commits < 1 || st.LogInserts < 1 || st.Checkpoints != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestRowHelpers(t *testing.T) {
	r := Row(7, []byte("payload"))
	if len(r) != 15 || string(RowPayload(r)) != "payload" {
		t.Fatalf("row helpers: %v %q", r, RowPayload(r))
	}
	if RowPayload([]byte("short")) != nil {
		t.Fatal("short row payload")
	}
}

// tableByName is a test helper reaching the recreated handle after
// Crash().
func (db *DB) tableByName(name string) *Table {
	return &Table{t: db.eng.Table(name)}
}

func TestScan(t *testing.T) {
	db, _ := Open(Options{})
	defer db.Close()
	tbl, _ := db.CreateTable("t")
	s := db.Session()
	defer s.Close()
	tx := s.Begin()
	for k := uint64(1); k <= 30; k++ {
		tx.Insert(tbl, k*10, Row(k*10, []byte{byte(k)}))
	}
	tx.Commit()

	tx = s.Begin()
	var keys []uint64
	err := tx.Scan(tbl, 95, 205, func(key uint64, row []byte) bool {
		keys = append(keys, key)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{100, 110, 120, 130, 140, 150, 160, 170, 180, 190, 200}
	if len(keys) != len(want) {
		t.Fatalf("scan keys: %v", keys)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("scan keys: %v", keys)
		}
	}
	// Early stop.
	n := 0
	if err := tx.Scan(tbl, 0, 1<<60, func(uint64, []byte) bool { n++; return n < 5 }); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("early stop: %d", n)
	}
	tx.Commit()
}

// TestRowKeyZeroIsNotTheTable: row 0 is a row, not its table's lock. A
// transaction that updates row 0 and stays open holds that row alone, so
// another session reads and commits row 5 at once, with the lock wait
// bounded only by an hour's DeadlockTimeout; and so does it once the
// first session has committed and its next transaction has inherited
// the first one's locks (speculative lock inheritance).
func TestRowKeyZeroIsNotTheTable(t *testing.T) {
	for _, sli := range []bool{true, false} {
		t.Run(fmt.Sprintf("SLI=%v", sli), func(t *testing.T) {
			db, err := Open(Options{DeadlockTimeout: time.Hour, DisableSLI: !sli})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			tbl, err := db.CreateTable("t")
			if err != nil {
				t.Fatal(err)
			}
			writer, reader := db.Session(), db.Session()
			defer writer.Close()
			defer reader.Close()
			load := writer.Begin()
			for _, k := range []uint64{0, 5} {
				if err := load.Insert(tbl, k, Row(k, []byte("v0"))); err != nil {
					t.Fatal(err)
				}
			}
			if err := load.Commit(); err != nil {
				t.Fatal(err)
			}
			// readRow5 reads and commits row 5 on the reader's session
			// while hold is open, giving up after a second: then it
			// ends hold, so the stuck read returns, and fails.
			readRow5 := func(what string, hold *Tx) {
				t.Helper()
				done := make(chan error, 1)
				go func() {
					tx := reader.Begin()
					if _, err := tx.Read(tbl, 5); err != nil {
						tx.Abort()
						done <- err
						return
					}
					done <- tx.Commit()
				}()
				select {
				case err := <-done:
					if err != nil {
						t.Fatalf("%s: reading row 5: %v", what, err)
					}
				case <-time.After(time.Second):
					hold.Abort()
					<-done
					t.Fatalf("%s: a read of row 5 still waits after a second", what)
				}
			}
			t1 := writer.Begin()
			if err := t1.Update(tbl, 0, func([]byte) ([]byte, error) { return Row(0, []byte("v1")), nil }); err != nil {
				t.Fatal(err)
			}
			readRow5("T1 holds an update of row 0", t1)
			if err := t1.Commit(); err != nil {
				t.Fatal(err)
			}
			next := writer.Begin() // adopts what T1's session cached, under SLI
			if _, err := next.Read(tbl, 0); err != nil {
				t.Fatal(err)
			}
			readRow5("the writer's next transaction holds row 0", next)
			if err := next.Commit(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestScanBlocksWriters(t *testing.T) {
	db, _ := Open(Options{DeadlockTimeout: 80 * 1000000}) // 80ms
	defer db.Close()
	tbl, _ := db.CreateTable("t")
	s := db.Session()
	defer s.Close()
	tx := s.Begin()
	tx.Insert(tbl, 1, Row(1, []byte("x")))
	tx.Commit()

	// Hold a scan's table S lock open in one txn...
	reader := s.Begin()
	if err := reader.Scan(tbl, 0, 10, func(uint64, []byte) bool { return true }); err != nil {
		t.Fatal(err)
	}
	// ...a writer on another session must block (and time out here).
	s2 := db.Session()
	defer s2.Close()
	writer := s2.Begin()
	err := writer.Update(tbl, 1, func(r []byte) ([]byte, error) { return r, nil })
	if err == nil {
		t.Fatal("writer proceeded under a scan's table lock")
	}
	writer.Abort()
	reader.Commit()
}
