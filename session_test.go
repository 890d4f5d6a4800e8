package aether

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"aether/internal/lockmgr"
)

// TestTPCBTransactionAllocatesNothing: a TPC-B-shaped transaction —
// three 100-byte row updates, one 100-byte history insert, a commit —
// driven through Open and a Session by a generator that allocates
// nothing itself allocates nothing, pipelined (CommitAsyncAck with 32 in
// flight, as the repository benchmark's pipelined clients run) and
// blocking (Commit). The session's transactions reuse the agent's
// finished Txns, and the Tx handle stays on the caller's stack.
func TestTPCBTransactionAllocatesNothing(t *testing.T) {
	const (
		rowSize  = 100
		branches = 10
		tellers  = 100
		accounts = 2_000
		runs     = 5_000
	)
	for _, pipelined := range []bool{true, false} {
		t.Run(fmt.Sprintf("pipelined=%v", pipelined), func(t *testing.T) {
			db, err := Open(Options{LogPath: t.TempDir(), SegmentSize: 8 << 20, CheckpointEveryBytes: 64 << 20})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			var tables [4]*Table // branch, teller, account, history
			for i, name := range []string{"branch", "teller", "account", "history"} {
				if tables[i], err = db.CreateTable(name); err != nil {
					t.Fatal(err)
				}
			}
			s := db.Session()
			defer s.Close()
			row := make([]byte, rowSize)
			load := s.Begin()
			for i, n := range []uint64{branches, tellers, accounts} {
				for k := uint64(1); k <= n; k++ {
					binary.LittleEndian.PutUint64(row, k)
					if err := load.Insert(tables[i], k, row); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := load.Commit(); err != nil {
				t.Fatal(err)
			}

			var seq uint64
			next := make([]byte, 0, rowSize)
			add := func(cur []byte) ([]byte, error) {
				next = append(next[:0], cur...)
				binary.LittleEndian.PutUint64(next[8:], binary.LittleEndian.Uint64(cur[8:])+seq)
				return next, nil
			}
			window := make(chan struct{}, 32)
			var failed atomic.Int64
			ack := func(err error) {
				if err != nil {
					failed.Add(1)
				}
				<-window
			}
			txn := func() {
				window <- struct{}{}
				seq++
				tx := s.Begin()
				keys := [3]uint64{seq%branches + 1, seq%tellers + 1, seq*7919%accounts + 1}
				for i := 2; i >= 0; i-- { // account, teller, branch
					if err := tx.Update(tables[i], keys[i], add); err != nil {
						t.Fatal(err)
					}
				}
				binary.LittleEndian.PutUint64(row, seq)
				binary.LittleEndian.PutUint64(row[8:], seq)
				if err := tx.Insert(tables[3], seq, row); err != nil {
					t.Fatal(err)
				}
				if pipelined {
					err = tx.CommitAsyncAck(ack)
				} else {
					err = tx.Commit()
					ack(err)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < runs; i++ {
				txn()
			}
			got := testing.AllocsPerRun(runs, txn)
			for i := 0; i < cap(window); i++ {
				window <- struct{}{}
			}
			if n := failed.Load(); n != 0 {
				t.Fatalf("%d commits acknowledged with an error", n)
			}
			if got != 0 {
				t.Errorf("%.0f allocations per transaction, want 0", got)
			}
		})
	}
}

// TestStaleTxHandle: a Tx kept after its commit answers every method as
// a finished transaction does — right after the commit, after its ack,
// and after the session has begun its next transaction in the same
// txn.Txn — and reaches nothing of that next transaction: its rows and
// its locks stay as it left them. Meanwhile the Txn is not handed out
// again before its ack callback has returned. Run it under -race with a
// -count of 20 or so: a Txn recycled early shows up as a race between
// the callback and the next Begin.
func TestStaleTxHandle(t *testing.T) {
	for _, mode := range []CommitMode{CommitPipelined, CommitSync, CommitSyncELR, CommitAsync} {
		t.Run(fmt.Sprint(commitModes[mode]), func(t *testing.T) { staleTxHandle(t, mode) })
	}
}

func staleTxHandle(t *testing.T, mode CommitMode) {
	db, err := Open(Options{Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	value := func(v byte) []byte { return []byte{v, v, v, v} }
	set := func(v byte) func([]byte) ([]byte, error) {
		return func(cur []byte) ([]byte, error) { return Row(binary.LittleEndian.Uint64(cur), value(v)), nil }
	}
	s := db.Session()
	defer s.Close()
	seed := s.Begin()
	for k := uint64(1); k <= 3; k++ {
		if err := seed.Insert(tbl, k, Row(k, value(byte(k)))); err != nil {
			t.Fatal(err)
		}
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}

	// A pipelined commit's ack runs on the flush daemon. It holds there
	// until the session has begun (and ended) a transaction, and reports
	// whether its Txn still carried its ID meanwhile.
	detached := mode == CommitPipelined
	inAck, begun, acked := make(chan struct{}), make(chan struct{}), make(chan bool, 1)
	old := s.Begin()
	if err := old.Update(tbl, 1, set(11)); err != nil {
		t.Fatal(err)
	}
	ack := func(err error) {
		if err != nil {
			t.Errorf("commit acknowledged with %v", err)
		}
		if detached {
			inAck <- struct{}{}
			<-begun
		}
		acked <- old.tx.ID() == old.id
	}
	if err := old.CommitAsyncAck(ack); err != nil {
		t.Fatal(err)
	}
	// A detached commit may still be in flight: Abort refuses it as
	// precommitted until it hardens.
	inFlight := mode == CommitPipelined || mode == CommitAsync
	checkStale(t, "after its commit", old, tbl, inFlight)
	if detached {
		<-inAck
		mid := s.Begin()
		if err := mid.Abort(); err != nil {
			t.Fatal(err)
		}
		close(begun)
	}
	if !<-acked {
		t.Fatal("the Txn was begun again before its ack callback returned")
	}
	checkStale(t, "after its ack", old, tbl, mode == CommitAsync)

	// The flush daemon gives a detached transaction's Txn back in the
	// pass that hardened it, after its ack. Two checkpoints, each waiting
	// for records logged from now on, need two later passes, so once both
	// return the Txn is back with the session, on top of what it holds.
	if inFlight {
		for i := 0; i < 2; i++ {
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	next := s.Begin()
	if next.tx != old.tx {
		t.Fatal("the session's next transaction did not reuse the finished Txn")
	}
	if err := next.Update(tbl, 2, set(22)); err != nil {
		t.Fatal(err)
	}
	checkStale(t, "after the session's next Begin", old, tbl, false)

	locks := db.eng.Locks()
	if got := locks.HeldModes(lockmgr.RowKey(tbl.t.Space, 2)); len(got) != 1 || got[0] != lockmgr.ModeX {
		t.Errorf("row 2 is held %v, want the next transaction's X alone", got)
	}
	for _, k := range []uint64{3, 100} {
		if got := locks.HeldModes(lockmgr.RowKey(tbl.t.Space, k)); len(got) != 0 {
			t.Errorf("row %d is held %v after the stale handle's calls", k, got)
		}
	}
	if got, err := next.Read(tbl, 2); err != nil || RowPayload(got)[0] != 22 {
		t.Fatalf("the next transaction reads row 2 as %x (%v), want its own update", got, err)
	}
	if err := next.Commit(); err != nil {
		t.Fatal(err)
	}
	check := s.Begin()
	defer check.Commit()
	for k, want := range map[uint64]byte{1: 11, 2: 22, 3: 3} {
		got, err := check.Read(tbl, k)
		if err != nil || RowPayload(got)[0] != want {
			t.Errorf("row %d reads %x (%v), want value %d", k, got, err, want)
		}
	}
	if _, err := check.Read(tbl, 100); !errors.Is(err, ErrKeyNotFound) {
		t.Errorf("the stale handle's insert: Read = %v, want ErrKeyNotFound", err)
	}
}

// checkStale calls every method of tx, a finished transaction's handle,
// and wants each to refuse with ErrTxnDone — Abort with ErrPrecommitted
// too when the commit may be in flight — running no callback.
func checkStale(t *testing.T, when string, tx *Tx, tbl *Table, inFlight bool) {
	t.Helper()
	ran := false
	fn := func([]byte) ([]byte, error) { ran = true; return nil, nil }
	scan := func(uint64, []byte) bool { ran = true; return true }
	row, readErr := tx.Read(tbl, 3)
	if row != nil {
		t.Errorf("%s: Read returned row %x", when, row)
	}
	for name, err := range map[string]error{
		"Insert":         tx.Insert(tbl, 100, Row(100, []byte{1})),
		"Update":         tx.Update(tbl, 3, fn),
		"Delete":         tx.Delete(tbl, 3),
		"Read":           readErr,
		"Scan":           tx.Scan(tbl, 0, math.MaxUint64, scan),
		"Commit":         tx.Commit(),
		"CommitAsyncAck": tx.CommitAsyncAck(func(error) { ran = true }),
	} {
		if err != ErrTxnDone {
			t.Errorf("%s: %s = %v, want ErrTxnDone", when, name, err)
		}
	}
	if err := tx.Abort(); err != ErrTxnDone && !(inFlight && err == ErrPrecommitted) {
		t.Errorf("%s: Abort = %v, want ErrTxnDone", when, err)
	}
	if ran {
		t.Errorf("%s: a stale handle ran a callback", when)
	}
}
