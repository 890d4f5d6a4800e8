package recovery

import (
	"errors"
	"fmt"
	"testing"

	"aether/internal/logrec"
	"aether/internal/lsn"
	"aether/internal/storage"
)

// errPowerCut is what a sinkLog returns once its budget is spent.
var errPowerCut = errors.New("power cut")

// sinkLog is a Sink that appends recovery's CLRs and end records to a
// laneLogs, as core.MultiAppender would to the lanes — until budget
// records are in, after which every append fails as if the power had
// gone (budget < 0: never).
type sinkLog struct {
	t      *testing.T
	ll     *laneLogs
	budget int
}

func (s *sinkLog) Append(lane int, rec *logrec.Record) (at, end, pageStamp, recStamp lsn.LSN, err error) {
	if s.budget == 0 {
		return 0, 0, 0, 0, errPowerCut
	}
	s.budget--
	at, stamp := s.ll.add(s.t, lane, rec)
	end = lsn.LSN(len(s.ll.lanes[lane].buf))
	if len(s.ll.lanes) == 1 {
		return at, end, end, stamp, nil
	}
	return at, end, stamp, stamp, nil
}

// recoverWith runs restart recovery over ll's tails into a fresh store —
// the page file lost, every page rebuilt from the log — logging through
// a sink with the given budget.
func recoverWith(t *testing.T, ll *laneLogs, budget int) (*storage.Store, *Result, error) {
	t.Helper()
	a, err := Analyze(ll.tails(), nil)
	if err != nil {
		t.Fatal(err)
	}
	st := storage.NewStore()
	res, err := a.Recover(st, &sinkLog{t: t, ll: ll, budget: budget})
	return st, res, err
}

// kinds counts ll's records of kind k.
func (ll *laneLogs) kinds(t *testing.T, k logrec.Kind) int {
	t.Helper()
	n := 0
	for _, l := range ll.tails() {
		it := logrec.NewIterator(l.Log, l.Base)
		for rec, ok := it.Next(); ok; rec, ok = it.Next() {
			if rec.Kind == k {
				n++
			}
		}
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

// rows is a page's rows under test: one 8-byte value per slot, set by a
// winner's inserts and moved by splices.
type rows struct {
	ll    *laneLogs
	pid   uint64
	vals  []uint64
	last  map[uint64]lsn.LSN // each transaction's newest home-lane address
	start lsn.LSN            // the stamp of the page's first record: its recLSN
	slots map[uint64]uint8   // the slot each transaction's agent lent it, if any
}

func newRows(t *testing.T, ll *laneLogs, pid uint64, slots int) *rows {
	r := &rows{ll: ll, pid: pid, vals: make([]uint64, slots), last: make(map[uint64]lsn.LSN), slots: make(map[uint64]uint8)}
	for s := range r.vals {
		r.vals[s] = uint64(1000 + s)
		_, stamp := r.log(t, 0, 1, logrec.UpdatePayload{Op: logrec.OpInsert, Slot: uint16(s), After: val(r.vals[s])})
		if s == 0 {
			r.start = stamp
		}
	}
	ll.add(t, 0, logrec.NewCommit(1))
	return r
}

func val(v uint64) []byte { return fmt.Appendf(nil, "%08d", v) }

// log appends txn's update on the given lane, first if the transaction
// has logged nothing yet, named by the transaction's slot if it has one.
func (r *rows) log(t *testing.T, lane int, txn uint64, up logrec.UpdatePayload) (at, stamp lsn.LSN) {
	prev, ok := r.last[txn]
	if !ok {
		prev = lsn.Undefined
	}
	rec := logrec.NewUpdate(txn, prev, r.pid, up)
	rec.Slot = r.slots[txn]
	at, stamp = r.ll.add(t, lane, rec)
	r.last[txn] = at
	return at, stamp
}

// set logs txn's update of slot to v.
func (r *rows) set(t *testing.T, lane int, txn uint64, slot int, v uint64) (at, stamp lsn.LSN) {
	at, stamp = r.log(t, lane, txn, logrec.Splice(nil, uint16(slot), val(r.vals[slot]), val(v)))
	r.vals[slot] = v
	return at, stamp
}

// check fails unless every slot of the page in st holds want's value.
func (r *rows) check(t *testing.T, st *storage.Store, want []uint64) {
	t.Helper()
	for s, v := range want {
		got, err := mustPage(t, st, r.pid).Get(s)
		if err != nil || string(got) != string(val(v)) {
			t.Fatalf("slot %d holds %q (%v), want %q", s, got, err, val(v))
		}
	}
}

// forLanes runs fn at one lane and at three; lane(i) spreads the
// transactions over the lanes there.
func forLanes(t *testing.T, fn func(t *testing.T, ll *laneLogs, lane func(i int) int)) {
	for _, n := range []int{1, 3} {
		t.Run(fmt.Sprintf("N=%d", n), func(t *testing.T) {
			fn(t, newLaneLogs(n), func(i int) int { return i % n })
		})
	}
}

// TestUndoResumesAcrossCrashes: restart recovery that loses power mid-undo
// with CLRs already logged, and whose rerun loses power again, compensates
// each loser update exactly once across the three runs — the CLRs a run
// left say where the next resumes — and leaves the committed values; a
// fourth run finds nothing left to do.
func TestUndoResumesAcrossCrashes(t *testing.T) {
	forLanes(t, func(t *testing.T, ll *laneLogs, lane func(int) int) {
		r := newRows(t, ll, storage.MakePageID(1, 1), 4)
		committed := append([]uint64(nil), r.vals...)
		// Losers 2 and 3, interleaved, each updating its slots twice.
		for i, s := range []int{0, 2, 1, 3, 0, 2, 1, 3} {
			txn := uint64(2 + s/2)
			r.set(t, lane(int(txn)), txn, s, uint64(100*(i+1)))
		}
		const updates = 8
		for run, budget := range []int{3, 2} {
			if _, _, err := recoverWith(t, ll, budget); !errors.Is(err, errPowerCut) {
				t.Fatalf("run %d: %v, want the power cut after %d records", run+1, err, budget)
			}
		}
		st, res, err := recoverWith(t, ll, -1)
		if err != nil {
			t.Fatal(err)
		}
		if res.UndoApplied != updates-5 || fmt.Sprint(res.Losers) != "[2 3]" {
			t.Fatalf("third run: losers %v, %d undone, want [2 3] and the %d the crashed runs left", res.Losers, res.UndoApplied, updates-5)
		}
		r.check(t, st, committed)
		if clrs, ends := ll.kinds(t, logrec.KindCLR), ll.kinds(t, logrec.KindEnd); clrs != updates || ends != 2 {
			t.Fatalf("the log holds %d CLRs and %d end records, want %d and 2", clrs, ends, updates)
		}
		st, res, err = recoverWith(t, ll, -1)
		if err != nil || len(res.Losers) != 0 || res.UndoApplied != 0 {
			t.Fatalf("fourth run: %+v, %v, want nothing to undo", res, err)
		}
		r.check(t, st, committed)
	})
}

// TestUndoReachesBelowCheckpoint: a loser whose first record lies below
// the begin record of the checkpoint naming it is undone in full —
// analysis reads from the tails' start for named transactions, and undo
// collects from the loser's first record, not from the checkpoint.
func TestUndoReachesBelowCheckpoint(t *testing.T) {
	forLanes(t, func(t *testing.T, ll *laneLogs, lane func(int) int) {
		pid := storage.MakePageID(1, 1)
		r := newRows(t, ll, pid, 3)
		committed := append([]uint64(nil), r.vals...)
		_, first := r.set(t, lane(1), 7, 0, 70)
		_, winner := r.set(t, lane(2), 8, 2, 80) // committed after the checkpoint
		ll.checkpoint(t, logrec.CheckpointPayload{
			ActiveTxns: []logrec.TxnTableEntry{{TxnID: 7, LastLSN: first}, {TxnID: 8, LastLSN: winner}},
			DirtyPages: []logrec.DirtyPageEntry{{PageID: pid, RecLSN: r.start}},
		})
		r.set(t, lane(1), 7, 1, 71)
		r.set(t, lane(1), 7, 0, 72)
		ll.add(t, lane(2), logrec.NewCommit(8))
		committed[2] = 80
		st, res, err := recoverWith(t, ll, -1)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(res.Losers) != "[7]" || res.UndoApplied != 3 {
			t.Fatalf("losers %v, %d undone, want [7] and 3", res.Losers, res.UndoApplied)
		}
		r.check(t, st, committed)
	})
}

// TestUndoSeparatesReusedTxnID: an ID used by a committed transaction
// below a checkpoint that named nobody — a restart resumes IDs above
// those analysis met, and it met none below that checkpoint — and again
// by a loser after it. A later checkpoint names the loser, so analysis
// reads the older holder's records too: the loser's first record starts
// its entry afresh, so it does not inherit the commit, and undo compensates
// only its own updates.
func TestUndoSeparatesReusedTxnID(t *testing.T) {
	forLanes(t, func(t *testing.T, ll *laneLogs, lane func(int) int) {
		pid := storage.MakePageID(1, 1)
		r := newRows(t, ll, pid, 2)
		r.set(t, lane(0), 5, 0, 50)
		ll.add(t, lane(0), logrec.NewCommit(5))
		committed := append([]uint64(nil), r.vals...)
		ll.checkpoint(t, logrec.CheckpointPayload{DirtyPages: []logrec.DirtyPageEntry{{PageID: pid, RecLSN: r.start}}})
		delete(r.last, 5) // the restarted engine hands out 5 again
		_, reused := r.set(t, lane(1), 5, 1, 51)
		ll.checkpoint(t, logrec.CheckpointPayload{
			ActiveTxns: []logrec.TxnTableEntry{{TxnID: 5, LastLSN: reused}},
			DirtyPages: []logrec.DirtyPageEntry{{PageID: pid, RecLSN: r.start}},
		})
		r.set(t, lane(1), 5, 0, 52)
		st, res, err := recoverWith(t, ll, -1)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(res.Losers) != "[5]" || res.UndoApplied != 2 {
			t.Fatalf("losers %v winners %v, %d undone, want loser [5] and 2", res.Losers, res.Winners, res.UndoApplied)
		}
		r.check(t, st, committed)
	})
}

// TestUndoLongLoser: a loser of 1 500 updates, interleaved with a
// winner's, is undone in full, newest first — each update's inverse
// only applies to the value the update left — and the CLRs recovery logs
// leave nothing for a second run.
func TestUndoLongLoser(t *testing.T) {
	forLanes(t, func(t *testing.T, ll *laneLogs, lane func(int) int) {
		r := newRows(t, ll, storage.MakePageID(1, 1), 4)
		for i := 0; i < 1500; i++ {
			r.set(t, lane(1), 9, i%3, uint64(10_000+i))
			if i%100 == 0 {
				r.set(t, lane(2), 10, 3, uint64(20_000+i))
			}
		}
		ll.add(t, lane(2), logrec.NewCommit(10))
		committed := []uint64{1000, 1001, 1002, r.vals[3]}
		st, res, err := recoverWith(t, ll, -1)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(res.Losers) != "[9]" || res.UndoApplied != 1500 {
			t.Fatalf("losers %v, %d undone, want [9] and 1500", res.Losers, res.UndoApplied)
		}
		r.check(t, st, committed)
		st, res, err = recoverWith(t, ll, -1)
		if err != nil || len(res.Losers) != 0 || res.UndoApplied != 0 {
			t.Fatalf("second run: %+v, %v, want nothing to undo", res, err)
		}
		r.check(t, st, committed)
	})
}

// TestUndoRefusesMissingHistory: a loser whose first record is in no
// durable tail cannot be undone in full, and recovery says so instead of
// undoing part of it.
func TestUndoRefusesMissingHistory(t *testing.T) {
	forLanes(t, func(t *testing.T, ll *laneLogs, lane func(int) int) {
		r := newRows(t, ll, storage.MakePageID(1, 1), 1)
		r.last[4] = 0 // as if its first record had been truncated away
		r.set(t, lane(1), 4, 0, 40)
		if _, _, err := recoverWith(t, ll, -1); err == nil {
			t.Fatal("recovered a loser whose first record is missing")
		}
	})
}
