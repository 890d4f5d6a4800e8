package recovery

import (
	"errors"
	"testing"

	"aether/internal/logrec"
	"aether/internal/lsn"
	"aether/internal/storage"
)

// logBuilder assembles a synthetic durable log image.
type logBuilder struct {
	buf    []byte
	sealed int // where the batch log() has not sealed yet starts
}

// log seals what was added since the last call, as a flush would, and
// returns the image.
func (b *logBuilder) log() []byte {
	if b.sealed < len(b.buf) {
		b.buf = logrec.AppendSeal(b.buf, b.sealed)
		b.sealed = len(b.buf)
	}
	return b.buf
}

func (b *logBuilder) add(t *testing.T, rec *logrec.Record) (at, end lsn.LSN) {
	t.Helper()
	at = lsn.LSN(len(b.buf))
	enc, err := rec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	b.buf = append(b.buf, enc...)
	return at, lsn.LSN(len(b.buf))
}

// mustPage fetches pid (unpinned immediately: these tests are
// single-threaded and never evict).
func mustPage(t *testing.T, st *storage.Store, pid uint64) *storage.Page {
	t.Helper()
	p, err := st.Get(pid)
	if err != nil {
		t.Fatalf("get page %d: %v", pid, err)
	}
	if p == nil {
		t.Fatalf("page %d not rebuilt", pid)
	}
	p.Unpin()
	return p
}

func TestRecoverEmptyLog(t *testing.T) {
	st := storage.NewStore()
	res, err := Recover(Options{Log: nil, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scanned != 0 || len(res.Winners) != 0 || len(res.Losers) != 0 {
		t.Fatalf("empty log recovery: %+v", res)
	}
}

func TestRecoverRequiresStore(t *testing.T) {
	if _, err := Recover(Options{}); err == nil {
		t.Fatal("nil store must be rejected")
	}
}

func TestRecoverRedoWinner(t *testing.T) {
	var lb logBuilder
	pid := storage.MakePageID(1, 1)
	up := logrec.UpdatePayload{Op: logrec.OpInsert, Slot: 0, After: []byte("hello")}
	_, _ = lb.add(t, logrec.NewUpdate(7, lsn.Undefined, pid, up))
	lb.add(t, logrec.NewCommit(7))

	st := storage.NewStore()
	res, err := Recover(Options{Log: lb.log(), Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if res.RedoApplied != 1 || len(res.Winners) != 1 || res.Winners[0] != 7 {
		t.Fatalf("result: %+v", res)
	}
	got, err := mustPage(t, st, pid).Get(0)
	if err != nil || string(got) != "hello" {
		t.Fatalf("row: %q %v", got, err)
	}
}

func TestRecoverUndoLoser(t *testing.T) {
	var lb logBuilder
	pid := storage.MakePageID(1, 1)
	// Winner inserts the row; loser overwrites it; no commit for loser.
	ins := logrec.UpdatePayload{Op: logrec.OpInsert, Slot: 0, After: []byte("base")}
	_, _ = lb.add(t, logrec.NewUpdate(1, lsn.Undefined, pid, ins))
	lb.add(t, logrec.NewCommit(1))
	set := logrec.Splice(nil, 0, []byte("base"), []byte("evil"))
	lb.add(t, logrec.NewUpdate(2, lsn.Undefined, pid, set))

	st := storage.NewStore()
	res, err := Recover(Options{Log: lb.log(), Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Winners) != 1 || len(res.Losers) != 1 || res.Losers[0] != 2 {
		t.Fatalf("result: %+v", res)
	}
	if res.UndoApplied != 1 {
		t.Fatalf("undo applied: %d", res.UndoApplied)
	}
	got, err := mustPage(t, st, pid).Get(0)
	if err != nil || string(got) != "base" {
		t.Fatalf("row after undo: %q %v", got, err)
	}
}

// TestRedoSkipsSpliceItsStampCovers: a splice XORs its bytes into the
// row, so applying one twice undoes it. Redo must therefore leave alone
// a page whose stamp already covers the record — here a page written
// back after the committed update, the row's insert already truncated
// from the log — and the row must keep the update.
func TestRedoSkipsSpliceItsStampCovers(t *testing.T) {
	var lb logBuilder
	pid := storage.MakePageID(1, 1)
	set := logrec.Splice(nil, 0, []byte("base"), []byte("evil"))
	_, setEnd := lb.add(t, logrec.NewUpdate(2, lsn.Undefined, pid, set))
	lb.add(t, logrec.NewCommit(2))

	st := storage.NewStore()
	p, err := st.GetOrCreate(pid)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Insert(0, []byte("evil")); err != nil {
		t.Fatal(err)
	}
	p.SetLSN(setEnd)
	p.Unpin()
	res, err := Recover(Options{Log: lb.log(), Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if res.RedoApplied != 0 {
		t.Fatalf("redo applied %d records to a page that reflects them all", res.RedoApplied)
	}
	if got, err := mustPage(t, st, pid).Get(0); err != nil || string(got) != "evil" {
		t.Fatalf("row after recovery: %q %v, want the committed update's \"evil\"", got, err)
	}
}

func TestRecoverCLRSkipsAlreadyUndone(t *testing.T) {
	var lb logBuilder
	pid := storage.MakePageID(1, 1)
	// Loser: insert, set, then a CLR compensating the set (partial
	// rollback before crash). Recovery must undo only the insert.
	ins := logrec.UpdatePayload{Op: logrec.OpInsert, Slot: 0, After: []byte("v1")}
	insAt, _ := lb.add(t, logrec.NewUpdate(5, lsn.Undefined, pid, ins))
	set := logrec.Splice(nil, 0, []byte("v1"), []byte("v2"))
	lb.add(t, logrec.NewUpdate(5, insAt, pid, set))
	lb.add(t, logrec.NewCLR(5, pid, insAt, set.Inverse()))

	st := storage.NewStore()
	res, err := Recover(Options{Log: lb.log(), Store: st})
	if err != nil {
		t.Fatal(err)
	}
	// Redo replays insert, set, clr (page = "v1"); undo compensates just
	// the insert (CLR's UndoNext pointed at it).
	if res.UndoApplied != 1 {
		t.Fatalf("undo applied: %d, want 1", res.UndoApplied)
	}
	if _, err := mustPage(t, st, pid).Get(0); err == nil {
		t.Fatal("loser's insert survived")
	}
}

func TestRecoverUsesCheckpointATT(t *testing.T) {
	var lb logBuilder
	pid := storage.MakePageID(1, 1)
	up := logrec.UpdatePayload{Op: logrec.OpInsert, Slot: 0, After: []byte("x")}
	uAt, _ := lb.add(t, logrec.NewUpdate(3, lsn.Undefined, pid, up))

	// Checkpoint captures txn 3 as active with its lastLSN, and the DPT.
	beginAt, _ := lb.add(t, &logrec.Record{Header: logrec.Header{Kind: logrec.KindCheckpointBegin}})
	payload := logrec.CheckpointPayload{
		ActiveTxns: []logrec.TxnTableEntry{{TxnID: 3, LastLSN: uAt}},
		DirtyPages: []logrec.DirtyPageEntry{{PageID: pid, RecLSN: uAt}},
	}
	lb.add(t, &logrec.Record{
		Header:  logrec.Header{Kind: logrec.KindCheckpointEnd, Aux: uint64(beginAt)},
		Payload: payload.Encode(nil),
	})

	st := storage.NewStore()
	res, err := Recover(Options{Log: lb.log(), Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if res.CheckpointLSN != beginAt {
		t.Fatalf("checkpoint LSN %v, want %v", res.CheckpointLSN, beginAt)
	}
	// Txn 3 never committed: the checkpoint's ATT entry makes it a loser
	// even though its update is before the checkpoint.
	if len(res.Losers) != 1 || res.Losers[0] != 3 {
		t.Fatalf("losers: %v", res.Losers)
	}
	if _, err := mustPage(t, st, pid).Get(0); err == nil {
		t.Fatal("pre-checkpoint loser update survived")
	}
}

func TestRecoverPrecommittedInCheckpointIsWinner(t *testing.T) {
	var lb logBuilder
	pid := storage.MakePageID(1, 1)
	up := logrec.UpdatePayload{Op: logrec.OpInsert, Slot: 0, After: []byte("keep")}
	uAt, _ := lb.add(t, logrec.NewUpdate(9, lsn.Undefined, pid, up))
	cAt, _ := lb.add(t, logrec.NewCommit(9))
	// Checkpoint after the commit record but before the end record: the
	// ATT entry carries Precommitted=true.
	beginAt, _ := lb.add(t, &logrec.Record{Header: logrec.Header{Kind: logrec.KindCheckpointBegin}})
	payload := logrec.CheckpointPayload{
		ActiveTxns: []logrec.TxnTableEntry{{TxnID: 9, LastLSN: cAt, Precommitted: true}},
		DirtyPages: []logrec.DirtyPageEntry{{PageID: pid, RecLSN: uAt}},
	}
	lb.add(t, &logrec.Record{
		Header:  logrec.Header{Kind: logrec.KindCheckpointEnd, Aux: uint64(beginAt)},
		Payload: payload.Encode(nil),
	})

	st := storage.NewStore()
	res, err := Recover(Options{Log: lb.log(), Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Winners) != 1 || res.Winners[0] != 9 || len(res.Losers) != 0 {
		t.Fatalf("result: winners=%v losers=%v", res.Winners, res.Losers)
	}
	got, err := mustPage(t, st, pid).Get(0)
	if err != nil || string(got) != "keep" {
		t.Fatalf("winner's row: %q %v", got, err)
	}
}

// TestRecoverTruncatedTailIsCleanEnd: a durable image ends at a seal —
// the device's watermark only ever covers whole sealed batches — and what
// follows it there is space nothing wrote: recovery ends cleanly at it.
// A batch whose seal never came, with the same bytes claimed durable, is
// no clean end but a gap, and recovery refuses it.
func TestRecoverTruncatedTailIsCleanEnd(t *testing.T) {
	var lb logBuilder
	pid := storage.MakePageID(1, 1)
	up := logrec.UpdatePayload{Op: logrec.OpInsert, Slot: 0, After: []byte("ok")}
	_, _ = lb.add(t, logrec.NewUpdate(1, lsn.Undefined, pid, up))
	lb.add(t, logrec.NewCommit(1))
	durable := len(lb.log())
	// Torn tail: half a record of a batch never sealed.
	partial, _ := logrec.NewCommit(2).Encode()
	lb.buf = append(lb.buf, partial[:len(partial)/2]...)

	// What the device hands recovery: the bytes up to its watermark, then
	// the zeros its open leaves past it.
	st := storage.NewStore()
	image := append(append([]byte(nil), lb.buf[:durable]...), make([]byte, len(partial))...)
	res, err := Recover(Options{Log: image, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Winners) != 1 {
		t.Fatalf("winners: %v", res.Winners)
	}
	if _, err := Recover(Options{Log: lb.buf, Store: storage.NewStore()}); !errors.Is(err, logrec.ErrBadSeal) {
		t.Fatalf("recovery over an unsealed batch claimed durable: %v, want ErrBadSeal", err)
	}
}

func TestRecoverIdempotent(t *testing.T) {
	var lb logBuilder
	pid := storage.MakePageID(1, 1)
	up := logrec.UpdatePayload{Op: logrec.OpInsert, Slot: 0, After: []byte("x")}
	_, _ = lb.add(t, logrec.NewUpdate(1, lsn.Undefined, pid, up))
	lb.add(t, logrec.NewCommit(1))

	st := storage.NewStore()
	if _, err := Recover(Options{Log: lb.log(), Store: st}); err != nil {
		t.Fatal(err)
	}
	res2, err := Recover(Options{Log: lb.log(), Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if res2.RedoApplied != 0 {
		t.Fatalf("second recovery redid %d records", res2.RedoApplied)
	}
	got, err := mustPage(t, st, pid).Get(0)
	if err != nil || string(got) != "x" {
		t.Fatalf("row: %q %v", got, err)
	}
}

func TestRecoverMultipleLosersInterleaved(t *testing.T) {
	var lb logBuilder
	p1 := storage.MakePageID(1, 1)
	p2 := storage.MakePageID(1, 2)
	// Two losers interleaved across two pages; undo must process their
	// combined updates in reverse LSN order.
	a1, _ := lb.add(t, logrec.NewUpdate(10, lsn.Undefined, p1,
		logrec.UpdatePayload{Op: logrec.OpInsert, Slot: 0, After: []byte("a1")}))
	b1, _ := lb.add(t, logrec.NewUpdate(11, lsn.Undefined, p2,
		logrec.UpdatePayload{Op: logrec.OpInsert, Slot: 0, After: []byte("b1")}))
	lb.add(t, logrec.NewUpdate(10, a1, p1,
		logrec.Splice(nil, 0, []byte("a1"), []byte("a2"))))
	lb.add(t, logrec.NewUpdate(11, b1, p2,
		logrec.Splice(nil, 0, []byte("b1"), []byte("b2"))))

	st := storage.NewStore()
	res, err := Recover(Options{Log: lb.log(), Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Losers) != 2 || res.UndoApplied != 4 {
		t.Fatalf("result: %+v", res)
	}
	if _, err := mustPage(t, st, p1).Get(0); err == nil {
		t.Fatal("loser 10 insert survived")
	}
	if _, err := mustPage(t, st, p2).Get(0); err == nil {
		t.Fatal("loser 11 insert survived")
	}
}

// TestNothingPastABadSealIsReplayed: a batch whose seal fails ends what
// the merge reads — a pass from any position stops before it, and the
// random access undo makes refuses an address in it — and recovery
// reports it before it touches a page.
func TestNothingPastABadSealIsReplayed(t *testing.T) {
	var lb logBuilder
	pid := storage.MakePageID(1, 1)
	_, _ = lb.add(t, logrec.NewUpdate(1, lsn.Undefined, pid, logrec.UpdatePayload{Op: logrec.OpInsert, Slot: 0, After: []byte("ok")}))
	lb.add(t, logrec.NewCommit(1))
	good := len(lb.log())
	loser, _ := lb.add(t, logrec.NewUpdate(2, lsn.Undefined, pid, logrec.UpdatePayload{Op: logrec.OpInsert, Slot: 1, After: []byte("rot")}))
	image := lb.log()
	image[len(image)-1] ^= 0x40 // the second batch's seal: its CRC

	m := NewLaneMerge([]Lane{{Log: image}})
	if err := m.Err(); !errors.Is(err, logrec.ErrBadSeal) {
		t.Fatalf("merge over a bad seal: %v, want ErrBadSeal", err)
	}
	if _, err := m.At(0, loser); err == nil {
		t.Fatalf("At(%v), in the batch whose seal failed, read a record", loser)
	}
	for _, from := range []uint64{0, uint64(loser)} {
		m.From(from)
		for mr, ok := m.Next(); ok; mr, ok = m.Next() {
			if int(mr.Rec.LSN) >= good {
				t.Fatalf("From(%d) yielded the record at %v, past the last good seal at %d", from, mr.Rec.LSN, good)
			}
		}
	}
	st := storage.NewStore()
	if _, err := Recover(Options{Log: image, Store: st}); !errors.Is(err, logrec.ErrBadSeal) {
		t.Fatalf("recovery over a bad seal: %v, want ErrBadSeal", err)
	}
	if ids := st.PageIDs(); len(ids) != 0 {
		t.Fatalf("recovery refused the log but touched pages %v", ids)
	}
}
