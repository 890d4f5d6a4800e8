package recovery

import (
	"errors"
	"fmt"
	"testing"

	"aether/internal/logrec"
	"aether/internal/lsn"
	"aether/internal/storage"
)

// commit appends txn's commit record to the given lane, named by the
// transaction's slot if it has one.
func (r *rows) commit(t *testing.T, lane int, txn uint64) {
	rec := logrec.NewCommit(txn)
	rec.Slot = r.slots[txn]
	r.ll.add(t, lane, rec)
}

// cut drops lane i's log past n bytes, a seal's end, as a crash that
// lost the lane's later flushes does.
func (ll *laneLogs) cut(i, n int) {
	ll.lanes[i].buf = ll.lanes[i].buf[:n]
	ll.lanes[i].sealed = n
}

// TestSlotReusedAfterCheckpoint: a slot used by a committed transaction
// below a checkpoint that named nobody, and again by a loser on the same
// lane after it. A later checkpoint names the loser, so analysis reads
// the older holder's records too: the loser's first record binds the
// slot afresh, so its later update is its own and not the committed
// holder's, and undo compensates both of its updates.
func TestSlotReusedAfterCheckpoint(t *testing.T) {
	forLanes(t, func(t *testing.T, ll *laneLogs, lane func(int) int) {
		pid := storage.MakePageID(1, 1)
		r := newRows(t, ll, pid, 2)
		r.slots[5], r.slots[6] = 3, 3
		r.set(t, lane(1), 5, 0, 50)
		r.set(t, lane(1), 5, 1, 51)
		r.commit(t, lane(1), 5)
		committed := append([]uint64(nil), r.vals...)
		ll.checkpoint(t, logrec.CheckpointPayload{DirtyPages: []logrec.DirtyPageEntry{{PageID: pid, RecLSN: r.start}}})
		_, reused := r.set(t, lane(1), 6, 1, 61)
		ll.checkpoint(t, logrec.CheckpointPayload{
			ActiveTxns: []logrec.TxnTableEntry{{TxnID: 6, LastLSN: reused}},
			DirtyPages: []logrec.DirtyPageEntry{{PageID: pid, RecLSN: r.start}},
		})
		r.set(t, lane(1), 6, 0, 62)
		st, res, err := recoverWith(t, ll, -1)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(res.Losers) != "[6]" || len(res.Winners) != 0 || res.UndoApplied != 2 {
			t.Fatalf("losers %v winners %v, %d undone, want loser [6], no winner and 2", res.Losers, res.Winners, res.UndoApplied)
		}
		r.check(t, st, committed)
	})
}

// TestSlotBoundBelowCheckpoint: a transaction whose first record lies
// below the begin record of a checkpoint that names nobody — it
// committed before the checkpoint read the transaction table — commits
// by its slot after the begin record. Analysis starts at the begin
// record, and the slot must be bound there as a pass from the tails'
// start would have left it, so the commit is the transaction's.
func TestSlotBoundBelowCheckpoint(t *testing.T) {
	forLanes(t, func(t *testing.T, ll *laneLogs, lane func(int) int) {
		pid := storage.MakePageID(1, 1)
		r := newRows(t, ll, pid, 1)
		r.slots[5] = 2
		r.set(t, lane(1), 5, 0, 50)
		beginAt, _ := ll.add(t, 0, &logrec.Record{Header: logrec.Header{Kind: logrec.KindCheckpointBegin}})
		r.commit(t, lane(1), 5)
		ll.add(t, 0, &logrec.Record{
			Header:  logrec.Header{Kind: logrec.KindCheckpointEnd, Aux: uint64(beginAt)},
			Payload: (&logrec.CheckpointPayload{DirtyPages: []logrec.DirtyPageEntry{{PageID: pid, RecLSN: r.start}}}).Encode(nil),
		})
		st, res, err := recoverWith(t, ll, -1)
		if err != nil {
			t.Fatal(err)
		}
		if res.CheckpointLSN != beginAt || fmt.Sprint(res.Winners) != "[5]" || len(res.Losers) != 0 {
			t.Fatalf("checkpoint %v, winners %v, losers %v; want %v, [5] and none", res.CheckpointLSN, res.Winners, res.Losers, beginAt)
		}
		r.check(t, st, r.vals)
	})
}

// slotHandoff builds, on three lanes, a loser whose slot a winner bound
// again: transaction 2 updates slot 0 of the page twice on lane 1 and
// commits, but lane 1 loses the flush that held its commit record; its
// agent had passed the slot to transaction 3 by then, whose updates of
// slot 1 and commit harden on lane 2. It returns the rows and the
// values recovery must leave.
func slotHandoff(t *testing.T, ll *laneLogs) (*rows, []uint64) {
	r := newRows(t, ll, storage.MakePageID(1, 1), 2)
	committed := append([]uint64(nil), r.vals...)
	r.slots[2], r.slots[3] = 4, 4
	r.set(t, 1, 2, 0, 20)
	r.set(t, 1, 2, 0, 21)
	lost := len(ll.lanes[1].log())
	r.commit(t, 1, 2)
	r.set(t, 2, 3, 1, 30)
	r.set(t, 2, 3, 1, 31)
	r.commit(t, 2, 3)
	committed[1] = 31
	ll.cut(1, lost)
	return r, committed
}

// TestSlotLostCommitOtherLaneRebinds: transaction 2's commit record is
// lost with its lane's tail while transaction 3, on the same slot,
// hardens on another lane. Everything of 2 precedes 3's first record in
// the merged order, so the rebinding names 3 and leaves 2's records
// with 2: 2 is undone, 3 kept.
func TestSlotLostCommitOtherLaneRebinds(t *testing.T) {
	ll := newLaneLogs(3)
	r, committed := slotHandoff(t, ll)
	st, res, err := recoverWith(t, ll, -1)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(res.Losers) != "[2]" || fmt.Sprint(res.Winners) != "[1 3]" || res.UndoApplied != 2 {
		t.Fatalf("losers %v winners %v, %d undone, want loser [2], winners [1 3] and 2", res.Losers, res.Winners, res.UndoApplied)
	}
	r.check(t, st, committed)
}

// TestSlotRecoveryCLRsNameTheLoser: recovery's undo of transaction 2
// (slotHandoff) loses power after its first CLR, and a second recovery
// finishes it. The CLR the first one logged follows transaction 3's
// first record, which bound 2's slot again, so it must name 2 in full:
// the second recovery then undoes only the update that CLR left, and a
// third finds nothing to do.
func TestSlotRecoveryCLRsNameTheLoser(t *testing.T) {
	ll := newLaneLogs(3)
	r, committed := slotHandoff(t, ll)
	if _, _, err := recoverWith(t, ll, 1); !errors.Is(err, errPowerCut) {
		t.Fatalf("first recovery: %v, want the power cut after one record", err)
	}
	st, res, err := recoverWith(t, ll, -1)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(res.Losers) != "[2]" || res.UndoApplied != 1 {
		t.Fatalf("second recovery: losers %v, %d undone, want [2] and the 1 the first left", res.Losers, res.UndoApplied)
	}
	r.check(t, st, committed)
	st, res, err = recoverWith(t, ll, -1)
	if err != nil || len(res.Losers) != 0 || res.UndoApplied != 0 {
		t.Fatalf("third recovery: %+v, %v, want nothing to undo", res, err)
	}
	r.check(t, st, committed)
}

// FuzzSlotResolve drives agents through random histories — begin,
// update, commit, abort with its CLRs and end record, a transaction
// begun while the agent's previous one is still active (which gives the
// agent's slot back to the pool when it finishes, for any agent to take
// at a later begin), an agent closed and its slot lent to another — on
// one lane or three, truncates the
// lanes at bases the retention rule allows (no active transaction's
// first record below a lane's base) and cuts random tails off them, and
// reads what is left through LaneMerge: every record must name its true
// transaction, but for a record that carries only a slot whose
// transaction finished below its lane's base, which must name none. A
// pass that starts at any record's order must resolve as the pass from
// the start did.
func FuzzSlotResolve(f *testing.F) {
	f.Add([]byte{0, 0x00, 0x11, 0x21, 0x02, 0x12, 0x31, 0x43, 0x03, 0x51, 0x13, 0x62})
	f.Add([]byte{1, 0x00, 0x10, 0x01, 0x11, 0x20, 0x21, 0x02, 0x12, 0x30, 0x33, 0x40, 0x44, 0x05, 0x21, 0x22, 0x77, 0x90})
	f.Add([]byte{1, 0x04, 0x05, 0x06, 0x00, 0x10, 0x01, 0x11, 0x02, 0x03, 0x13, 0x14, 0x20, 0x23, 0x30, 0x31, 0x32, 0x3a, 0x3f})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 400 {
			return
		}
		n := 1 + 2*int(data[0]&1)
		h := newSlotHistory(n)
		ops, cuts := data[1:], data[1:]
		if len(ops) > 8 {
			ops, cuts = data[1:len(data)-4], data[len(data)-4:]
		}
		for _, op := range ops {
			h.step(t, op)
		}
		h.check(t, cuts)
	})
}

// slotAgent is an agent in a slotHistory: the slot it lends, and its
// transactions that can still log, oldest first — more than one only
// when one was begun while the previous was still active.
type slotAgent struct {
	slot   uint8
	active []*slotTxn
}

// slotTxn is a transaction in a slotHistory.
type slotTxn struct {
	id    uint64
	slot  uint8
	lane  int
	first uint64 // the order of its first record; 0 before it
	last  uint64 // the order of its newest record
	prev  lsn.LSN
	done  bool
	// orphan: its agent moved on while it held the agent's slot; it
	// returns the slot to the pool when it finishes.
	orphan bool
}

// slotHistory writes records as the engine's agents would, one batch a
// record, and remembers whose each one is.
type slotHistory struct {
	ll     *laneLogs
	agents []*slotAgent
	pool   []uint8 // slots no agent holds
	nextID uint64
	whose  map[[2]uint64]*slotTxn // (lane, LSN) -> the record's transaction
	txns   []*slotTxn             // every transaction, in the order begun
	ends   [][]int                // each lane's seal ends, in order
	seqAt  [][]uint64             // each lane's records' orders
}

func newSlotHistory(n int) *slotHistory {
	h := &slotHistory{ll: newLaneLogs(n), whose: make(map[[2]uint64]*slotTxn), ends: make([][]int, n), seqAt: make([][]uint64, n)}
	// Four agents with slots 1-4; a fifth made when none was free.
	for s := uint8(1); s <= 5; s++ {
		h.agents = append(h.agents, &slotAgent{slot: s % 5})
	}
	h.pool = []uint8{7, 6}
	return h
}

// add appends rec for x on its lane as one sealed batch.
func (h *slotHistory) add(t *testing.T, x *slotTxn, rec *logrec.Record) {
	rec.Slot = x.slot
	at, stamp := h.ll.add(t, x.lane, rec)
	h.ll.lanes[x.lane].log()
	order := uint64(stamp)
	h.whose[[2]uint64{uint64(x.lane), uint64(at)}] = x
	h.ends[x.lane] = append(h.ends[x.lane], len(h.ll.lanes[x.lane].buf))
	h.seqAt[x.lane] = append(h.seqAt[x.lane], order)
	if x.first == 0 {
		x.first = order + 1 // orders start at 0 on one lane
	}
	x.last = order
	x.prev = at
}

// step runs one operation: the low nibble picks the agent, a lane and
// which of the agent's active transactions acts, the high one what it
// does.
func (h *slotHistory) step(t *testing.T, op byte) {
	a := h.agents[int(op&0x0f)%len(h.agents)]
	lane := int(op&0x0f) % len(h.ll.lanes)
	var cur *slotTxn
	if k := len(a.active); k > 0 {
		cur = a.active[int(op&0x0f)%k]
	}
	pid := storage.MakePageID(1, uint64(op&0x0f)+1)
	switch (op >> 4) % 6 {
	case 0: // begin, or update if a transaction is open
		if cur == nil {
			h.begin(a, lane)
			return
		}
		fallthrough
	case 1, 2: // update; the transaction's first names it in full
		if cur == nil {
			cur = h.begin(a, lane)
		}
		prev := cur.prev
		if cur.first == 0 {
			prev = lsn.Undefined
		}
		h.add(t, cur, logrec.NewUpdate(cur.id, prev, pid, logrec.UpdatePayload{Op: logrec.OpInsert, After: []byte{op}}))
	case 3: // commit
		if cur == nil || cur.first == 0 {
			return
		}
		h.add(t, cur, logrec.NewCommit(cur.id))
		h.finish(a, cur)
	case 4: // abort: the abort record, a CLR, the end record
		if cur == nil || cur.first == 0 {
			return
		}
		h.add(t, cur, logrec.NewAbort(cur.id))
		h.add(t, cur, logrec.NewCLR(cur.id, pid, lsn.Undefined, logrec.UpdatePayload{Op: logrec.OpDelete, Before: []byte{op}}))
		h.add(t, cur, logrec.NewEnd(cur.id))
		h.finish(a, cur)
	case 5: // begin while a transaction is active, or close and reopen
		if cur != nil {
			// The agent gives its slot up to the transaction holding it,
			// which returns it when it finishes.
			for _, x := range a.active {
				if x.slot != 0 && x.slot == a.slot {
					x.orphan = true
				}
			}
			a.slot = 0
			h.begin(a, lane)
			return
		}
		if a.slot != 0 {
			h.pool = append([]uint8{a.slot}, h.pool...)
		}
		a.slot = 0
		if k := len(h.pool); k > 0 {
			a.slot, h.pool = h.pool[k-1], h.pool[:k-1]
		}
	}
}

// begin starts a transaction on agent a, homed on lane; it logs nothing
// yet. An agent without a slot takes one, if one is free, unless it is
// beginning beside a transaction still active.
func (h *slotHistory) begin(a *slotAgent, lane int) *slotTxn {
	if k := len(h.pool); a.slot == 0 && k > 0 && len(a.active) == 0 {
		a.slot, h.pool = h.pool[k-1], h.pool[:k-1]
	}
	h.nextID++
	x := &slotTxn{id: h.nextID, slot: a.slot, lane: lane}
	a.active = append(a.active, x)
	h.txns = append(h.txns, x)
	return x
}

// finish ends x, one of a's active transactions.
func (h *slotHistory) finish(a *slotAgent, x *slotTxn) {
	x.done = true
	if x.orphan {
		h.pool = append(h.pool, x.slot)
	}
	for i, y := range a.active {
		if y == x {
			a.active = append(a.active[:i], a.active[i+1:]...)
			return
		}
	}
}

// check truncates and cuts the lanes by the bytes of cuts, then reads
// them back and compares every record with what was written.
func (h *slotHistory) check(t *testing.T, cuts []byte) {
	cut := func(i int) byte { return cuts[i%len(cuts)] }
	n := len(h.ll.lanes)
	// The horizon: a point in the history, pulled back below the first
	// record of every transaction active there.
	var top uint64
	for _, seqs := range h.seqAt {
		if k := len(seqs); k > 0 {
			top = max(top, seqs[k-1]+1)
		}
	}
	point := top * uint64(cut(0)) / 255
	horizon := point
	for _, x := range h.txns {
		if x.first != 0 && x.first-1 < point && (!x.done || x.last >= point) {
			horizon = min(horizon, x.first-1)
		}
	}
	lanes := make([]Lane, n)
	bases := make([]uint64, n) // each lane's first order kept
	for i := range lanes {
		buf := h.ll.lanes[i].log()
		// The base: the first batch at or above a point at or below the
		// horizon (lanes truncate at their own pace).
		floor := horizon * uint64(cut(1+i)) / 255
		from, k := 0, 0
		for k < len(h.seqAt[i]) && h.seqAt[i][k] < floor {
			from = h.ends[i][k]
			k++
		}
		bases[i] = top
		if k < len(h.seqAt[i]) {
			bases[i] = h.seqAt[i][k]
		}
		// The lost tail: keep a prefix of what is above the base.
		to := len(buf)
		if rest := len(h.ends[i]) - k; rest > 0 {
			switch keep := rest * int(cut(2+i)) / 200; {
			case keep == 0:
				to = from
			case keep < rest:
				to = h.ends[i][k+keep-1]
			}
		}
		lanes[i] = Lane{Log: buf[from:to], Base: lsn.LSN(from)}
	}
	m := NewLaneMerge(lanes)
	var all []Merged
	for mr, ok := m.Next(); ok; mr, ok = m.Next() {
		all = append(all, mr)
		x := h.whose[[2]uint64{uint64(mr.Lane), uint64(mr.Rec.LSN)}]
		got := mr.Rec.TxnID
		switch {
		case x == nil:
			t.Fatalf("lane %d: a record at %v nobody wrote", mr.Lane, mr.Rec.LSN)
		case got == x.id:
		case got == 0 && mr.Rec.Slot != 0 && x.first-1 < bases[x.lane] && x.done && x.last < point:
			// Its first record lies below the base: unbound, and it had
			// finished where the lane was truncated.
		default:
			t.Fatalf("N=%d: the %v at %v (lane %d, order %d, slot %d) resolved to txn %d, written by %d (first at order %d, base %d, horizon %d)",
				n, mr.Rec.Kind, mr.Rec.LSN, mr.Lane, mr.Order, mr.Rec.Slot, got, x.id, x.first-1, bases[x.lane], horizon)
		}
	}
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	if len(all) == 0 {
		return
	}
	at := all[int(cut(3))%len(all)]
	m.From(at.Order)
	for i, want := range all {
		if want.Order < at.Order {
			continue
		}
		got, ok := m.Next()
		if !ok || got.Rec.LSN != want.Rec.LSN || got.Lane != want.Lane || got.Rec.TxnID != want.Rec.TxnID {
			t.Fatalf("N=%d: the pass from order %d yields %+v at record %d, the pass from the start %+v", n, at.Order, got, i, want)
		}
	}
}
