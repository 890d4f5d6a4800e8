// lanemerge.go is the one way the durable log is read back: a streaming
// iterator over N >= 1 lane tails that yields every record with its
// position in the total order and the stamp a page carries after
// applying it. Restart recovery (and so every restore, which is one) and
// logdump's merged view consume it; nothing else in the tree orders
// records. It checks every lane's tail against its seals once, when it
// is built, and from then on reads only the bytes they vouch for: a
// pass from any position, and the random access undo makes, never
// replays a byte past the last good seal.
//
// It is also the one place a slot is mapped back to its transaction
// (logrec.Header.Slot): every record a pass yields names its transaction
// by TxnID, as the engine wrote it, whether the log spelt out the ID or
// carried only the slot.
package recovery

import (
	"fmt"

	"aether/internal/logrec"
	"aether/internal/lsn"
)

// Lane is one log lane's durable image.
type Lane struct {
	// Log holds the lane's raw bytes (from logdev.ReadTail).
	Log []byte
	// Base is the LSN of Log[0]: the lane's truncation horizon.
	Base lsn.LSN
}

// Merged is one record of the merged stream.
type Merged struct {
	// Lane is the lane the record was read from.
	Lane int
	// Rec is the record; Rec.LSN is its address on Lane.
	Rec logrec.Record
	// Order is the record's position in the total order: its LSN on one
	// lane (where LSN order already is the total order), its global seq
	// on N. Rec.TxnID is resolved: a record logged with only a slot
	// names the transaction whose first record bound that slot, or 0 if
	// that first record lies below the lane's base (see LaneMerge).
	Order uint64
	// Stamp is what a page image carries once the record is applied: the
	// record's end LSN on one lane, its global seq on N. A page whose
	// stamp is at or above it already reflects the record.
	Stamp lsn.LSN
}

// LaneMerge iterates lane tails in the total order. One lane is plain
// iteration with a seek; N lanes are a k-way merge by global seq holding
// one decoded record per lane — never the whole tail.
//
// It resolves slots as it goes. A transaction's first record binds its
// slot, and a record that carries only the slot names the transaction of
// the slot's newest binding in the total order. That is the record's own
// transaction: an agent passes its slot on only once the holder can log
// nothing more, so every record of one holder precedes the next holder's
// first record in the total order, whichever lanes the two are homed on.
// The binding must also lie on the record's lane, where all of its
// transaction's records are: one on another lane belongs to an earlier
// holder, and means the record's own first record lies below its lane's
// base — which truncation allows only for a transaction that finished —
// so the record stays unresolved (TxnID 0).
type LaneMerge struct {
	lanes []Lane // each cut at its last good seal
	bad   error  // the first lane whose seals failed
	its   []*logrec.Iterator
	start []int // byte offset each lane's iterator began at
	heads []logrec.Record
	live  []bool
	from  uint64 // N lanes: records ordered below it are skipped
	top   uint64
	slots [logrec.MaxSlot + 1]binding
}

// binding is a slot's newest binding: the transaction whose first record
// named it, that record's lane and its order.
type binding struct {
	txn   uint64
	lane  int
	order uint64
}

// NewLaneMerge checks every lane's tail, which must start a batch (a
// lane's base does), against its seals, and returns an iterator over the
// bytes they vouch for, positioned at the start of every lane. A lane
// whose seals fail is read up to its last good one, and Err reports it.
func NewLaneMerge(lanes []Lane) *LaneMerge {
	m := &LaneMerge{
		lanes: make([]Lane, len(lanes)),
		its:   make([]*logrec.Iterator, len(lanes)),
		start: make([]int, len(lanes)),
		heads: make([]logrec.Record, len(lanes)),
		live:  make([]bool, len(lanes)),
	}
	for i, l := range lanes {
		n, err := logrec.Verify(l.Log, l.Base)
		m.lanes[i] = Lane{Log: l.Log[:n], Base: l.Base}
		if err != nil && m.bad == nil {
			m.bad = fmt.Errorf("lane %d: %w", i, err)
		}
	}
	m.From(0)
	return m
}

// From repositions the iterator at the first record whose Order is at
// or above order, with every slot bound as a pass from the lanes' bases
// would have left it there. On one lane order must be a record's LSN (or
// lie outside the tail): the iterator seeks, and the records it skips
// are read for their slot bindings only. On N lanes every lane restarts
// at its base and records below order are decoded, bound and dropped —
// lanes are only ordered, not indexed, by seq.
func (m *LaneMerge) From(order uint64) {
	m.from = order
	m.slots = [logrec.MaxSlot + 1]binding{}
	for i, l := range m.lanes {
		off := 0
		if len(m.lanes) == 1 && order > uint64(l.Base) {
			off = int(min(order-uint64(l.Base), uint64(len(l.Log))))
			it := logrec.NewVerifiedIterator(l.Log[:off], l.Base)
			for rec, ok := it.Next(); ok; rec, ok = it.Next() {
				m.bind(i, &rec, uint64(rec.LSN))
			}
		}
		m.start[i] = off
		m.its[i] = logrec.NewVerifiedIterator(l.Log[off:], l.Base.Add(off))
		m.advance(i)
	}
}

// advance loads lane i's next record into its head slot.
func (m *LaneMerge) advance(i int) {
	for {
		m.heads[i], m.live[i] = m.its[i].Next()
		if !m.live[i] {
			return
		}
		if len(m.lanes) == 1 {
			return
		}
		seq := uint64(m.heads[i].Seq)
		m.top = max(m.top, seq)
		if seq >= m.from {
			return
		}
		m.bind(i, &m.heads[i], seq)
	}
}

// bind records the slot binding rec makes, if it is a first record with
// a slot, unless the slot already holds a newer one (From reads the
// lanes below its order one after another, not in the total order).
func (m *LaneMerge) bind(lane int, rec *logrec.Record, order uint64) {
	if rec.First && rec.Slot != 0 && order >= m.slots[rec.Slot].order {
		m.slots[rec.Slot] = binding{txn: rec.TxnID, lane: lane, order: order}
	}
}

// resolve binds the slot of a first record Next yields, and names the
// transaction of a record that carries only a slot (see LaneMerge).
func (m *LaneMerge) resolve(mr *Merged) {
	rec := &mr.Rec
	if rec.First {
		m.bind(mr.Lane, rec, mr.Order)
	} else if rec.TxnID == 0 && rec.Slot != 0 {
		if b := m.slots[rec.Slot]; b.lane == mr.Lane {
			rec.TxnID = b.txn
		}
	}
}

// Next returns the next record in the total order, or ok=false once
// every lane has ended (cleanly or at a gap — see Err).
func (m *LaneMerge) Next() (Merged, bool) {
	best := -1
	for i := range m.heads {
		if m.live[i] && (best < 0 || m.heads[i].Seq < m.heads[best].Seq) {
			best = i
		}
	}
	if best < 0 {
		return Merged{}, false
	}
	out := m.place(best, m.heads[best])
	m.resolve(&out)
	m.advance(best)
	return out, true
}

// place puts a record read from the given lane into the total order.
func (m *LaneMerge) place(lane int, rec logrec.Record) Merged {
	if len(m.lanes) == 1 {
		return Merged{Lane: lane, Rec: rec, Order: uint64(rec.LSN), Stamp: rec.LSN.Add(int(rec.TotalLen))}
	}
	return Merged{Lane: lane, Rec: rec, Order: uint64(rec.Seq), Stamp: lsn.LSN(rec.Seq)}
}

// At decodes the record at address at on the given lane — the random
// access undo needs to reread a loser's update — without moving the
// iterator. It reads only bytes the lane's seals vouch for. It resolves
// no slot: its caller knows whose record it asks for.
func (m *LaneMerge) At(lane int, at lsn.LSN) (Merged, error) {
	l := m.lanes[lane]
	if at < l.Base {
		return Merged{}, fmt.Errorf("recovery: LSN %v below truncation base %v", at, l.Base)
	}
	if at.Sub(l.Base) >= uint64(len(l.Log)) {
		return Merged{}, fmt.Errorf("recovery: LSN %v beyond durable log (%d bytes from %v)", at, len(l.Log), l.Base)
	}
	rec, _, err := logrec.Decode(l.Log[at.Sub(l.Base):])
	if err != nil {
		return Merged{}, err
	}
	rec.LSN = at
	return m.place(lane, rec), nil
}

// Err reports the first lane whose seals failed (a torn, short or rotten
// batch with log behind it, or a tail no seal closes), or that stopped
// at a malformed record, rather than at its clean end.
func (m *LaneMerge) Err() error {
	if m.bad != nil {
		return m.bad
	}
	for i, it := range m.its {
		if err := it.Err(); err != nil {
			return fmt.Errorf("lane %d: %w", i, err)
		}
	}
	return nil
}

// Span returns how many log bytes lie between where the last From
// positioned each lane and the lane's end: what a full pass covers.
func (m *LaneMerge) Span() int64 {
	var n int64
	for i, l := range m.lanes {
		n += int64(len(l.Log) - m.start[i])
	}
	return n
}

// Top returns the top of the stamp domain in the tails: the log end on
// one lane; on N lanes the largest seq decoded so far (every seq, after
// a pass from 0). Stamps made up for unlogged undo start above it and
// advance by Step.
func (m *LaneMerge) Top() uint64 {
	if len(m.lanes) == 1 {
		return uint64(m.lanes[0].Base.Add(len(m.lanes[0].Log)))
	}
	return m.top
}

// Step is the distance between two made-up stamps: what the smallest
// real record would advance the log by on one lane, 1 on N.
func (m *LaneMerge) Step() uint64 {
	if len(m.lanes) == 1 {
		return logrec.MinRecordSize
	}
	return 1
}

// LastSeq returns the largest global sequence stamp decoded so far: 0 on
// one lane, whose records carry none.
func (m *LaneMerge) LastSeq() uint64 { return m.top }
