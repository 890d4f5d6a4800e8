package txn

import (
	"fmt"
	"sync/atomic"

	"aether/internal/lockmgr"
	"aether/internal/logrec"
	"aether/internal/lsn"
	"aether/internal/storage"
)

// Transaction states.
const (
	stActive int32 = iota
	// stPrecommitted: the commit record is in the log buffer; under ELR
	// the locks are already released. The transaction can no longer
	// abort (except by crash, which recovery handles).
	stPrecommitted
	stCommitted
	stAborted
)

// undoEntry remembers one update for transaction-local rollback. Runtime
// rollback uses this in-memory chain (every live transaction has its
// records at hand); crash rollback reads the durable log instead. The
// images — what the record logged, so a splice's trimmed bytes, not its
// rows — live in the scratch's arena, before then after, from img. An
// insert keeps none: its row is on the page until Abort deletes it, and
// the CLR is built from what is there.
type undoEntry struct {
	pageID    uint64
	at        lsn.LSN // LSN of the update record
	prev      lsn.LSN // PrevLSN of that record (the next undo target)
	img       int
	off       uint32 // the payload's Off
	beforeLen uint32
	afterLen  uint32
	slot      uint16
	op        logrec.UpdateOp
}

// indexUndo is the index half of undoing an Insert (delete the key) or
// a Delete (put the key back at rid).
type indexUndo struct {
	tbl      *Table
	key, rid uint64
	put      bool
}

// txnScratch is the rollback and lock state of one transaction. An Agent
// owns one and lends it to each transaction it begins, re-arming it at
// the next Begin rather than allocating: everything in it is dead by
// then (ARCHITECTURE.md, "What an agent owns"). A transaction that is
// not finished by then, or whose locks are released on another
// goroutine, keeps the scratch and the agent makes itself a new one.
type txnScratch struct {
	owner     *Txn
	locker    *lockmgr.Locker
	undo      []undoEntry
	arena     []byte // before and after images of every undo entry
	indexUndo []indexUndo
}

// Retention caps: scratch that a transaction grew beyond these is
// dropped at the next Begin instead of re-armed, so one bulk load does
// not pin its working set on the session for life. Anything smaller is
// kept, so a steady workload below the caps never reallocates.
const (
	maxUndoEntries  = 256      // x 48 B = 12 kB: any OLTP transaction's updates
	maxArenaBytes   = 64 << 10 // 256 entries' worth of deleted 250-byte rows (an insert keeps no image)
	maxIndexUndo    = 256      // x 32 B = 8 kB: one per inserted or deleted row
	maxRecordBuffer = 4 << 10  // what core.Appender's own encode buffer is held to
)

// rearm readies the scratch for transaction t, which must be on the
// agent's goroutine with the previous owner finished.
func (sc *txnScratch) rearm(t *Txn) {
	sc.owner = t
	sc.locker.Reset(t.id)
	if cap(sc.undo) > maxUndoEntries {
		sc.undo = nil
	}
	if cap(sc.arena) > maxArenaBytes {
		sc.arena = nil
	}
	if cap(sc.indexUndo) > maxIndexUndo {
		sc.indexUndo = nil
	}
	sc.undo = sc.undo[:0]
	sc.arena = sc.arena[:0]
	// Index undo entries point at tables; do not keep them reachable.
	for i := range sc.indexUndo {
		sc.indexUndo[i] = indexUndo{}
	}
	sc.indexUndo = sc.indexUndo[:0]
}

// Txn is one transaction. It is driven by a single agent goroutine.
type Txn struct {
	eng   *Engine
	agent *Agent
	id    uint64
	sc    *txnScratch

	last lsn.Atomic // most recent log record's home-lane LSN (PrevLSN chain)
	// lastStamp is that record's recStamp, which the checkpoint ATT
	// snapshots next to the transaction's name.
	lastStamp lsn.Atomic
	// first pins the truncation horizon: the first record's recStamp.
	first lsn.Atomic
	state atomic.Int32 // atomic: checkpoint and daemon callbacks read it

	// home is the transaction's log lane, assigned from its first logged
	// update's page space (-1 until then).
	home int

	lastEnd lsn.LSN // end LSN of the most recent record (home log)
	writes  int
	// whenDone is a detached commit's client callback, run by hardened.
	whenDone func(error)
}

// appendRec appends rec to the transaction's home lane (chosen at its
// first record) and returns what core.MultiAppender.Append does: the
// record's home-lane address and end, and its page and record stamps.
func (t *Txn) appendRec(rec *logrec.Record) (at, end, pageStamp, recStamp lsn.LSN, err error) {
	if t.home < 0 {
		t.home = t.eng.route(t.id, storage.PageSpace(rec.PageID))
	}
	return t.agent.ap.Append(t.home, rec)
}

// ID returns the transaction identifier.
func (t *Txn) ID() uint64 { return t.id }

// logUpdate is the storage.LogFunc for this transaction: register the
// page as dirty, append a physiological update record, chain PrevLSN,
// and remember the undo. It returns the record's page stamp, which the
// heap feeds to Page.Apply.
func (t *Txn) logUpdate(pageID uint64, up logrec.UpdatePayload) (lsn.LSN, error) {
	prev := t.last.Load()
	if prev == lsn.Undefined {
		// Publish a conservative first-stamp lower bound before the
		// insert reserves a real address. The durable horizon can never
		// exceed a future insert's stamp, so a checkpoint that observes
		// this bound (or observes Undefined, meaning our insert hasn't
		// started and will land above its begin record) can never set
		// the truncation horizon past our first record.
		t.first.Store(t.eng.log.Durable())
	}
	// The caller holds the page latch. The page enters the dirty-page
	// table at the log's stamp floor BEFORE its record enters the log —
	// ARIES's "recLSN = end of log when the page is first dirtied" — so
	// a fuzzy checkpoint whose begin record lands between an update's
	// log record and the page being marked dirty still snapshots the
	// page; without it, analysis (which starts at the begin record)
	// never learns the page needs that earlier record redone.
	t.eng.store.MarkDirty(pageID, t.eng.log.StampFloor())
	rec := &t.agent.rec
	rec.SetUpdate(t.id, prev, pageID, up)
	at, end, pageStamp, recStamp, err := t.appendRec(rec)
	if err != nil {
		return 0, err
	}
	if prev == lsn.Undefined {
		t.first.Store(recStamp)
	}
	// Keep the images: the payload aliases page memory that will change,
	// and rollback needs the originals. An insert's row stays on the
	// page, under our lock, for as long as rollback could want it.
	sc := t.sc
	e := undoEntry{pageID: pageID, at: at, prev: prev, slot: up.Slot, op: up.Op}
	if up.Op != logrec.OpInsert {
		e.img, e.off = len(sc.arena), up.Off
		e.beforeLen, e.afterLen = uint32(len(up.Before)), uint32(len(up.After))
		sc.arena = append(append(sc.arena, up.Before...), up.After...)
	}
	sc.undo = append(sc.undo, e)
	t.last.Store(at)
	t.lastStamp.Store(recStamp)
	t.lastEnd = end
	t.writes++
	return pageStamp, nil
}

// payload rebuilds the update e recorded, unless it is an insert (see
// undoOn); its images alias the arena.
func (sc *txnScratch) payload(e *undoEntry) logrec.UpdatePayload {
	mid := e.img + int(e.beforeLen)
	return logrec.UpdatePayload{
		Op:     e.op,
		Slot:   e.slot,
		Off:    e.off,
		Before: sc.arena[e.img:mid:mid],
		After:  sc.arena[mid : mid+int(e.afterLen) : mid+int(e.afterLen)],
	}
}

// undoOn logs and applies the CLR that undoes e on page, whose latch the
// caller holds exclusively. Same protocol as the forward path
// (storage.LogFunc): the CLR is logged and applied under the page latch,
// so the page's stamps follow log order, and the page enters the DPT
// before the record enters the log (see logUpdate). Dirtying under the
// latch also keeps the eviction path's clean-vs-steal decision, read
// from (pageLSN, DPT) under the same latch, consistent.
//
// An insert is undone by deleting the row it put in its slot, which is
// still there — undo runs newest first, so whatever the transaction did
// to the row later is undone already — and its CLR carries that row, as
// it did when the undo image was a copy.
func (t *Txn) undoOn(page *storage.Page, e *undoEntry) error {
	var inv logrec.UpdatePayload
	if e.op == logrec.OpInsert {
		row, err := page.View(int(e.slot))
		if err != nil {
			return fmt.Errorf("inserted row in slot %d: %w", e.slot, err)
		}
		inv = logrec.UpdatePayload{Op: logrec.OpDelete, Slot: e.slot, Before: row}
	} else {
		inv = t.sc.payload(e).Inverse()
	}
	t.eng.store.MarkDirty(e.pageID, t.eng.log.StampFloor())
	rec := &t.agent.rec
	rec.SetCLR(t.id, t.last.Load(), e.pageID, e.prev, inv)
	at, _, pageStamp, recStamp, err := t.appendRec(rec)
	if err != nil {
		return err
	}
	t.last.Store(at)
	t.lastStamp.Store(recStamp)
	return page.Apply(inv, pageStamp)
}

func (t *Txn) active() error {
	if t.state.Load() != stActive {
		return ErrTxnDone
	}
	return nil
}

// Insert adds a row under key. The row bytes must embed the key per the
// table's KeyOf convention.
func (t *Txn) Insert(tbl *Table, key uint64, row []byte) error {
	if err := t.active(); err != nil {
		return err
	}
	if err := t.sc.locker.Acquire(lockmgr.TableKey(tbl.Space), lockmgr.ModeIX); err != nil {
		return err
	}
	if err := t.sc.locker.Acquire(lockmgr.RowKey(tbl.Space, key), lockmgr.ModeX); err != nil {
		return err
	}
	if _, exists := tbl.Index.Get(key); exists {
		return ErrDuplicateKey
	}
	rid, err := tbl.Heap.Insert(row, t.logUpdate)
	if err != nil {
		return err
	}
	tbl.Index.Put(key, rid.Pack())
	t.sc.indexUndo = append(t.sc.indexUndo, indexUndo{tbl: tbl, key: key})
	return nil
}

// Read returns a copy of the row under key (S-locked).
func (t *Txn) Read(tbl *Table, key uint64) ([]byte, error) {
	if err := t.active(); err != nil {
		return nil, err
	}
	if err := t.sc.locker.Acquire(lockmgr.TableKey(tbl.Space), lockmgr.ModeIS); err != nil {
		return nil, err
	}
	if err := t.sc.locker.Acquire(lockmgr.RowKey(tbl.Space, key), lockmgr.ModeS); err != nil {
		return nil, err
	}
	packed, ok := tbl.Index.Get(key)
	if !ok {
		return nil, ErrKeyNotFound
	}
	row, err := tbl.Heap.Read(storage.UnpackRID(packed))
	if err != nil {
		return nil, fmt.Errorf("txn: index points at missing row: %w", err)
	}
	return row, nil
}

// Update rewrites the row under key through fn (X-locked
// read-modify-write).
func (t *Txn) Update(tbl *Table, key uint64, fn func(row []byte) ([]byte, error)) error {
	if err := t.active(); err != nil {
		return err
	}
	if err := t.sc.locker.Acquire(lockmgr.TableKey(tbl.Space), lockmgr.ModeIX); err != nil {
		return err
	}
	if err := t.sc.locker.Acquire(lockmgr.RowKey(tbl.Space, key), lockmgr.ModeX); err != nil {
		return err
	}
	packed, ok := tbl.Index.Get(key)
	if !ok {
		return ErrKeyNotFound
	}
	return tbl.Heap.Mutate(storage.UnpackRID(packed), t.logUpdate, fn)
}

// Delete removes the row under key.
func (t *Txn) Delete(tbl *Table, key uint64) error {
	if err := t.active(); err != nil {
		return err
	}
	if err := t.sc.locker.Acquire(lockmgr.TableKey(tbl.Space), lockmgr.ModeIX); err != nil {
		return err
	}
	if err := t.sc.locker.Acquire(lockmgr.RowKey(tbl.Space, key), lockmgr.ModeX); err != nil {
		return err
	}
	packed, ok := tbl.Index.Get(key)
	if !ok {
		return ErrKeyNotFound
	}
	rid := storage.UnpackRID(packed)
	if err := tbl.Heap.Delete(rid, t.logUpdate); err != nil {
		return err
	}
	tbl.Index.Delete(key)
	t.sc.indexUndo = append(t.sc.indexUndo, indexUndo{tbl: tbl, key: key, rid: rid.Pack(), put: true})
	return nil
}

// Scan visits rows with keys in [from, to] in key order under a
// table-level S lock (a coarse-grained scan: simple, and correct against
// concurrent writers, which block on the table lock).
func (t *Txn) Scan(tbl *Table, from, to uint64, fn func(key uint64, row []byte) bool) error {
	if err := t.active(); err != nil {
		return err
	}
	if err := t.sc.locker.Acquire(lockmgr.TableKey(tbl.Space), lockmgr.ModeS); err != nil {
		return err
	}
	var scanErr error
	tbl.Index.Scan(from, to, func(key, packed uint64) bool {
		row, err := tbl.Heap.Read(storage.UnpackRID(packed))
		if err != nil {
			scanErr = fmt.Errorf("txn: scan at key %d: %w", key, err)
			return false
		}
		return fn(key, row)
	})
	return scanErr
}

// Commit finishes the transaction under the given protocol. whenDone, if
// non-nil, runs exactly once when the commit outcome is decided for the
// client: after durability for safe modes, immediately for CommitAsync.
// For pipelined modes whenDone runs on the log daemon's goroutine; for
// others it runs on the caller's.
//
// The returned error reports the synchronous part only; pipelined
// durability errors arrive via whenDone.
func (t *Txn) Commit(mode CommitMode, whenDone func(error)) error {
	if err := t.active(); err != nil {
		return err
	}

	// Read-only transactions have nothing to harden: release and reply.
	if t.writes == 0 {
		t.state.Store(stCommitted)
		t.sc.locker.ReleaseAll()
		t.eng.attRemove(t.id)
		t.eng.stats.ReadOnly.Inc()
		t.eng.stats.Commits.Inc()
		if whenDone != nil {
			whenDone(nil)
		}
		return nil
	}

	rec := &t.agent.rec
	rec.Reset(logrec.KindCommit, t.id, t.last.Load())
	at, end, _, recStamp, err := t.appendRec(rec)
	if err != nil {
		return err
	}
	t.last.Store(at)
	t.lastStamp.Store(recStamp)
	t.lastEnd = end
	t.state.Store(stPrecommitted)

	// All waits are against the transaction's own lane: the flush
	// limiter guarantees the home lane cannot harden the commit record
	// before every cross-lane dependency of the transaction's updates is
	// durable, so the home durable horizon is the commit's full
	// durability condition (invariant 6).
	lm := t.eng.waitLM(t.home)

	switch mode {
	case CommitSync:
		// Traditional: hold locks across the flush.
		err := lm.WaitDurable(end)
		t.sc.locker.ReleaseAll()
		t.finishCommit(err == nil)
		if whenDone != nil {
			whenDone(err)
		}
		return err

	case CommitSyncELR:
		// ELR: dependants may acquire our locks while we await the flush.
		t.sc.locker.ReleaseAll()
		err := lm.WaitDurable(end)
		t.finishCommit(err == nil)
		if whenDone != nil {
			whenDone(err)
		}
		return err

	case CommitAsync:
		// Unsafe: reply before durability (lost on crash). The txn must
		// stay in the ATT until the commit record hardens, though: the
		// truncation horizon treats ATT absence as "durably finished",
		// and recycling this txn's records while it can still come back
		// as a recovery loser would leave its undo chain unreadable.
		t.sc.locker.ReleaseAll()
		lm.OnDurable(end, t.hardened)
		if whenDone != nil {
			whenDone(nil)
		}
		return nil

	case CommitPipelined:
		// ELR + detach: the agent thread is free immediately; the log
		// daemon completes the transaction when the record hardens.
		t.sc.locker.ReleaseAll()
		t.whenDone = whenDone
		lm.OnDurable(end, t.hardened)
		return nil

	case CommitPipelinedHoldLocks:
		// Ablation: detach but keep locks until durability. Demonstrates
		// the log-induced lock contention ELR exists to remove. The
		// release runs on the daemon goroutine, so it must bypass the
		// agent's (single-threaded) lock cache — and the locker goes
		// with the transaction: the agent, which may begin its next
		// transaction before the daemon gets here, must not re-arm it.
		locker := t.sc.locker
		if t.agent.sc == t.sc {
			t.agent.sc = nil
		}
		t.whenDone = whenDone
		lm.OnDurable(end, func(err error) {
			locker.ReleaseAllToTable()
			t.hardened(err)
		})
		return nil
	}
	return fmt.Errorf("txn: unknown commit mode %d", int(mode))
}

// hardened completes a detached commit on the log daemon's goroutine,
// once the commit record is durable (or the log has failed with err).
func (t *Txn) hardened(err error) {
	t.finishCommit(err == nil)
	if done := t.whenDone; done != nil {
		// The agent's scratch keeps its last transaction reachable; do
		// not let that pin whatever the client's callback captured.
		t.whenDone = nil
		done(err)
	}
}

// finishCommit completes post-commit bookkeeping.
func (t *Txn) finishCommit(ok bool) {
	if ok {
		t.state.Store(stCommitted)
		t.eng.stats.Commits.Inc()
	} else {
		t.state.Store(stAborted)
		t.eng.stats.Aborts.Inc()
	}
	t.eng.attRemove(t.id)
}

// Abort rolls the transaction back: walk the undo chain newest-first,
// apply inverses, and log a CLR for each so a crash mid-rollback resumes
// correctly. Violates-precommit attempts are rejected (ELR condition 2).
func (t *Txn) Abort() error {
	switch t.state.Load() {
	case stActive:
	case stPrecommitted:
		return ErrPrecommitted
	default:
		return ErrTxnDone
	}

	if t.writes > 0 {
		rec := &t.agent.rec
		rec.Reset(logrec.KindAbort, t.id, t.last.Load())
		at, _, _, recStamp, err := t.appendRec(rec)
		if err != nil {
			return err
		}
		t.last.Store(at)
		t.lastStamp.Store(recStamp)

		sc := t.sc
		for i := len(sc.undo) - 1; i >= 0; i-- {
			e := &sc.undo[i]
			page, ferr := t.eng.store.Get(e.pageID)
			if ferr != nil {
				return fmt.Errorf("txn: undo fault: %w", ferr)
			}
			if page == nil {
				return fmt.Errorf("txn: undo lost page %d", e.pageID)
			}
			page.Latch.Lock()
			err := t.undoOn(page, e)
			page.Latch.Unlock()
			page.Unpin()
			if err != nil {
				return fmt.Errorf("txn: undo page %d: %w", e.pageID, err)
			}
		}
		for i := len(sc.indexUndo) - 1; i >= 0; i-- {
			if u := sc.indexUndo[i]; u.put {
				u.tbl.Index.Put(u.key, u.rid)
			} else {
				u.tbl.Index.Delete(u.key)
			}
		}
		rec.Reset(logrec.KindEnd, t.id, t.last.Load())
		at, endEnd, _, endStamp, aerr := t.appendRec(rec)
		t.state.Store(stAborted)
		t.sc.locker.ReleaseAll()
		t.eng.stats.Aborts.Inc()
		if aerr != nil {
			// No end record: stay in the ATT so the txn's first LSN
			// keeps pinning the truncation horizon — a crash must still
			// find the whole undo chain.
			return aerr
		}
		t.last.Store(at)
		t.lastStamp.Store(endStamp)
		// Leave the ATT only once the rollback is durable: until then
		// the txn's first LSN must keep pinning the truncation horizon,
		// or a crash could find a loser whose undo chain was recycled.
		// Capture only what the callback needs, not the whole Txn.
		eng, id := t.eng, t.id
		t.eng.waitLM(t.home).OnDurable(endEnd, func(error) { eng.attRemove(id) })
		return nil
	}

	t.state.Store(stAborted)
	t.sc.locker.ReleaseAll()
	t.eng.attRemove(t.id)
	t.eng.stats.Aborts.Inc()
	return nil
}
