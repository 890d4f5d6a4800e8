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
// rollback uses these in-memory entries (every live transaction has its
// records at hand); crash rollback collects a loser's records from the
// durable log instead. The payload the record logged — a splice's X and
// tail, a delete's row without its zero tail — lives in the scratch's
// arena, n bytes from img. An insert keeps none: its row is on the page
// until Abort deletes it, and the CLR is built from what is there.
type undoEntry struct {
	pageID uint64
	at     lsn.LSN // LSN of the update record
	prev   lsn.LSN // the transaction's record before it: its CLR's undo-next
	img    int
	n      uint32
	slot   uint16
	op     logrec.UpdateOp
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
// goroutine, keeps the scratch (Txn.ownsScratch), and the agent takes
// another: the one a recycled transaction brings back, or a new one.
type txnScratch struct {
	owner     *Txn
	locker    *lockmgr.Locker
	undo      []undoEntry
	arena     []byte // the logged payload of every undo entry
	x         []byte // the splice X of the update in flight (HeapFile.Mutate)
	indexUndo []indexUndo
	// slot names the owner in the log after its first record
	// (logrec.Header.Slot); 0 names it in full.
	slot uint8
	// orphan is set when the agent moved on (Agent.leave) while the owner
	// could still log under slot: the owner gives the slot back.
	orphan atomic.Bool
}

// giveSlotBack returns the scratch's slot to the engine's pool once its
// owner can log nothing more, if its agent gave the slot up.
func (sc *txnScratch) giveSlotBack(e *Engine) {
	if sc.orphan.Swap(false) {
		e.putSlot(sc.slot)
	}
}

// Retention caps: scratch that a transaction grew beyond these is
// dropped at the next Begin instead of re-armed, so one bulk load does
// not pin its working set on the session for life. Anything smaller is
// kept, so a steady workload below the caps never reallocates — and
// that includes loading in 1 000-row transactions, whose undo and index
// undo slices append grows to 1 365 and 1 280 entries. Together the caps
// hold an agent's scratch to about 180 kB.
const (
	maxUndoEntries  = 1536     // x 40 B = 60 kB: a 1 000-row load transaction's updates
	maxArenaBytes   = 64 << 10 // 256 entries' worth of deleted 250-byte rows (an insert keeps no image)
	maxIndexUndo    = 1536     // x 32 B = 48 kB: one per inserted or deleted row
	maxRecordBuffer = 4 << 10  // what core.Appender's own encode buffer, and the splice X scratch, are held to
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
	if cap(sc.x) > maxRecordBuffer {
		sc.x = nil
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

// Txn is one transaction. It is driven by a single agent goroutine, and
// belongs to its agent, which hands it out again at a later Begin once it
// is finished (Agent.recycle).
type Txn struct {
	eng   *Engine
	agent *Agent
	id    uint64
	sc    *txnScratch
	// ownsScratch is set when the agent moved on from sc while the
	// transaction held it (a hold-locks commit, or a transaction still
	// active at the next Begin): nothing else uses sc, and it comes back
	// to the agent with the Txn. Otherwise sc is the agent's, and goes
	// stale once the transaction is finished.
	ownsScratch bool

	// lastStamp is the most recent log record's recStamp, which the
	// checkpoint ATT snapshots next to the transaction's name.
	lastStamp lsn.Atomic
	// first pins the truncation horizon: the first record's recStamp.
	first lsn.Atomic
	state atomic.Int32 // atomic: checkpoint and daemon callbacks read it
	// aborting is set once Abort has logged the abort record: the
	// transaction does no more work, and a retried Abort resumes its
	// rollback instead of starting another.
	aborting bool

	// home is the transaction's log lane, assigned from its first logged
	// update's page space (-1 until then).
	home int

	lastEnd lsn.LSN // end LSN of the most recent record (home log)
	writes  int
	// detach is what Hardened finishes: a detached commit, one that
	// still holds its locks, or a rollback.
	detach detachKind
	// whenDone is a detached commit's client callback, run by Hardened.
	whenDone func(error)
	// next links the agent's free list.
	next *Txn
}

// detachKind says what a transaction subscribed to the log for when it
// detached (Txn.Hardened).
type detachKind uint8

const (
	// detachCommit: a CommitAsync or CommitPipelined commit, whose locks
	// are released already.
	detachCommit detachKind = iota
	// detachHoldLocks: a CommitPipelinedHoldLocks commit, whose locks are
	// released once its commit record hardens.
	detachHoldLocks
	// detachRollback: an Abort whose end record is in the log; the
	// transaction leaves the ATT once it hardens.
	detachRollback
)

// reset readies t, new or recycled, to be transaction id on scratch sc.
func (t *Txn) reset(id uint64, sc *txnScratch) {
	t.id, t.sc, t.ownsScratch = id, sc, false
	t.lastStamp.Store(lsn.Undefined)
	t.first.Store(lsn.Undefined)
	t.state.Store(stActive)
	t.aborting, t.home, t.lastEnd, t.writes = false, -1, 0, 0
	t.detach, t.whenDone, t.next = detachCommit, nil, nil
	sc.rearm(t)
}

// appendRec appends rec, named by the scratch's slot, to the
// transaction's home lane (chosen at its first record) and returns what
// core.MultiAppender.Append does: the record's home-lane address and
// end, and its page and record stamps.
func (t *Txn) appendRec(rec *logrec.Record) (at, end, pageStamp, recStamp lsn.LSN, err error) {
	if t.home < 0 {
		t.home = t.eng.route(t.id, storage.PageSpace(rec.PageID))
	}
	rec.Slot = t.sc.slot
	return t.agent.ap.Append(t.home, rec)
}

// ID returns the transaction identifier.
func (t *Txn) ID() uint64 { return t.id }

// logUpdate is the storage.LogFunc for this transaction: register the
// page as dirty, append a physiological update record (marked first if
// it is), and remember the undo. It returns the record's page stamp,
// which the heap feeds to Page.Apply.
func (t *Txn) logUpdate(pageID uint64, up logrec.UpdatePayload) (lsn.LSN, error) {
	// The transaction's previous record is its newest update (an update
	// never follows its abort): the new entry's undo-next, or none.
	sc := t.sc
	prev := lsn.Undefined
	if n := len(sc.undo); n > 0 {
		prev = sc.undo[n-1].at
	}
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
	// Keep what was logged: the payload aliases page memory that will
	// change and scratch the next update reuses, and rollback needs it.
	// An insert's row stays on the page, under our lock, for as long as
	// rollback could want it.
	e := undoEntry{pageID: pageID, at: at, prev: prev, slot: up.Slot, op: up.Op}
	if up.Op != logrec.OpInsert {
		e.img, e.n = len(sc.arena), uint32(len(rec.Payload))
		sc.arena = append(sc.arena, rec.Payload...)
	}
	sc.undo = append(sc.undo, e)
	t.lastStamp.Store(recStamp)
	t.lastEnd = end
	t.writes++
	return pageStamp, nil
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
		up, err := logrec.DecodeUpdate(t.sc.arena[e.img : e.img+int(e.n)])
		if err != nil {
			return fmt.Errorf("undo of the record at %v: %w", e.at, err)
		}
		inv = up.Inverse()
	}
	t.eng.store.MarkDirty(e.pageID, t.eng.log.StampFloor())
	rec := &t.agent.rec
	rec.SetCLR(t.id, e.pageID, e.prev, inv)
	_, _, pageStamp, recStamp, err := t.appendRec(rec)
	if err != nil {
		return err
	}
	t.lastStamp.Store(recStamp)
	return page.Apply(inv, pageStamp)
}

func (t *Txn) active() error {
	if t.state.Load() != stActive || t.aborting {
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
	return tbl.Heap.Mutate(storage.UnpackRID(packed), &t.sc.x, t.logUpdate, fn)
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
// durability errors arrive via whenDone. Once Commit has returned nil,
// or whenDone has run, the caller must not use t again: its agent may
// already have begun another transaction in it.
func (t *Txn) Commit(mode CommitMode, whenDone func(error)) error {
	if err := t.active(); err != nil {
		return err
	}

	// Read-only transactions have nothing to harden: release and reply.
	if t.writes == 0 {
		t.state.Store(stCommitted)
		t.sc.giveSlotBack(t.eng)
		t.sc.locker.ReleaseAll()
		t.eng.attRemove(t.id)
		t.eng.stats.ReadOnly.Inc()
		t.eng.stats.Commits.Inc()
		if whenDone != nil {
			whenDone(nil)
		}
		t.agent.recycle(t)
		return nil
	}

	rec := &t.agent.rec
	rec.Reset(logrec.KindCommit, t.id)
	_, end, _, recStamp, err := t.appendRec(rec)
	if err != nil {
		return err
	}
	t.lastStamp.Store(recStamp)
	t.lastEnd = end
	t.state.Store(stPrecommitted)
	t.sc.giveSlotBack(t.eng)

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
		t.agent.recycle(t)
		return err

	case CommitSyncELR:
		// ELR: dependants may acquire our locks while we await the flush.
		t.sc.locker.ReleaseAll()
		err := lm.WaitDurable(end)
		t.finishCommit(err == nil)
		if whenDone != nil {
			whenDone(err)
		}
		t.agent.recycle(t)
		return err

	case CommitAsync:
		// Unsafe: reply before durability (lost on crash). The txn must
		// stay in the ATT until the commit record hardens, though: the
		// truncation horizon treats ATT absence as "durably finished",
		// and recycling this txn's records while it can still come back
		// as a recovery loser would leave its first records unreadable.
		t.sc.locker.ReleaseAll()
		lm.OnDurable(end, t)
		if whenDone != nil {
			whenDone(nil)
		}
		return nil

	case CommitPipelined:
		// ELR + detach: the agent thread is free immediately; the log
		// daemon completes the transaction when the record hardens.
		t.sc.locker.ReleaseAll()
		t.whenDone = whenDone
		lm.OnDurable(end, t)
		return nil

	case CommitPipelinedHoldLocks:
		// Ablation: detach but keep locks until durability. Demonstrates
		// the log-induced lock contention ELR exists to remove. The
		// release runs on the daemon goroutine, so it must bypass the
		// agent's (single-threaded) lock cache — and the scratch goes
		// with the transaction: the agent, which may begin its next
		// transaction before the daemon gets here, must not re-arm its
		// locker.
		if t.agent.sc == t.sc {
			t.agent.sc = nil
			t.ownsScratch = true
		}
		t.whenDone, t.detach = whenDone, detachHoldLocks
		lm.OnDurable(end, t)
		return nil
	}
	return fmt.Errorf("txn: unknown commit mode %d", int(mode))
}

// Hardened completes a detached commit or rollback on the log daemon's
// goroutine, once its last record is durable (or the log has failed with
// err): it releases a hold-locks commit's locks, finishes the commit and
// runs its callback, or takes a rollback out of the ATT. It makes *Txn a
// core.Hardener, so every detached subscription is the Txn itself and
// allocates nothing. Its last step gives t back to its agent.
func (t *Txn) Hardened(err error) {
	if t.detach == detachRollback {
		t.eng.attRemove(t.id)
	} else {
		if t.detach == detachHoldLocks {
			t.sc.locker.ReleaseAllToTable()
		}
		t.finishCommit(err == nil)
		if done := t.whenDone; done != nil {
			// A recycled Txn must not pin what the callback captured.
			t.whenDone = nil
			done(err)
		}
	}
	t.agent.recycle(t)
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

// Abort rolls the transaction back: walk the undo entries newest-first,
// apply inverses, and log a CLR for each so a crash mid-rollback resumes
// correctly. Violates-precommit attempts are rejected (ELR condition 2).
// A rollback that fails part way leaves the transaction unusable but for
// another Abort, which resumes where the failure stopped: each entry is
// dropped once its CLR is logged and applied, so none is undone twice.
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
		if !t.aborting {
			rec.Reset(logrec.KindAbort, t.id)
			_, _, _, recStamp, err := t.appendRec(rec)
			if err != nil {
				return err
			}
			t.aborting = true
			t.lastStamp.Store(recStamp)
		}

		sc := t.sc
		for n := len(sc.undo); n > 0; n = len(sc.undo) {
			e := &sc.undo[n-1]
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
			sc.undo = sc.undo[:n-1]
		}
		for i := len(sc.indexUndo) - 1; i >= 0; i-- {
			if u := sc.indexUndo[i]; u.put {
				u.tbl.Index.Put(u.key, u.rid)
			} else {
				u.tbl.Index.Delete(u.key)
			}
			sc.indexUndo[i] = indexUndo{}
		}
		sc.indexUndo = sc.indexUndo[:0]
		rec.Reset(logrec.KindEnd, t.id)
		_, endEnd, _, endStamp, aerr := t.appendRec(rec)
		t.state.Store(stAborted)
		t.sc.giveSlotBack(t.eng)
		t.sc.locker.ReleaseAll()
		t.eng.stats.Aborts.Inc()
		if aerr != nil {
			// No end record: stay in the ATT so the txn's first LSN
			// keeps pinning the truncation horizon — a crash must still
			// find every record of the transaction.
			return aerr
		}
		t.lastStamp.Store(endStamp)
		// Leave the ATT only once the rollback is durable: until then
		// the txn's first LSN must keep pinning the truncation horizon,
		// or a crash could find a loser whose first records were recycled.
		t.detach = detachRollback
		t.eng.waitLM(t.home).OnDurable(endEnd, t)
		return nil
	}

	t.state.Store(stAborted)
	t.sc.giveSlotBack(t.eng)
	t.sc.locker.ReleaseAll()
	t.eng.attRemove(t.id)
	t.eng.stats.Aborts.Inc()
	t.agent.recycle(t)
	return nil
}
