// Package recovery implements ARIES-style restart recovery over the
// Aether log: analysis from the last fuzzy checkpoint, redo from the
// dirty-page table's minimum recLSN, and undo of loser transactions with
// compensation log records, so recovery itself is crash-tolerant and can
// be repeated any number of times.
//
// The interplay with Early Lock Release is where the paper's §3.1
// conditions become code: a transaction whose commit record is durable is
// a winner even though it released its locks long before the flush; one
// whose commit record was lost with the unflushed tail is a loser and is
// rolled back — and by condition 1 (serial log), every transaction that
// depended on it committed later in LSN order, so its commit record was
// lost too and it rolls back as well. No dependency tracking is needed.
//
// A log whose dead prefix was truncated (Options.Base > 0) is the normal
// bounded-log state, not corruption: the checkpointer only releases log
// below min(checkpoint begin, oldest active-txn first LSN, oldest
// dirty-page recLSN), so analysis starts at the surviving checkpoint,
// redo clamps to the base (pages dirtied below it were archived first),
// and undo chains never reach below it.
package recovery

import (
	"errors"
	"fmt"
	"sort"

	"aether/internal/core"
	"aether/internal/logrec"
	"aether/internal/lsn"
	"aether/internal/storage"
)

// Options configures a recovery pass.
type Options struct {
	// Log is the durable log image (from logdev.ReadTail), whose first
	// byte sits at LSN Base.
	Log []byte
	// Base is the LSN of Log[0] — the device's truncation horizon. A
	// non-zero base is the normal state of a log whose dead prefix was
	// recycled: the truncation rule (release ≤ min of checkpoint begin,
	// oldest active-transaction first LSN, oldest dirty-page recLSN)
	// guarantees everything below it is already archived or finished.
	Base lsn.LSN
	// Store is the page store. With an archive backend attached
	// (storage.Store.SetBackend) it starts empty and faults pages in
	// lazily as redo and undo touch them — restart memory is O(working
	// set); a store pre-loaded via LoadArchive recovers identically.
	Store *storage.Store
	// Appender, if non-nil, receives the CLRs and end records that undo
	// generates, making recovery itself recoverable. It must append into
	// a log whose base LSN is Base+len(Log). If nil, undo applies
	// inverses without logging (single-crash recovery only).
	Appender *core.Appender
	// VerifyArchive, if set, asserts that every page already resident in
	// Store when recovery starts carries a pageLSN at or below the
	// durable log's end. The checkpoint sweep and the steal path only
	// archive pages whose pageLSN is durable, so an image from beyond
	// the log is a WAL violation or a corrupt database file — redoing on
	// top of it would silently skip updates. Pages faulted lazily from
	// an attached backend get the same check at fault time (with a WAL
	// attached to the store), so this flag covers only the pre-resident
	// set. Leave unset for stores that were not archive-loaded (pages
	// stamped by unlogged undo legitimately carry synthetic LSNs past
	// the log end).
	VerifyArchive bool
}

// txnStatus is an analysis-phase ATT entry.
type txnStatus struct {
	lastLSN   lsn.LSN
	committed bool
}

// Result reports what recovery did.
type Result struct {
	// CheckpointLSN is the begin LSN of the checkpoint used (Undefined
	// if none was found).
	CheckpointLSN lsn.LSN
	// LogBase is the truncation horizon the durable log started at
	// (0 for a never-truncated log). No pass read below it.
	LogBase lsn.LSN
	// ScannedBytes is how many durable log bytes the analysis pass
	// covered — O(log-since-checkpoint), not O(total-history).
	ScannedBytes int64
	// Scanned is the number of durable records read.
	Scanned int
	// RedoApplied is the number of updates reapplied.
	RedoApplied int
	// Winners are transaction IDs whose commit records were durable.
	Winners []uint64
	// Losers are transaction IDs rolled back.
	Losers []uint64
	// MaxTxnID is the largest transaction ID analysis met, in the
	// checkpoint's table or in a record it scanned. A restarted engine
	// must hand out IDs above it: analysis keys its transaction table by
	// ID, so a new transaction reusing the ID of one whose commit record
	// is still in the scanned tail would inherit its "committed" verdict
	// and, as a loser of the next crash, never be rolled back.
	MaxTxnID uint64
	// UndoApplied is the number of updates rolled back.
	UndoApplied int
	// ArchivedPages is how many pages recovery served from the archive
	// (the database file): pages resident before the passes ran plus
	// pages faulted in from the backend during them.
	ArchivedPages int
}

// Recover runs the three ARIES passes. It is idempotent: recovering an
// already-recovered (store, log) pair is a no-op beyond re-verification.
func Recover(opts Options) (*Result, error) {
	if opts.Store == nil {
		return nil, errors.New("recovery: Store is required")
	}
	base := opts.Base
	res := &Result{CheckpointLSN: lsn.Undefined, LogBase: base}

	// ---- Pass 0: verify the pre-resident pages against the log. ----
	// (Slot checksums were already verified by the archive's read path;
	// this is the cross-check between the two durable artifacts. Pages
	// faulted lazily from a backend during redo/undo get the same check
	// at fault time.)
	logEnd := base.Add(len(opts.Log))
	res.ArchivedPages = len(opts.Store.PageIDs())
	faults0 := opts.Store.CacheStats().Misses
	if opts.VerifyArchive {
		for _, pid := range opts.Store.PageIDs() {
			p, err := opts.Store.Get(pid)
			if err != nil {
				return nil, fmt.Errorf("recovery: verify: %w", err)
			}
			if p == nil {
				continue
			}
			pl := p.LSN()
			p.Unpin()
			if pl > logEnd {
				return nil, fmt.Errorf(
					"recovery: archived page %d has pageLSN %v beyond the durable log end %v (archive ahead of log: WAL violation or corruption)",
					pid, pl, logEnd)
			}
		}
	}
	// Count the lazily faulted pages into ArchivedPages on the way out.
	defer func() {
		res.ArchivedPages += int(opts.Store.CacheStats().Misses - faults0)
	}()

	// ---- Pass 0: locate the last complete checkpoint. ----
	ckptBegin, ckptPayload := findLastCheckpoint(opts.Log, base)
	res.CheckpointLSN = ckptBegin

	// ---- Pass 1: analysis. ----
	att := make(map[uint64]*txnStatus)
	dpt := make(map[uint64]lsn.LSN)
	scanFrom := base
	if ckptBegin.Valid() {
		scanFrom = lsn.Max(ckptBegin, base)
		for _, e := range ckptPayload.ActiveTxns {
			att[e.TxnID] = &txnStatus{lastLSN: e.LastLSN, committed: e.Precommitted}
			res.MaxTxnID = max(res.MaxTxnID, e.TxnID)
		}
		for _, e := range ckptPayload.DirtyPages {
			dpt[e.PageID] = e.RecLSN
		}
	}
	res.ScannedBytes = int64(len(opts.Log)) - int64(scanFrom.Sub(base))
	it := logrec.NewIterator(opts.Log[scanFrom.Sub(base):], scanFrom)
	for {
		rec, ok := it.Next()
		if !ok {
			break
		}
		res.Scanned++
		res.MaxTxnID = max(res.MaxTxnID, rec.TxnID)
		switch rec.Kind {
		case logrec.KindUpdate, logrec.KindCLR:
			st := att[rec.TxnID]
			if st == nil {
				st = &txnStatus{}
				att[rec.TxnID] = st
			}
			st.lastLSN = rec.LSN
			if _, ok := dpt[rec.PageID]; !ok {
				dpt[rec.PageID] = rec.LSN
			}
		case logrec.KindCommit:
			st := att[rec.TxnID]
			if st == nil {
				st = &txnStatus{}
				att[rec.TxnID] = st
			}
			st.lastLSN = rec.LSN
			st.committed = true
		case logrec.KindAbort:
			st := att[rec.TxnID]
			if st == nil {
				st = &txnStatus{}
				att[rec.TxnID] = st
			}
			st.lastLSN = rec.LSN
		case logrec.KindEnd:
			delete(att, rec.TxnID)
		case logrec.KindCheckpointBegin, logrec.KindCheckpointEnd, logrec.KindPad:
			// No analysis effect.
		}
	}
	// A gap mid-log (not just a truncated tail) would mean corruption
	// before the durable horizon; report it rather than recover wrongly.
	if err := it.Err(); err != nil && int(scanFrom.Sub(base))+it.Offset() < len(opts.Log) {
		return nil, fmt.Errorf("recovery: analysis: %w", err)
	}

	// ---- Pass 2: redo. ----
	redoFrom := lsn.Undefined
	for _, rec := range dpt {
		if rec < redoFrom {
			redoFrom = rec
		}
	}
	if redoFrom.Valid() && redoFrom < base {
		// recLSNs below the truncation horizon belong to pages the
		// checkpointer archived before releasing the log behind them;
		// their images are in the archive, so redo starts at the base.
		redoFrom = base
	}
	if redoFrom.Valid() && redoFrom.Sub(base) < uint64(len(opts.Log)) {
		it := logrec.NewIterator(opts.Log[redoFrom.Sub(base):], redoFrom)
		for {
			rec, ok := it.Next()
			if !ok {
				break
			}
			if rec.Kind != logrec.KindUpdate && rec.Kind != logrec.KindCLR {
				continue
			}
			recLSN, inDPT := dpt[rec.PageID]
			if !inDPT || rec.LSN < recLSN {
				continue
			}
			// Lazy fault-in: a page archived before the crash (including
			// one stolen by the eviction path) comes back from the
			// backend here; a page never archived materializes empty.
			page, err := opts.Store.GetOrCreate(rec.PageID)
			if err != nil {
				return nil, fmt.Errorf("recovery: redo fault at %v: %w", rec.LSN, err)
			}
			// Pages carry the END LSN of the last applied record, so the
			// redo test is a strict comparison with no LSN-0 ambiguity:
			// skip iff the page already reflects the log past this record's
			// start.
			if page.LSN() > rec.LSN {
				page.Unpin()
				continue
			}
			up, err := logrec.DecodeUpdate(rec.Payload)
			if err != nil {
				page.Unpin()
				return nil, fmt.Errorf("recovery: redo decode at %v: %w", rec.LSN, err)
			}
			err = page.Apply(up, rec.LSN.Add(int(rec.TotalLen)))
			if err == nil {
				// Mark dirty before unpinning: a page must never be
				// evictable while modified but not yet in the DPT.
				opts.Store.MarkDirty(rec.PageID, rec.LSN)
			}
			page.Unpin()
			if err != nil {
				return nil, fmt.Errorf("recovery: redo apply at %v: %w", rec.LSN, err)
			}
			res.RedoApplied++
		}
	}

	// ---- Pass 3: undo losers. ----
	var losers []uint64
	for id, st := range att {
		if st.committed {
			res.Winners = append(res.Winners, id)
		} else {
			losers = append(losers, id)
		}
	}
	sort.Slice(res.Winners, func(i, j int) bool { return res.Winners[i] < res.Winners[j] })
	sort.Slice(losers, func(i, j int) bool { return losers[i] < losers[j] })
	res.Losers = append(res.Losers, losers...)

	// Synthetic LSNs for unlogged undo keep pageLSN monotonic.
	synth := base.Add(len(opts.Log))
	undoChain := make(map[uint64]lsn.LSN, len(losers))
	for _, id := range losers {
		undoChain[id] = att[id].lastLSN
	}
	clrPrev := make(map[uint64]lsn.LSN, len(losers))
	for _, id := range losers {
		clrPrev[id] = att[id].lastLSN
	}

	for len(undoChain) > 0 {
		// ARIES undoes the record with the largest LSN across all losers.
		var id uint64
		max := lsn.Undefined
		for tid, l := range undoChain {
			if max == lsn.Undefined || l > max {
				max, id = l, tid
			}
		}
		cur := undoChain[id]
		if !cur.Valid() {
			// Chain exhausted: finish the loser with an end record.
			if opts.Appender != nil {
				endRec := logrec.NewEnd(id, clrPrev[id])
				if _, _, err := opts.Appender.Append(endRec); err != nil {
					return nil, fmt.Errorf("recovery: undo end: %w", err)
				}
			}
			delete(undoChain, id)
			continue
		}
		rec, err := recordAt(opts.Log, base, cur)
		if err != nil {
			return nil, fmt.Errorf("recovery: undo read at %v: %w", cur, err)
		}
		switch rec.Kind {
		case logrec.KindUpdate:
			up, err := logrec.DecodeUpdate(rec.Payload)
			if err != nil {
				return nil, fmt.Errorf("recovery: undo decode at %v: %w", cur, err)
			}
			inv := up.Inverse()
			var clrStart, clrEnd lsn.LSN
			if opts.Appender != nil {
				clr := logrec.NewCLR(id, clrPrev[id], rec.PageID, rec.PrevLSN, inv)
				at, end, err := opts.Appender.Append(clr)
				if err != nil {
					return nil, fmt.Errorf("recovery: undo CLR: %w", err)
				}
				clrStart, clrEnd = at, end
				clrPrev[id] = at
			} else {
				clrStart = synth
				synth += logrec.HeaderSize
				clrEnd = synth
			}
			page, err := opts.Store.GetOrCreate(rec.PageID)
			if err != nil {
				return nil, fmt.Errorf("recovery: undo fault at %v: %w", cur, err)
			}
			applyErr := page.Apply(inv, clrEnd)
			if applyErr == nil {
				opts.Store.MarkDirty(rec.PageID, clrStart)
			}
			page.Unpin()
			if applyErr != nil {
				return nil, fmt.Errorf("recovery: undo apply at %v: %w", cur, applyErr)
			}
			res.UndoApplied++
			undoChain[id] = rec.PrevLSN
		case logrec.KindCLR:
			// Already compensated: skip to what the CLR says is next.
			undoChain[id] = rec.UndoNext()
		default:
			// Abort/commit markers: follow the backchain.
			undoChain[id] = rec.PrevLSN
		}
	}
	return res, nil
}

// recordAt decodes the record whose LSN (byte offset) is at, in a log
// whose first byte sits at base.
func recordAt(log []byte, base, at lsn.LSN) (logrec.Record, error) {
	if at < base {
		return logrec.Record{}, fmt.Errorf("recovery: LSN %v below truncation base %v", at, base)
	}
	if at.Sub(base) >= uint64(len(log)) {
		return logrec.Record{}, fmt.Errorf("recovery: LSN %v beyond durable log (%d bytes from %v)", at, len(log), base)
	}
	rec, _, err := logrec.Decode(log[at.Sub(base):])
	if err != nil {
		return logrec.Record{}, err
	}
	rec.LSN = at
	return rec, nil
}

// findLastCheckpoint scans the durable log for the newest complete
// checkpoint and returns its begin LSN and decoded payload.
func findLastCheckpoint(log []byte, base lsn.LSN) (lsn.LSN, logrec.CheckpointPayload) {
	begin := lsn.Undefined
	var payload logrec.CheckpointPayload
	it := logrec.NewIterator(log, base)
	for {
		rec, ok := it.Next()
		if !ok {
			break
		}
		if rec.Kind != logrec.KindCheckpointEnd {
			continue
		}
		p, err := logrec.DecodeCheckpoint(rec.Payload)
		if err != nil {
			continue // damaged checkpoint: ignore, keep the previous one
		}
		begin = lsn.LSN(rec.Aux)
		payload = p
	}
	return begin, payload
}
