// multi.go implements restart recovery for a partitioned (multi-log)
// database: N per-partition durable log tails are merged back into one
// redo order by the global sequence stamp every record carries, the
// merge is verified against the inter-log dependency edges update
// records embed (PrevPageSeq), and losers are undone in reverse global
// order with CLRs routed back to each transaction's home log.
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

// MultiOptions configures a partitioned recovery pass.
type MultiOptions struct {
	// Logs are the per-partition durable log images (from
	// logdev.ReadTail), one per partition in partition order.
	Logs [][]byte
	// Bases are the per-partition truncation horizons (the LSN of each
	// Logs[i][0]).
	Bases []lsn.LSN
	// Store is the page store (see Options.Store). In multi-log mode
	// page stamps are global seqs, not LSNs.
	Store *storage.Store
	// Multi, if non-nil, receives the CLRs and end records undo
	// generates, routed to each loser's home partition. It must have
	// been built with a start seq at or above every seq in Logs (see
	// MaxSeq). If nil, undo applies inverses without logging.
	Multi *core.MultiLog
	// VerifyArchive mirrors Options.VerifyArchive, with stamps compared
	// as seqs.
	VerifyArchive bool
}

// ErrDependencyViolated means the merged redo order contradicts an
// update record's embedded dependency: its page's previous update (on
// another log) is missing from the durable state even though the
// younger record hardened — exactly what the inter-log flush edges
// exist to prevent. A database that trips this was corrupted or written
// by a coordinator that broke invariant 6.
var ErrDependencyViolated = errors.New("recovery: inter-log dependency order violated")

// partRecord is one decoded record tagged with its partition.
type partRecord struct {
	part int
	rec  logrec.Record
}

// MaxSeq scans a durable log tail and returns the largest global
// sequence stamp it contains (0 for an empty or single-log tail). The
// restart path uses it to seed the MultiLog's sequence counter before
// recovery appends CLRs.
func MaxSeq(log []byte, base lsn.LSN) uint64 {
	var max uint64
	it := logrec.NewIterator(log, base)
	for {
		rec, ok := it.Next()
		if !ok {
			break
		}
		if s := uint64(rec.Seq); s > max {
			max = s
		}
	}
	return max
}

// RecoverMulti runs the ARIES passes over a partitioned log. The
// checkpoint is read from partition 0 (the coordinator writes them
// nowhere else); analysis and redo process the partitions' records
// merged in global seq order; undo compensates losers in reverse seq
// order, appending CLRs to each loser's home partition. Page stamps and
// DPT recLSNs are global seqs throughout.
func RecoverMulti(opts MultiOptions) (*Result, error) {
	if opts.Store == nil {
		return nil, errors.New("recovery: Store is required")
	}
	if len(opts.Logs) < 2 || len(opts.Logs) != len(opts.Bases) {
		return nil, errors.New("recovery: need >= 2 logs with matching bases")
	}
	res := &Result{CheckpointLSN: lsn.Undefined, LogBase: opts.Bases[0]}

	// ---- Decode every partition's tail and merge by seq. ----
	var merged []partRecord
	var maxSeq uint64
	for i, log := range opts.Logs {
		it := logrec.NewIterator(log, opts.Bases[i])
		for {
			rec, ok := it.Next()
			if !ok {
				break
			}
			res.Scanned++
			res.MaxTxnID = max(res.MaxTxnID, rec.TxnID)
			if s := uint64(rec.Seq); s > maxSeq {
				maxSeq = s
			}
			merged = append(merged, partRecord{part: i, rec: rec})
		}
		if err := it.Err(); err != nil && it.Offset() < len(log) {
			return nil, fmt.Errorf("recovery: partition %d: %w", i, err)
		}
		res.ScannedBytes += int64(it.Offset())
	}
	sort.Slice(merged, func(a, b int) bool {
		return merged[a].rec.Seq < merged[b].rec.Seq
	})
	// seqIndex locates a record by its global seq (checkpoint ATT
	// entries carry seqs, and undo needs the records behind them).
	seqIndex := make(map[uint64]int, len(merged))
	for i, pr := range merged {
		seqIndex[uint64(pr.rec.Seq)] = i
	}

	// ---- Verify the pre-resident pages (stamps are seqs). ----
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
			if uint64(pl) > maxSeq {
				return nil, fmt.Errorf(
					"recovery: archived page %d has seq stamp %d beyond the durable log's max seq %d (archive ahead of log: WAL violation or corruption)",
					pid, uint64(pl), maxSeq)
			}
		}
	}
	defer func() {
		res.ArchivedPages += int(opts.Store.CacheStats().Misses - faults0)
	}()

	// ---- Locate the last complete checkpoint (partition 0 only). ----
	ckptBegin, ckptPayload := findLastCheckpoint(opts.Logs[0], opts.Bases[0])
	res.CheckpointLSN = ckptBegin
	var beginSeq uint64
	if ckptBegin.Valid() {
		if i, ok := seqIndexAt(opts.Logs[0], opts.Bases[0], ckptBegin); ok {
			beginSeq = i
		}
	}

	// ---- Pass 1: analysis, in merged seq order. ----
	// att maps loser candidates to the merged index of their last
	// record (-1 when only the checkpoint's seq is known yet).
	type multiStatus struct {
		lastSeq   uint64
		committed bool
	}
	att := make(map[uint64]*multiStatus)
	dpt := make(map[uint64]uint64) // pageID -> first dirtying seq
	// named is the checkpoint's transaction table, read as a list of
	// names and not of facts. Its records live on partition 0, which can
	// harden ahead of a named transaction's home log (the A.5 cut: one
	// log's flush dies while the others keep going), so an entry may
	// point at a last record — even a commit record, with Precommitted
	// set — that never became durable; and the engine publishes last
	// stamp and state after the append returns, so an entry may also
	// trail the transaction's records. What is true of a named
	// transaction is what its home log's durable tail says, and
	// truncation never releases a record of a transaction the
	// checkpoint still names, so the tails say all of it (a name with no
	// durable record at all left nothing to redo or undo).
	named := make(map[uint64]bool)
	if ckptBegin.Valid() {
		for _, e := range ckptPayload.ActiveTxns {
			named[e.TxnID] = true
			res.MaxTxnID = max(res.MaxTxnID, e.TxnID)
		}
		for _, e := range ckptPayload.DirtyPages {
			dpt[e.PageID] = uint64(e.RecLSN)
		}
	}
	// touch returns rec's transaction entry, advanced to rec (the merge
	// is in seq order).
	touch := func(rec *logrec.Record) *multiStatus {
		st := att[rec.TxnID]
		if st == nil {
			st = &multiStatus{}
			att[rec.TxnID] = st
		}
		st.lastSeq = uint64(rec.Seq)
		return st
	}
	for _, pr := range merged {
		rec := &pr.rec
		// Records below the checkpoint's begin seq (they survive in the
		// tails because truncation is conservative) are covered by its
		// DPT snapshot; of its transaction table they establish the
		// named entries and nothing else.
		below := uint64(rec.Seq) < beginSeq
		if below && !named[rec.TxnID] {
			continue
		}
		switch rec.Kind {
		case logrec.KindUpdate, logrec.KindCLR:
			touch(rec)
			if _, ok := dpt[rec.PageID]; !ok && !below {
				dpt[rec.PageID] = uint64(rec.Seq)
			}
		case logrec.KindCommit:
			touch(rec).committed = true
		case logrec.KindAbort:
			touch(rec)
		case logrec.KindEnd:
			delete(att, rec.TxnID)
		}
	}

	// ---- Pass 2: redo in merged seq order, verifying edges. ----
	for _, pr := range merged {
		rec := &pr.rec
		if rec.Kind != logrec.KindUpdate && rec.Kind != logrec.KindCLR {
			continue
		}
		recSeq, inDPT := dpt[rec.PageID]
		if !inDPT || uint64(rec.Seq) < recSeq {
			continue
		}
		page, err := opts.Store.GetOrCreate(rec.PageID)
		if err != nil {
			return nil, fmt.Errorf("recovery: redo fault at seq %d: %w", rec.Seq, err)
		}
		stamp := uint64(page.LSN())
		if stamp >= uint64(rec.Seq) {
			page.Unpin()
			continue
		}
		// Dependency verification: the page's previous update (possibly
		// on another log) must already be reflected — either replayed
		// earlier in this merge or captured in the archived image. If it
		// is not, a younger record hardened before an older one it
		// depends on, which the flush edges must never allow.
		if ps := rec.PrevPageSeq(); ps > 0 && stamp < ps {
			if _, survives := seqIndex[ps]; !survives {
				page.Unpin()
				return nil, fmt.Errorf(
					"%w: page %d update seq %d depends on seq %d (partition %d durable without it)",
					ErrDependencyViolated, rec.PageID, rec.Seq, ps, pr.part)
			}
			// The older record is present in the merge but was skipped
			// (its page image is behind a stale DPT entry); replaying
			// this younger record is still correct only if the older one
			// replays first — which seq order guarantees — so reaching
			// here means the DPT said skip while the stamp says the page
			// is older than the dependency. That is the same violation.
			page.Unpin()
			return nil, fmt.Errorf(
				"%w: page %d at stamp %d reached update seq %d before dependency seq %d was applied",
				ErrDependencyViolated, rec.PageID, stamp, rec.Seq, ps)
		}
		up, err := logrec.DecodeUpdate(rec.Payload)
		if err != nil {
			page.Unpin()
			return nil, fmt.Errorf("recovery: redo decode at seq %d: %w", rec.Seq, err)
		}
		err = page.Apply(up, lsn.LSN(uint64(rec.Seq)))
		if err == nil {
			opts.Store.MarkDirty(rec.PageID, lsn.LSN(uint64(rec.Seq)))
		}
		page.Unpin()
		if err != nil {
			return nil, fmt.Errorf("recovery: redo apply at seq %d: %w", rec.Seq, err)
		}
		res.RedoApplied++
	}

	// ---- Pass 3: undo losers in reverse global seq order. ----
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

	cursors := make(map[uint64]*undoCursor, len(losers))
	for _, id := range losers {
		st := att[id]
		i, ok := seqIndex[st.lastSeq]
		if !ok {
			// Truncation never releases log below an active
			// transaction's first record, so a loser's chain must
			// survive in full.
			return nil, fmt.Errorf("recovery: loser %d last record seq %d not in any durable tail", id, st.lastSeq)
		}
		pr := merged[i]
		cursors[id] = &undoCursor{
			home:    pr.part,
			cur:     pr.rec.LSN,
			curSeq:  st.lastSeq,
			clrPrev: pr.rec.LSN,
		}
	}
	synth := maxSeq
	if opts.Multi != nil && opts.Multi.LastSeq() > synth {
		synth = opts.Multi.LastSeq()
	}

	for len(cursors) > 0 {
		// Undo the record with the largest seq across all losers; an
		// exhausted chain is finished (and removed) first.
		var id uint64
		var best *undoCursor
		for tid, c := range cursors {
			if !c.cur.Valid() {
				best, id = c, tid
				break
			}
			if best == nil || c.curSeq > best.curSeq {
				best, id = c, tid
			}
		}
		c := best
		if !c.cur.Valid() {
			// Chain exhausted: finish the loser with an end record.
			if opts.Multi != nil {
				endRec := logrec.NewEnd(id, c.clrPrev)
				if _, _, _, err := opts.Multi.Append(c.home, endRec); err != nil {
					return nil, fmt.Errorf("recovery: undo end: %w", err)
				}
			}
			delete(cursors, id)
			continue
		}
		rec, err := recordAt(opts.Logs[c.home], opts.Bases[c.home], c.cur)
		if err != nil {
			return nil, fmt.Errorf("recovery: undo read at %v (partition %d): %w", c.cur, c.home, err)
		}
		switch rec.Kind {
		case logrec.KindUpdate:
			up, err := logrec.DecodeUpdate(rec.Payload)
			if err != nil {
				return nil, fmt.Errorf("recovery: undo decode at seq %d: %w", rec.Seq, err)
			}
			inv := up.Inverse()
			var stamp lsn.LSN
			if opts.Multi != nil {
				clr := logrec.NewCLR(id, c.clrPrev, rec.PageID, rec.PrevLSN, inv)
				at, _, seq, err := opts.Multi.Append(c.home, clr)
				if err != nil {
					return nil, fmt.Errorf("recovery: undo CLR: %w", err)
				}
				stamp = lsn.LSN(seq)
				c.clrPrev = at
			} else {
				synth++
				stamp = lsn.LSN(synth)
			}
			page, err := opts.Store.GetOrCreate(rec.PageID)
			if err != nil {
				return nil, fmt.Errorf("recovery: undo fault at seq %d: %w", rec.Seq, err)
			}
			applyErr := page.Apply(inv, stamp)
			if applyErr == nil {
				opts.Store.MarkDirty(rec.PageID, stamp)
			}
			page.Unpin()
			if applyErr != nil {
				return nil, fmt.Errorf("recovery: undo apply at seq %d: %w", rec.Seq, applyErr)
			}
			res.UndoApplied++
			c.advance(opts.Logs, opts.Bases, rec.PrevLSN)
		case logrec.KindCLR:
			c.advance(opts.Logs, opts.Bases, rec.UndoNext())
		default:
			c.advance(opts.Logs, opts.Bases, rec.PrevLSN)
		}
	}
	return res, nil
}

// undoCursor walks one loser's chain during multi-log undo: cur is the
// home-log LSN of the loser's current record (Undefined once the chain
// is exhausted), curSeq its global seq (the cross-loser undo order),
// and clrPrev the PrevLSN for the next CLR.
type undoCursor struct {
	home    int
	cur     lsn.LSN
	curSeq  uint64
	clrPrev lsn.LSN
}

// advance moves the cursor to the chain's next record (a home-log LSN)
// and refreshes its seq for the cross-loser ordering. An unreadable
// next record leaves curSeq 0; the main loop's recordAt reports the
// error when the cursor is picked.
func (c *undoCursor) advance(logs [][]byte, bases []lsn.LSN, next lsn.LSN) {
	c.cur = next
	c.curSeq = 0
	if !next.Valid() {
		return
	}
	if rec, err := recordAt(logs[c.home], bases[c.home], next); err == nil {
		c.curSeq = uint64(rec.Seq)
	}
}

// seqIndexAt returns the global seq of the record at LSN `at` in the
// given partition tail.
func seqIndexAt(log []byte, base, at lsn.LSN) (uint64, bool) {
	rec, err := recordAt(log, base, at)
	if err != nil {
		return 0, false
	}
	return uint64(rec.Seq), true
}
