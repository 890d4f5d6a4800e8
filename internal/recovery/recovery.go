// Package recovery implements ARIES-style restart recovery over the
// Aether log: analysis from the last fuzzy checkpoint, redo from the
// dirty-page table's minimum recLSN, and undo of loser transactions with
// compensation log records, so recovery itself is crash-tolerant and can
// be repeated any number of times.
//
// No record points back at its transaction's previous one. Analysis
// keeps of each transaction the positions of its first record (the one
// marked logrec.Header.First) and its newest; undo reads the merge
// forward once, from the oldest loser's first record, collecting each
// loser's updates — a CLR drops those above its undo-next, which an
// interrupted rollback already compensated — and then compensates them
// newest first across all losers.
//
// There is one recovery core (Analyze, then Analysis.Recover) for every
// lane count. It reads the durable tails through LaneMerge, which hands
// it each record with its position in the total order and its page stamp
// — byte LSNs on one lane, global seqs on N (core.MultiLog's stamp
// domain) — so the passes below never ask how many lanes there are:
// the redo guard is "page stamp >= record stamp", losers are undone in
// descending order, and the Appendix A.5 edge check is simply dormant
// where records carry no PrevPageSeq.
//
// The interplay with Early Lock Release is where the paper's §3.1
// conditions become code: a transaction whose commit record is durable is
// a winner even though it released its locks long before the flush; one
// whose commit record was lost with the unflushed tail is a loser and is
// rolled back — and by condition 1 (a totally ordered log), every
// transaction that depended on it committed later in that order, so its
// commit record was lost too and it rolls back as well. No dependency
// tracking is needed.
//
// A log whose dead prefix was truncated (Lane.Base > 0) is the normal
// bounded-log state, not corruption: the checkpointer only releases log
// below min(checkpoint begin, oldest active-txn first record, oldest
// dirty-page recLSN), so analysis starts at the surviving checkpoint,
// redo never needs what lies below the base (pages dirtied there were
// archived first), and no loser's first record lies below it.
package recovery

import (
	"errors"
	"fmt"
	"sort"

	"aether/internal/logrec"
	"aether/internal/lsn"
	"aether/internal/storage"
)

// Options configures a one-lane recovery pass (see Recover).
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
	// Store is the page store. It starts empty and faults pages in from
	// its page file (storage.Store.SetBackend) lazily as redo and undo
	// touch them — restart memory is O(working set).
	Store *storage.Store
}

// Sink receives the CLRs and end records undo generates, appended to
// each loser's home lane, and returns what core.MultiAppender.Append
// does: the record's address and end there, and its page and record
// stamps.
type Sink interface {
	Append(lane int, rec *logrec.Record) (at, end, pageStamp, recStamp lsn.LSN, err error)
}

// ErrDependencyViolated means the merged redo order contradicts an
// update record's embedded dependency: its page's previous update (on
// another lane) is missing from the durable state even though the
// younger record hardened — exactly what the inter-log flush edges
// exist to prevent. A database that trips this was corrupted or written
// by a coordinator that broke invariant 6.
var ErrDependencyViolated = errors.New("recovery: inter-log dependency order violated")

// Result reports what recovery did.
type Result struct {
	// CheckpointLSN is the begin LSN (on lane 0) of the checkpoint used
	// (Undefined if none was found).
	CheckpointLSN lsn.LSN
	// LogBase is the truncation horizon lane 0's durable log started at
	// (0 for a never-truncated log). No pass read below it.
	LogBase lsn.LSN
	// ScannedBytes is how many durable log bytes the analysis pass
	// covered — O(log-since-checkpoint), not O(total-history), on one
	// lane whose checkpoint names no transaction.
	ScannedBytes int64
	// Scanned is the number of durable records analysis read.
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

// Recover runs the ARIES passes over one lane, undoing losers without
// logging (single-crash recovery; a restart logs CLRs through
// Analysis.Recover's sink). It is idempotent: recovering an
// already-recovered (store, log) pair is a no-op beyond re-verification.
func Recover(opts Options) (*Result, error) {
	if opts.Store == nil {
		return nil, errors.New("recovery: Store is required")
	}
	a, err := Analyze([]Lane{{Log: opts.Log, Base: opts.Base}}, nil)
	if err != nil {
		return nil, err
	}
	return a.Recover(opts.Store, nil)
}

// txnStatus is an analysis-phase transaction-table entry: the positions
// of the transaction's first and newest durable records in the total
// order, and whether a commit record was among them. Undo fills in the
// updates of a loser it has still to compensate.
type txnStatus struct {
	lane        int    // the home lane, where all its records are
	first, last uint64 // orders of its first and newest records
	// opened says the record at first carries logrec.Header.First: the
	// transaction's history starts in the tails, not below them.
	opened    bool
	committed bool
	// undo holds a loser's updates not yet compensated, oldest first.
	undo []pending
}

// pending is a loser's update that undo has still to compensate: its
// home-lane address and its order.
type pending struct {
	at    lsn.LSN
	order uint64
}

// Analysis is the outcome of the passes that read only the log — the
// checkpoint search and ARIES analysis — and the input of the two that
// touch pages (Recover). The split exists for the restart path: the
// coordinator that redo verifies page stamps against, and that undo
// appends CLRs through, has to be built at the sequence number the
// tails end at (LastSeq), which only a full read of them tells.
type Analysis struct {
	m   *LaneMerge
	res *Result
	att map[uint64]*txnStatus
	dpt map[uint64]uint64 // page → order of the first record that may need redo
}

// LastSeq returns the largest global sequence stamp in the tails (0 on
// one lane): what core.NewMultiLog resumes stamping above.
func (a *Analysis) LastSeq() uint64 { return a.m.LastSeq() }

// Analyze locates the checkpoint analysis starts at (its records live on
// lane 0) and runs the analysis pass over the lanes' durable tails (from
// logdev.ReadTail, in lane order), yielding the transaction table and
// the dirty-page table that redo and undo work from. With ckpt nil that
// is the last complete checkpoint. A restore names its snapshot's — by
// its begin record's lane-0 address, or lsn.Undefined for none, from
// genesis — since a later one's dirty-page table describes a page file
// the restore does not have.
func Analyze(lanes []Lane, ckpt *lsn.LSN) (*Analysis, error) {
	if len(lanes) == 0 {
		return nil, errors.New("recovery: need at least one lane")
	}
	a := &Analysis{
		m:   NewLaneMerge(lanes),
		res: &Result{CheckpointLSN: lsn.Undefined, LogBase: lanes[0].Base},
		att: make(map[uint64]*txnStatus),
		dpt: make(map[uint64]uint64),
	}
	res := a.res
	// Every seal in the tails is checked before anything is read from
	// them: a batch that fails its seal below the watermark is corruption.
	if err := a.m.Err(); err != nil {
		return nil, fmt.Errorf("recovery: analysis: %w", err)
	}

	// named is the checkpoint's transaction table, read as a list of
	// names and not of facts. The engine publishes a transaction's
	// last-record stamp and Precommitted flag after the append they
	// describe returns, so a checkpoint that falls in that window
	// snapshots an entry that trails the transaction's records (no last
	// record at all, or one record stale); and on N lanes the checkpoint
	// itself, on lane 0, can harden ahead of a named transaction's home
	// lane (the A.5 cut: one lane's flush dies while the others keep
	// going), so an entry may also point at a record — even a commit
	// record — that never became durable. What is true of a named
	// transaction is what its home lane's durable tail says, and
	// truncation never releases a record of a transaction that is still
	// active, so the tails say all of it (a name with no durable record
	// at all left nothing to redo or undo).
	named := make(map[uint64]bool)
	// begin is the order of the checkpoint's begin record. Records
	// ordered below it (they survive in the tails because truncation is
	// conservative) are covered by the checkpoint's dirty-page snapshot;
	// of its transaction table they establish the named entries and
	// nothing else. So only a checkpoint that names somebody makes
	// analysis read them: otherwise the pass starts at the begin record.
	var begin, from uint64
	beginAt, cp, err := findCheckpoint(a.m.lanes[0], ckpt)
	if err != nil {
		return nil, err
	}
	res.CheckpointLSN = beginAt
	if beginAt.Valid() {
		if b, err := a.m.At(0, beginAt); err == nil {
			begin, from = b.Order, b.Order
		}
		for _, e := range cp.ActiveTxns {
			named[e.TxnID] = true
			from = 0
			res.MaxTxnID = max(res.MaxTxnID, e.TxnID)
		}
		for _, e := range cp.DirtyPages {
			a.dpt[e.PageID] = uint64(e.RecLSN)
		}
	}

	a.m.From(from)
	res.ScannedBytes = a.m.Span()
	for {
		mr, ok := a.m.Next()
		if !ok {
			break
		}
		rec := &mr.Rec
		res.Scanned++
		res.MaxTxnID = max(res.MaxTxnID, rec.TxnID)
		below := mr.Order < begin
		if below && !named[rec.TxnID] {
			continue
		}
		if rec.Kind == logrec.KindUpdate || rec.Kind == logrec.KindCLR {
			if _, ok := a.dpt[rec.PageID]; !ok && !below {
				a.dpt[rec.PageID] = mr.Order
			}
		}
		// A slot LaneMerge left unresolved belongs to a transaction whose
		// first record lies below its lane's base, which truncation
		// allows only for a finished one: its updates need redo, but it
		// has no place in the transaction table.
		if rec.TxnID == 0 {
			continue
		}
		switch rec.Kind {
		case logrec.KindUpdate, logrec.KindCLR:
			a.touch(&mr)
		case logrec.KindCommit:
			a.touch(&mr).committed = true
		case logrec.KindAbort:
			a.touch(&mr)
		case logrec.KindEnd:
			delete(a.att, rec.TxnID)
		}
	}
	// A gap mid-log (not just a torn tail) would mean corruption before
	// the durable horizon; report it rather than recover wrongly.
	if err := a.m.Err(); err != nil {
		return nil, fmt.Errorf("recovery: analysis: %w", err)
	}
	return a, nil
}

// touch returns the record's transaction entry, advanced to the record
// (the stream is in total order). A record marked first starts a
// transaction: whatever an earlier holder of the same ID left in the
// tail — IDs restart below a checkpoint that named nobody — is not its
// history.
func (a *Analysis) touch(mr *Merged) *txnStatus {
	st := a.att[mr.Rec.TxnID]
	if st == nil || mr.Rec.First {
		st = &txnStatus{first: mr.Order, opened: mr.Rec.First}
		a.att[mr.Rec.TxnID] = st
	}
	st.lane, st.last = mr.Lane, mr.Order
	return st
}

// Recover runs the passes that touch pages: redo from the dirty-page
// table's oldest entry, then undo of every transaction analysis found
// without a durable commit record, newest record first across all of
// them. With a sink, undo logs a CLR per compensated update and an end
// record per loser on the loser's home lane, making recovery itself
// recoverable (the caller flushes them before admitting new work); they
// name the loser by its full ID, never by its slot, which a survivor
// may have bound again since;
// without one it applies inverses under made-up stamps above the top of
// the log (single-crash recovery only).
//
// Every image redo reads is faulted from the store's page file, and with
// a WAL attached to the store (storage.Store.AttachWAL) the fault refuses
// one stamped beyond the durable log: the checkpoint sweep and the steal
// path only archive pages whose stamp is durable, so such an image is a
// WAL violation or a corrupt database file, and redoing on top of it
// would silently skip updates.
func (a *Analysis) Recover(store *storage.Store, sink Sink) (*Result, error) {
	m, res := a.m, a.res
	top := m.Top()

	res.ArchivedPages = len(store.PageIDs())
	faults0 := store.CacheStats().Misses
	defer func() { res.ArchivedPages += int(store.CacheStats().Misses - faults0) }()

	// ---- Redo, in the total order. ----
	// (Entries below a lane's base belong to pages the checkpointer
	// archived before releasing the log behind them: From starts at the
	// base.)
	redoFrom := uint64(lsn.Undefined)
	for _, order := range a.dpt {
		redoFrom = min(redoFrom, order)
	}
	m.From(redoFrom)
	for {
		mr, ok := m.Next()
		if !ok {
			break
		}
		rec := &mr.Rec
		if rec.Kind != logrec.KindUpdate && rec.Kind != logrec.KindCLR {
			continue
		}
		if first, inDPT := a.dpt[rec.PageID]; !inDPT || mr.Order < first {
			continue
		}
		applied, err := redo(store, &mr)
		if err != nil {
			return nil, err
		}
		if applied {
			res.RedoApplied++
		}
	}

	// ---- Undo losers, newest record first. ----
	losers := make(map[uint64]*txnStatus)
	from, to := uint64(lsn.Undefined), uint64(0)
	for id, st := range a.att {
		if st.committed {
			res.Winners = append(res.Winners, id)
			continue
		}
		// Truncation never releases log below an active transaction's
		// first record, so a loser's history must survive in full.
		if !st.opened {
			return nil, fmt.Errorf("recovery: loser %d: its first record (lane %d) is not in any durable tail", id, st.lane)
		}
		res.Losers = append(res.Losers, id)
		losers[id] = st
		from, to = min(from, st.first), max(to, st.last)
	}
	sort.Slice(res.Winners, func(i, j int) bool { return res.Winners[i] < res.Winners[j] })
	sort.Slice(res.Losers, func(i, j int) bool { return res.Losers[i] < res.Losers[j] })
	if err := a.collect(losers, from, to); err != nil {
		return nil, err
	}

	// ARIES undoes the update with the largest order across all losers;
	// a loser with nothing left to undo is finished first, with an end
	// record on its home lane.
	synth, step := top, m.Step()
	open := append([]uint64(nil), res.Losers...)
	for {
		var id uint64
		var st *txnStatus
		live := open[:0]
		for _, lid := range open {
			l := losers[lid]
			if len(l.undo) == 0 {
				if sink != nil {
					if _, _, _, _, err := sink.Append(l.lane, logrec.NewEnd(lid)); err != nil {
						return nil, fmt.Errorf("recovery: undo end: %w", err)
					}
				}
				continue
			}
			live = append(live, lid)
			if st == nil || l.undo[len(l.undo)-1].order > st.undo[len(st.undo)-1].order {
				id, st = lid, l
			}
		}
		if open = live; st == nil {
			break
		}
		p := st.undo[len(st.undo)-1]
		st.undo = st.undo[:len(st.undo)-1]
		mr, err := m.At(st.lane, p.at)
		if err != nil {
			return nil, fmt.Errorf("recovery: loser %d: record at %v (lane %d) not in any durable tail: %w", id, p.at, st.lane, err)
		}
		rec := &mr.Rec
		up, err := logrec.DecodeUpdate(rec.Payload)
		if err != nil {
			return nil, fmt.Errorf("recovery: undo decode at %d: %w", mr.Order, err)
		}
		inv := up.Inverse()
		var pageStamp, recStamp lsn.LSN
		if sink != nil {
			next := lsn.Undefined
			if n := len(st.undo); n > 0 {
				next = st.undo[n-1].at
			}
			_, _, pageStamp, recStamp, err = sink.Append(st.lane, logrec.NewCLR(id, rec.PageID, next, inv))
			if err != nil {
				return nil, fmt.Errorf("recovery: undo CLR: %w", err)
			}
		} else {
			synth += step
			pageStamp, recStamp = lsn.LSN(synth), lsn.LSN(synth)
		}
		if err := compensate(store, rec.PageID, inv, pageStamp, recStamp); err != nil {
			return nil, fmt.Errorf("recovery: undo at %d: %w", mr.Order, err)
		}
		res.UndoApplied++
	}
	return res, nil
}

// collect reads the merge forward over [from, to] — from the oldest
// loser's first record to the newest loser record — and leaves in each
// loser's entry the updates it has still to compensate. A CLR (logged by
// a rollback the crash cut short, or by an earlier recovery) says
// everything above its undo-next is compensated already, and its
// undo-next must then be the newest update left.
func (a *Analysis) collect(losers map[uint64]*txnStatus, from, to uint64) error {
	if len(losers) == 0 {
		return nil
	}
	m := a.m
	m.From(from)
	for {
		mr, ok := m.Next()
		if !ok || mr.Order > to {
			break
		}
		st := losers[mr.Rec.TxnID]
		if st == nil || mr.Order < st.first || mr.Order > st.last {
			continue
		}
		switch mr.Rec.Kind {
		case logrec.KindUpdate:
			st.undo = append(st.undo, pending{at: mr.Rec.LSN, order: mr.Order})
		case logrec.KindCLR:
			next := mr.Rec.UndoNext()
			for n := len(st.undo); n > 0 && (!next.Valid() || st.undo[n-1].at > next); n = len(st.undo) {
				st.undo = st.undo[:n-1]
			}
			if n := len(st.undo); next.Valid() && (n == 0 || st.undo[n-1].at != next) {
				return fmt.Errorf("recovery: loser %d: the CLR at %v (lane %d) goes on at %v, which is no update of it in any durable tail",
					mr.Rec.TxnID, mr.Rec.LSN, mr.Lane, next)
			}
		}
	}
	if err := m.Err(); err != nil {
		return fmt.Errorf("recovery: undo: %w", err)
	}
	return nil
}

// redo reapplies one update or CLR to its page unless the page already
// reflects it, reporting whether it did.
func redo(store *storage.Store, mr *Merged) (bool, error) {
	rec := &mr.Rec
	// Lazy fault-in: a page archived before the crash (including one
	// stolen by the eviction path) comes back from the backend here; a
	// page never archived materializes empty.
	page, err := store.GetOrCreate(rec.PageID)
	if err != nil {
		return false, fmt.Errorf("recovery: redo fault at %d: %w", mr.Order, err)
	}
	defer page.Unpin()
	stamp := page.LSN()
	if stamp >= mr.Stamp {
		return false, nil
	}
	// Dependency verification (N lanes; one lane's records carry no
	// PrevPageSeq): the page's previous update, possibly on another lane,
	// must already be reflected — replayed earlier in this merge or
	// captured in the archived image. If it is not, a younger record
	// hardened before an older one it depends on, which the flush edges
	// must never allow.
	if ps := rec.PrevPageSeq(); ps > 0 && uint64(stamp) < ps {
		return false, fmt.Errorf(
			"%w: page %d at stamp %d reached update seq %d (lane %d) before its dependency seq %d was applied",
			ErrDependencyViolated, rec.PageID, uint64(stamp), mr.Order, mr.Lane, ps)
	}
	up, err := logrec.DecodeUpdate(rec.Payload)
	if err != nil {
		return false, fmt.Errorf("recovery: redo decode at %d: %w", mr.Order, err)
	}
	if err := page.Apply(up, mr.Stamp); err != nil {
		return false, fmt.Errorf("recovery: redo apply at %d on page %d: %w", mr.Order, rec.PageID, err)
	}
	// Dirty before the unpin: a page must never be evictable while
	// modified but not yet in the DPT.
	store.MarkDirty(rec.PageID, lsn.LSN(mr.Order))
	return true, nil
}

// compensate applies inv, the inverse of an update to page pid, under
// the stamps of the CLR that logs it (or made-up ones).
func compensate(store *storage.Store, pid uint64, inv logrec.UpdatePayload, pageStamp, recStamp lsn.LSN) error {
	page, err := store.GetOrCreate(pid)
	if err != nil {
		return err
	}
	defer page.Unpin()
	if err := page.Apply(inv, pageStamp); err != nil {
		return fmt.Errorf("page %d: %w", pid, err)
	}
	store.MarkDirty(pid, recStamp)
	return nil
}

// findCheckpoint scans lane 0's checked tail (the coordinator writes
// checkpoints nowhere else) for the checkpoint Analyze's ckpt names, or
// the newest whole one, gathering its chunks, and returns its begin LSN
// and payload; one named but missing, or missing a chunk, is an error.
func findCheckpoint(lane Lane, want *lsn.LSN) (lsn.LSN, logrec.CheckpointPayload, error) {
	begin := lsn.Undefined
	var payload logrec.CheckpointPayload
	if want != nil && !want.Valid() {
		return begin, payload, nil
	}
	var g logrec.CheckpointGather
	it := logrec.NewVerifiedIterator(lane.Log, lane.Base)
	for {
		rec, ok := it.Next()
		if !ok {
			break
		}
		if rec.Kind != logrec.KindCheckpointEnd || (want != nil && lsn.LSN(rec.Aux) != *want) {
			continue
		}
		// A checkpoint counts once its last chunk is in: one whose tail
		// a crash cut off leaves the previous one in force.
		if p, ok := g.Add(rec.Aux, rec.Payload); ok {
			begin, payload = lsn.LSN(rec.Aux), p
		}
	}
	if want != nil && begin != *want {
		return begin, payload, fmt.Errorf("recovery: checkpoint begun at %v is not in lane 0's log from %v", *want, lane.Base)
	}
	return begin, payload, nil
}
