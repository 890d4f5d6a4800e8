// pitr.go is point-in-time recovery: reconstructing the committed
// state at an arbitrary historical position by replaying the log from
// genesis (or from a materialized snapshot) into a fresh page store,
// then undoing the transactions still in flight at that position.
//
// It reads the log through the same LaneMerge and reapplies records
// with the same redo step as restart recovery (recovery.go), but it is
// not that pass: a restart's analysis starts at the last checkpoint and
// trusts the page archive for everything older, and its undo walks the
// losers' chains backwards through the tail. A point-in-time restore
// targets a moment that may predate every checkpoint, so it ignores
// checkpoints entirely and replays history itself, and it may start
// from a snapshot whose log is gone, so what it has to undo must travel
// with it — which is exactly why the remote tier's retention policy is
// anchored on snapshot objects: a snapshot materializes the replay of
// everything below its cut (page images plus the undo stash of
// transactions straddling the cut), making the log below it safe to
// prune without giving up any restore point at or above it.
//
// Cut-boundary correctness: for any record boundary C, the log prefix
// [0, C) is self-contained — a transaction without a commit record
// below C is a loser *at C*, and every update it needs undone lies
// below C. The replayer tracks exactly that: per in-flight transaction,
// its not-yet-compensated updates (append on update, pop on CLR, drop
// on commit/end). At the target, the surviving stash is undone in
// reverse order. The same state doubles as the snapshot's stash.
package recovery

import (
	"errors"
	"fmt"
	"sort"

	"aether/internal/logdev"
	"aether/internal/logrec"
	"aether/internal/lsn"
	"aether/internal/storage"
)

// ErrBadCut reports a PITR call whose snapshot, log slice and target do
// not line up (e.g. the log does not start at the snapshot's cut).
var ErrBadCut = errors.New("recovery: snapshot, log and target do not line up")

// replayer is the shared PITR core: a fresh page store plus the
// per-transaction stash of un-compensated updates.
type replayer struct {
	store *storage.Store
	stash map[uint64][]logdev.SnapshotStashRec
}

func newReplayer() *replayer {
	return &replayer{store: storage.NewStore(), stash: make(map[uint64][]logdev.SnapshotStashRec)}
}

// loadSnapshot seeds the store and stash from a materialized snapshot.
func (r *replayer) loadSnapshot(snap *logdev.Snapshot) error {
	for _, sp := range snap.Pages {
		page, err := r.store.GetOrCreate(sp.PID)
		if err != nil {
			return err
		}
		err = page.LoadSnapshot(sp.Image)
		page.Unpin()
		if err != nil {
			return err
		}
	}
	for _, rec := range snap.Stash {
		r.stash[rec.TxnID] = append(r.stash[rec.TxnID], rec)
	}
	return nil
}

// replay applies every record m yields, in the total order, keeping the
// stash: append on update, pop on CLR (rollback is strictly
// last-to-first, so a CLR compensates the transaction's most recent
// un-compensated update), drop on commit or end. Abort, checkpoint and
// pad records carry no redo and do not change in-flight status: an
// aborting transaction stays stashed until its CLRs and End record drain
// it. It returns the last stamp applied.
func (r *replayer) replay(m *LaneMerge) (last lsn.LSN, err error) {
	for {
		mr, ok := m.Next()
		if !ok {
			break
		}
		last = mr.Stamp
		rec := &mr.Rec
		switch rec.Kind {
		case logrec.KindUpdate, logrec.KindCLR:
			if _, err := redo(r.store, &mr); err != nil {
				return 0, err
			}
			if rec.Kind == logrec.KindUpdate {
				r.stash[rec.TxnID] = append(r.stash[rec.TxnID], logdev.SnapshotStashRec{
					TxnID: rec.TxnID, At: mr.Order, PageID: rec.PageID, Payload: rec.Payload,
				})
			} else if n := len(r.stash[rec.TxnID]); n > 0 {
				r.stash[rec.TxnID] = r.stash[rec.TxnID][:n-1]
			}
		case logrec.KindCommit, logrec.KindEnd:
			delete(r.stash, rec.TxnID)
		}
	}
	if err := m.Err(); err != nil {
		return 0, fmt.Errorf("recovery: pitr: %w", err)
	}
	return last, nil
}

// undoStash rolls back every transaction still in flight, applying
// inverses in reverse global order with synthetic stamps above top.
func (r *replayer) undoStash(top uint64, step uint64) error {
	var all []logdev.SnapshotStashRec
	for _, recs := range r.stash {
		all = append(all, recs...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a].At > all[b].At })
	synth := top
	for _, sr := range all {
		up, err := logrec.DecodeUpdate(sr.Payload)
		if err != nil {
			return fmt.Errorf("recovery: pitr: decode stashed update at %d: %w", sr.At, err)
		}
		synth += step
		if err := compensate(r.store, sr.PageID, up.Inverse(), lsn.LSN(synth), lsn.LSN(synth)); err != nil {
			return fmt.Errorf("recovery: pitr: undo at %d: %w", sr.At, err)
		}
	}
	return nil
}

// dumpStash returns the stash in ascending order, with payloads copied
// so they outlive the log buffer they were decoded from.
func (r *replayer) dumpStash() []logdev.SnapshotStashRec {
	var all []logdev.SnapshotStashRec
	for _, recs := range r.stash {
		for _, sr := range recs {
			sr.Payload = append([]byte(nil), sr.Payload...)
			all = append(all, sr)
		}
	}
	sort.Slice(all, func(a, b int) bool { return all[a].At < all[b].At })
	return all
}

// dumpPages snapshots every page in the store.
func (r *replayer) dumpPages() ([]logdev.SnapshotPage, error) {
	ids := r.store.PageIDs()
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	pages := make([]logdev.SnapshotPage, 0, len(ids))
	for _, pid := range ids {
		page, err := r.store.Get(pid)
		if err != nil {
			return nil, err
		}
		img := page.Snapshot()
		page.Unpin()
		pages = append(pages, logdev.SnapshotPage{PID: pid, Image: img})
	}
	return pages, nil
}

// ReplayToPoint reconstructs the committed state of the log at target:
// an absolute log offset on a record boundary for one lane, a global
// sequence stamp for N (DB.RestorePoint returns either). Each lane holds
// its raw bytes from its base; records past the target are ignored and
// the transactions in flight at it are rolled back. When snap is non-nil
// (one lane only: a snapshot's cut is a byte offset) its pages and stash
// seed the replay and the lane must start at snap.Cut. The returned
// store holds exactly the pages of the committed state at target.
func ReplayToPoint(snap *logdev.Snapshot, lanes []Lane, target uint64) (*storage.Store, error) {
	r := newReplayer()
	if snap != nil {
		if len(lanes) != 1 || uint64(lanes[0].Base) != snap.Cut {
			return nil, fmt.Errorf("%w: a snapshot cut at %d needs one lane starting there", ErrBadCut, snap.Cut)
		}
		if err := r.loadSnapshot(snap); err != nil {
			return nil, err
		}
	}
	m := NewLaneMerge(lanes)
	if !m.Covers(target) {
		return nil, fmt.Errorf("%w: target %d outside the log (top %d)", ErrBadCut, target, m.Top())
	}
	m.Until(target)
	if _, err := r.replay(m); err != nil {
		return nil, err
	}
	if err := r.undoStash(target, m.Step()); err != nil {
		return nil, err
	}
	return r.store, nil
}

// BuildSnapshot materializes the replay of a single log up to
// base+len(log): page images plus the stash of transactions still in
// flight at the cut. prev (which must cut at base) seeds the replay so
// successive snapshots cost only the new log suffix. The log slice must
// end on a record boundary (the device's durable watermark always
// does); trailing bytes that do not decode are a hard error rather
// than a silent shorter cut.
func BuildSnapshot(prev *logdev.Snapshot, log []byte, base uint64) (*logdev.Snapshot, error) {
	if prev != nil && prev.Cut != base {
		return nil, fmt.Errorf("%w: log starts at %d, previous snapshot cut at %d", ErrBadCut, base, prev.Cut)
	}
	cut := base + uint64(len(log))
	r := newReplayer()
	if prev != nil {
		if err := r.loadSnapshot(prev); err != nil {
			return nil, err
		}
	}
	end, err := r.replay(NewLaneMerge([]Lane{{Log: log, Base: lsn.LSN(base)}}))
	if err != nil {
		return nil, err
	}
	if len(log) > 0 && uint64(end) != cut {
		return nil, fmt.Errorf("%w: log tail does not reach the cut (%d decoded, cut %d)", ErrBadCut, uint64(end), cut)
	}
	pages, err := r.dumpPages()
	if err != nil {
		return nil, err
	}
	return &logdev.Snapshot{Cut: cut, Pages: pages, Stash: r.dumpStash()}, nil
}
