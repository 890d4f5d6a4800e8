// restore.go is point-in-time recovery's public face: DB.RestoreTo
// reconstructs the committed state at an arbitrary historical position
// — a stamp: a log offset for a single log, a global sequence stamp for
// a partitioned one; DB.RestorePoint captures such a position — by
// stitching the cold store's snapshot and log objects to the hot log
// and replaying (internal/recovery's PITR path). It also re-exports the
// cold store's ObjectStore so Options.RemoteStore is usable without
// reaching into internal packages.
package aether

import (
	"errors"
	"fmt"
	"sort"

	"aether/internal/logdev"
	"aether/internal/lsn"
	"aether/internal/recovery"
	"aether/internal/storage"
	"aether/internal/txn"
)

// ObjectStore is the S3-style object API the cloud log tier archives
// into (Options.RemoteStore): whole-object put/get/delete plus prefix
// listing. See NewMemObjectStore and NewDirObjectStore for the two
// bundled implementations.
type ObjectStore = logdev.ObjectStore

// MemObjectStore is an in-memory ObjectStore with an injectable
// network-failure model (latency, transient 5xx storms, torn uploads,
// outages) — the fault-testing "cloud".
type MemObjectStore = logdev.MemObjectStore

// NewMemObjectStore returns an empty in-memory object store (see
// MemObjectStore.Arm for the network-failure model).
func NewMemObjectStore() *MemObjectStore { return logdev.NewMemObjectStore() }

// NewDirObjectStore returns an ObjectStore backed by a directory of
// files: key "seg/000…042" becomes dir/seg/000…042, installed with
// tmp-write + rename + directory sync. Options.ArchiveDir is the usual
// way to get one; this spelling is for a store shared with other tools.
func NewDirObjectStore(dir string) (ObjectStore, error) { return logdev.NewDirObjectStore(dir) }

// ErrRestorePruned reports a RestoreTo target below the retention
// floor: the history needed to reconstruct it was pruned (it lay wholly
// below the oldest retained snapshot's cut). Stats.RestoreFloor is the
// oldest point that remains restorable.
var ErrRestorePruned = errors.New("aether: restore point below retention floor (history pruned)")

// RestorePoint returns the current durable position in RestoreTo's
// domain: the durable log offset for a single log, the global durable
// sequence stamp for a partitioned one. State committed (durably) by
// the time RestorePoint returns is reproduced by RestoreTo of the
// returned value.
func (db *DB) RestorePoint() int64 { return int64(db.eng.Multi().Durable()) }

// RestoredDB is a read-only reconstruction of the database's committed
// state at a historical position, returned by RestoreTo. It is
// decoupled from the live database: pages were replayed from the log
// into a private store.
type RestoredDB struct {
	store  *storage.Store
	spaces map[string]uint32
	at     int64
}

// At returns the position the state was restored to.
func (r *RestoredDB) At() int64 { return r.at }

// Scan visits the restored rows of a table in ascending key order,
// calling fn until it returns false. Keys follow the Row convention
// (first 8 bytes of the row). The table name must be one the live
// database had registered at RestoreTo time.
func (r *RestoredDB) Scan(table string, fn func(key uint64, row []byte) bool) error {
	space, ok := r.spaces[table]
	if !ok {
		return fmt.Errorf("aether: restored state has no table %q", table)
	}
	type kv struct {
		key uint64
		row []byte
	}
	var rows []kv
	for _, pid := range r.store.PageIDs() {
		if storage.PageSpace(pid) != space {
			continue
		}
		page, err := r.store.Get(pid)
		if err != nil {
			return err
		}
		for slot := 0; slot < page.NumSlots(); slot++ {
			row, err := page.Get(slot)
			if err != nil {
				continue // dead slot
			}
			rows = append(rows, kv{key: txn.DefaultKeyOf(row), row: row})
		}
		page.Unpin()
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].key < rows[b].key })
	for _, e := range rows {
		if !fn(e.key, e.row) {
			break
		}
	}
	return nil
}

// Get returns the restored row under key, or ErrKeyNotFound.
func (r *RestoredDB) Get(table string, key uint64) ([]byte, error) {
	var found []byte
	err := r.Scan(table, func(k uint64, row []byte) bool {
		if k == key {
			found = append([]byte(nil), row...)
			return false
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	if found == nil {
		return nil, ErrKeyNotFound
	}
	return found, nil
}

// RestoreTo reconstructs the committed state at position at — a value
// previously captured with RestorePoint (a durable log offset for a
// single log, a global seq for a partitioned one). The restore replays
// history from the cold store (Options.ArchiveDir or RemoteStore)
// stitched to the hot log: with snapshots enabled, from the newest
// snapshot at or below at; otherwise from the beginning of time.
// Transactions without a durable commit at at are rolled back, so the
// result is exactly the committed state a crash at that instant would
// have recovered. Targets below the retention floor fail with
// ErrRestorePruned; targets beyond the durable end fail (the future is
// not restorable).
func (db *DB) RestoreTo(at int64) (*RestoredDB, error) {
	if at < 0 {
		return nil, fmt.Errorf("aether: RestoreTo(%d): negative position", at)
	}
	if durable := db.RestorePoint(); at > durable {
		return nil, fmt.Errorf("aether: RestoreTo(%d): beyond the durable end %d", at, durable)
	}
	spaces := make(map[string]uint32, len(db.tables))
	for _, name := range db.tables {
		if t := db.eng.Table(name); t != nil {
			spaces[name] = t.Space
		}
	}
	// With snapshots, start from the newest one at or below the target;
	// without, from the beginning of time.
	var snap *logdev.Snapshot
	var cut uint64
	if r := db.snapshotStore(); r != nil {
		floor, err := r.Floor()
		if err != nil {
			return nil, fmt.Errorf("aether: RestoreTo(%d): reading retention floor: %w", at, err)
		}
		if uint64(at) < floor {
			return nil, fmt.Errorf("%w: target %d, floor %d", ErrRestorePruned, at, floor)
		}
		s, ok, err := r.NewestSnapshotAtOrBelow(uint64(at))
		if err != nil {
			return nil, fmt.Errorf("aether: RestoreTo(%d): loading snapshot: %w", at, err)
		}
		if ok {
			snap, cut = s, s.Cut
		}
	}
	lanes := make([]recovery.Lane, len(db.lanes))
	for i, l := range db.lanes {
		data, start, err := l.restore(int64(cut))
		if err != nil {
			return nil, fmt.Errorf("aether: RestoreTo(%d): lane %d: %w", at, i, err)
		}
		if uint64(start) > cut {
			return nil, fmt.Errorf("aether: RestoreTo(%d): lane %d history reaches back to %d, need %d (archive incomplete)", at, i, start, cut)
		}
		lanes[i] = recovery.Lane{Log: data[cut-uint64(start):], Base: lsn.LSN(cut)}
	}
	store, err := recovery.ReplayToPoint(snap, lanes, uint64(at))
	if err != nil {
		return nil, fmt.Errorf("aether: RestoreTo(%d): %w", at, err)
	}
	return &RestoredDB{store: store, spaces: spaces, at: at}, nil
}

// snapshotStore is the cold store a database takes snapshots in, and so
// the one whose floor bounds RestoreTo: the cold store of a one-lane
// log. nil without a cold store, and on N lanes, where a cut (a byte
// offset) means nothing because the lanes' pages interleave.
func (db *DB) snapshotStore() *logdev.RemoteArchiver {
	if len(db.lanes) != 1 {
		return nil
	}
	return db.lanes[0].remote
}
