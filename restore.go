// restore.go is point-in-time recovery's public face: DB.RestorePoint
// captures a stamp (a log offset on one lane, a global seq on N), and
// DB.RestoreTo restarts a copy of the database that stops there — the
// newest snapshot at or below it as the page file, each lane's log from
// the snapshot's low-water mark through it, analysis at the snapshot's
// own checkpoint, and restart's undo for the transactions in flight. It
// also re-exports the cold store's ObjectStore, so Options.RemoteStore
// is usable without reaching into internal packages.
package aether

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"

	"aether/internal/logdev"
	"aether/internal/logrec"
	"aether/internal/lsn"
	"aether/internal/storage"
	"aether/internal/vfs"
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
// floor: the history needed to reconstruct it was pruned (it lay below
// the oldest retained snapshot). Stats.RestoreFloor is the oldest point
// that remains restorable.
var ErrRestorePruned = errors.New("aether: restore point below retention floor (history pruned)")

// RestorePoint returns the current durable position in RestoreTo's
// domain: the durable log offset for a single log, the global durable
// sequence stamp for a partitioned one. State committed (durably) by
// the time RestorePoint returns is reproduced by RestoreTo of the
// returned value.
func (db *DB) RestorePoint() int64 { return int64(db.eng.Multi().Durable()) }

// RestoredDB is a read-only reconstruction of the database's committed
// state at a historical position, returned by RestoreTo: a database of
// its own, reading through a buffer pool of the live one's CachePages.
// Close it when done.
type RestoredDB struct {
	db *DB
	at int64
	// scratch is the directory a file-backed database's restore made,
	// which Close removes ("" for an in-memory one).
	scratch string
}

// At returns the position the state was restored to.
func (r *RestoredDB) At() int64 { return r.at }

// read runs fn in a transaction of the restored database, over the
// restored handle of a table of the live one.
func (r *RestoredDB) read(table string, fn func(*Tx, *Table) error) error {
	t := r.db.eng.Table(table)
	if t == nil {
		return fmt.Errorf("aether: restored state has no table %q", table)
	}
	s := r.db.Session()
	defer s.Close()
	tx := s.Begin()
	if err := fn(tx, &Table{t: t}); err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit()
}

// Scan visits the restored rows of a table in ascending key order,
// calling fn until it returns false. The table name must be one the live
// database had registered at RestoreTo time.
func (r *RestoredDB) Scan(table string, fn func(key uint64, row []byte) bool) error {
	return r.read(table, func(tx *Tx, t *Table) error { return tx.Scan(t, 0, math.MaxUint64, fn) })
}

// Get returns the restored row under key, or ErrKeyNotFound.
func (r *RestoredDB) Get(table string, key uint64) (row []byte, err error) {
	err = r.read(table, func(tx *Tx, t *Table) error { row, err = tx.Read(t, key); return err })
	return row, err
}

// Close stops the restored database and removes the files the restore
// made; what a failed removal leaves, the next Open of the database
// removes. Safe to call more than once.
func (r *RestoredDB) Close() error {
	err := r.db.Close()
	if dir := r.scratch; dir != "" {
		r.scratch = ""
		err = errors.Join(err, vfs.RemoveAll(r.db.fs, dir))
		scratch.mu.Lock()
		delete(scratch.live, scratchKey{r.db.fs, dir})
		scratch.mu.Unlock()
	}
	return err
}

// RestoreTo reconstructs the committed state at position at, a value
// captured with RestorePoint. It starts from the newest whole snapshot at
// or below at (from genesis without one) and replays history from the
// cold store (Options.ArchiveDir or RemoteStore) stitched to the hot log;
// transactions without a durable commit at at are rolled back, so the
// result is the committed state a crash at that instant would have
// recovered. Targets below the retention floor fail with
// ErrRestorePruned; targets beyond the durable end fail.
func (db *DB) RestoreTo(at int64) (*RestoredDB, error) {
	if durable := db.RestorePoint(); at < 0 || at > durable {
		return nil, fmt.Errorf("aether: RestoreTo(%d): outside the log [0, %d] (the future is not restorable)", at, durable)
	}
	// newest is the newest whole snapshot at or below stamp, or genesis:
	// none, every lane from 0.
	genesis := &logdev.Manifest{Checkpoint: uint64(lsn.Undefined), Lanes: make([]logdev.ManifestLane, len(db.lanes))}
	newest := func(stamp uint64) (*logdev.Manifest, error) {
		if db.snaps == nil {
			return genesis, nil
		}
		m, err := db.snaps.NewestAtOrBelow(stamp)
		if m == nil {
			m = genesis
		}
		return m, err
	}
	// belowFloor reads the retention floor and refuses at below it.
	belowFloor := func() (uint64, error) {
		f, err := db.snaps.Floor()
		if err != nil {
			return 0, fmt.Errorf("aether: RestoreTo(%d): reading retention floor: %w", at, err)
		}
		if uint64(at) < f {
			return f, fmt.Errorf("%w: target %d, floor %d", ErrRestorePruned, at, f)
		}
		return f, nil
	}
	if db.snaps != nil {
		if _, err := belowFloor(); err != nil {
			return nil, err
		}
	}
	retried := false
	for snap, err := newest(uint64(at)); ; {
		if err != nil {
			return nil, fmt.Errorf("aether: RestoreTo(%d): reading snapshots: %w", at, err)
		}
		r, rerr := db.restore(snap, uint64(at))
		switch {
		case rerr == nil:
			return r, nil
		case errors.Is(rerr, errHistoryGone) && db.snaps != nil:
			// A prune that ran since the floor was read deleted history
			// this snapshot needs. Below the floor it now has, the target
			// is gone; above it, the newest snapshot at or below the
			// target is retained whole, so one retry from there is enough
			// unless yet another prune overtakes it.
			f, ferr := belowFloor()
			if ferr != nil {
				return nil, ferr
			}
			if snap, err = newest(uint64(at)); retried || err == nil && snap.At < f {
				return nil, fmt.Errorf("%w: target %d, floor %d", ErrRestorePruned, at, f)
			}
			retried = true
		case snap != genesis && errors.Is(rerr, logdev.ErrBadObject) && !errors.Is(rerr, logdev.ErrFormat):
			// A torn or missing images object makes its snapshot absent.
			snap, err = newest(snap.At - 1)
		default:
			return nil, fmt.Errorf("aether: RestoreTo(%d): %w", at, rerr)
		}
	}
}

// restore materializes snapshot snap and each lane's log from its
// low-water mark through at, and opens the result as a database whose
// analysis starts at snap's checkpoint.
func (db *DB) restore(snap *logdev.Manifest, at uint64) (_ *RestoredDB, err error) {
	n := len(db.lanes)
	rdb := &DB{
		opts: Options{
			LogPartitions: db.opts.LogPartitions,
			CachePages:    db.opts.CachePages,
			PrefetchDepth: db.opts.PrefetchDepth,
			Mode:          CommitSync,
		},
		fs: db.fs,
	}
	r := &RestoredDB{db: rdb, at: int64(at)}
	if db.mem != nil {
		rdb.mem = vfs.NewFaultFS(1)
		rdb.fs, rdb.root = rdb.mem, "/db"
	} else if rdb.root, err = scratchDir(db.fs, db.root); err != nil {
		return nil, err
	} else {
		r.scratch = rdb.root
	}
	defer func() {
		if err != nil {
			r.Close()
		}
	}()
	for i, l := range db.lanes {
		if err := l.copyLog(rdb.fs, logdev.LaneDir(rdb.root, i, n), int64(snap.Lanes[i].LowWater), at, n); err != nil {
			return nil, fmt.Errorf("lane %d: %w", i, err)
		}
	}
	ckpt := lsn.LSN(snap.Checkpoint)
	if err := db.materialize(snap, rdb); err != nil {
		return nil, err
	}
	if err := rdb.open(&ckpt); err != nil {
		return nil, err
	}
	for _, name := range db.tables {
		if _, err := rdb.CreateTable(name); err != nil {
			return nil, err
		}
	}
	return r, rdb.RebuildAfterRecovery()
}

// materialize writes snapshot snap's page images into rdb's fresh page
// file, one images object at a time.
func (db *DB) materialize(snap *logdev.Manifest, rdb *DB) (err error) {
	pf, err := storage.OpenPageFileFS(rdb.fs, filepath.Join(rdb.root, "pagefile.db"))
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, pf.Close()) }()
	for _, ref := range snap.Objects() {
		images, err := db.snaps.GetImages(ref)
		if err != nil {
			return err
		}
		// An object may also hold images a later one superseded.
		batch := make([]storage.PageImage, 0, len(images))
		for _, img := range images {
			i, ok := slices.BinarySearchFunc(snap.Pages, img.PID, func(p logdev.ManifestPage, pid uint64) int { return cmp.Compare(p.PID, pid) })
			if ok && snap.Pages[i].Object == ref {
				batch = append(batch, storage.PageImage{PID: img.PID, Img: img.Image})
			}
		}
		if err := pf.PutBatch(batch); err != nil {
			return err
		}
	}
	return nil
}

// cutAt returns data — a lane's log from offset base, which starts a
// batch — cut as a crash at at would have left it: the records stamped at
// or below at, and the seal of the batch they end in. A cut at a batch's
// end keeps the seal the batch had; a cut inside one keeps only part of
// what that seal vouched for, so it seals what it keeps, in place: data
// past the cut is overwritten. One lane's stamp is a record's end offset,
// N lanes' its global seq; either rises along a lane. pieces are where
// copyLog ends a Sync short of the kept bytes' end: at each segment's
// newest seal, for every segment of segSize the kept bytes reach past.
func cutAt(data []byte, base, at uint64, lanes int, segSize int64) (kept []byte, pieces []int, err error) {
	it := logrec.NewIterator(data, lsn.LSN(base))
	cut, batch := 0, 0
	seg := func(end int) uint64 { return (base + uint64(end) - 1) / uint64(segSize) }
	for {
		rec, ok := it.Next()
		if !ok {
			break
		}
		end := int(uint64(rec.LSN)-base) + int(rec.TotalLen)
		stamp := uint64(rec.Seq)
		if lanes == 1 {
			stamp = base + uint64(end)
		}
		if stamp > at {
			break
		}
		// A batch starting in a later segment than the previous one's
		// start, a seal's end, makes that its segment's newest seal end.
		b := int(uint64(it.Batch()) - base)
		if batch > 0 && b > batch && seg(b) > seg(batch) {
			pieces = append(pieces, batch)
		}
		cut, batch = end, b
	}
	if err := it.Err(); err != nil {
		return nil, nil, err
	}
	if cut == batch {
		return data[:cut], pieces, nil
	}
	// The iterator checked the batch's seal before it yielded the batch.
	if seal, n, err := logrec.Decode(data[cut:]); err == nil && seal.IsSeal() && seal.Aux == uint64(cut-batch) {
		return data[:cut+n], pieces, nil
	}
	return logrec.AppendSeal(data[:cut], batch), pieces, nil
}

// scratch numbers this process's scratch directories and holds those of
// its open RestoredDBs, which sweepScratch spares. It is process-wide
// because the directories are: two DBs of one process may share a path.
var scratch struct {
	mu   sync.Mutex
	n    int64
	live map[scratchKey]bool
}

type scratchKey struct {
	fs  vfs.FS
	dir string
}

// scratchDir makes a new directory root.restore-<k> beside a file-backed
// database's root, skipping any that exists, and holds it until
// RestoredDB.Close.
func scratchDir(fs vfs.FS, root string) (string, error) {
	scratch.mu.Lock()
	defer scratch.mu.Unlock()
	for {
		scratch.n++
		dir := fmt.Sprintf("%s.restore-%d", filepath.Clean(root), scratch.n)
		if _, err := fs.Stat(dir); errors.Is(err, os.ErrNotExist) {
			if err := fs.MkdirAll(dir, 0o755); err != nil {
				return "", err
			}
			if scratch.live == nil {
				scratch.live = make(map[scratchKey]bool)
			}
			scratch.live[scratchKey{fs, dir}] = true
			return dir, nil
		} else if err != nil {
			return "", err
		}
	}
}

// sweepScratch removes, durably, every root.restore-<k> directory beside
// a file-backed database's root that no open RestoredDB of this process
// holds: those a process that died before RestoredDB.Close left behind.
func sweepScratch(fs vfs.FS, root string) error {
	root = filepath.Clean(root)
	parent, prefix := filepath.Dir(root), filepath.Base(root)+".restore-"
	entries, err := fs.ReadDir(parent)
	if err != nil {
		return err
	}
	scratch.mu.Lock()
	defer scratch.mu.Unlock()
	for _, e := range entries {
		k, ok := strings.CutPrefix(e.Name(), prefix)
		if _, perr := strconv.ParseUint(k, 10, 64); !ok || perr != nil || !e.IsDir() {
			continue
		}
		if dir := filepath.Join(parent, e.Name()); !scratch.live[scratchKey{fs, dir}] {
			if err := vfs.RemoveAll(fs, dir); err != nil {
				return err
			}
		}
	}
	return nil
}
