// remote.go is the cold store — the BtrLog-style archive-before-recycle
// lifecycle: a Segmented device with a RemoteArchiver attached never
// deletes a dead segment until Archive has returned for it, so the full
// log history survives below the truncation base and the hot log stays
// tiny. The archiver ships segments into an S3-style ObjectStore: a
// bucket (Options.RemoteStore) or a directory (Options.ArchiveDir, a
// DirObjectStore) — one mechanism either way. Every archived segment is
// exactly one write-once object from upload until retention deletes it.
// Beside them sit snapshot objects, which anchor retention: history is
// pruned only below the oldest materialized restore base, keeping every
// later point restorable.
//
// Failure discipline: Archive never loops internally. It validates,
// uploads once, and reports errors to the caller — the engine's
// cold-tier daemon owns backoff and retry, and a failed upload leaves
// the segment parked in the device's pending set (the slot is not
// recycled until cold storage durably holds the bytes). A torn upload
// leaves a truncated object in the store; the envelope CRC makes the
// next attempt detect it, treat the object as absent and re-upload. A
// torn snapshot is likewise absent to every reader.
package logdev

import (
	"errors"
	"fmt"
	"strings"
	"sync"
)

// Remote-tier key layout under the archiver's prefix.
const (
	remoteSegDir  = "seg/"
	remoteSnapDir = "snap/"
)

// RemoteArchiver ships log segments to an ObjectStore: the one cold
// store Segmented.SetArchiver attaches and the engine's cold-tier daemon
// drains into. Archive is durable before it returns (the segment file is
// unlinked right after) and idempotent (a crash between Archive and the
// recycle re-archives the same segment on the next pass).
type RemoteArchiver struct {
	store   ObjectStore
	prefix  string
	segSize int64

	mu    sync.Mutex
	stats RemoteStats
}

// RemoteStats counts segment uploads beyond the raw store traffic.
type RemoteStats struct {
	// SegmentsUploaded counts segment objects durably uploaded.
	SegmentsUploaded int64
	// UploadSkipped counts Archive calls satisfied by an existing valid
	// object (idempotent re-ship after a crash or torn upload).
	UploadSkipped int64
}

// NewRemoteArchiver returns a RemoteArchiver over store. prefix
// namespaces this log's objects (partition lanes use "p0/", "p1/", …;
// a single log uses ""). segSize must match the segmented device; a
// reader that never retrieves a segment may pass 0.
//
// A lane holding objects under pack/ is refused with ErrFormat and left
// as it is: earlier versions compacted archived segments into pack
// objects, which no reader here understands, and whose history a listing
// of seg/ alone would take for pruned.
func NewRemoteArchiver(store ObjectStore, prefix string, segSize int64) (*RemoteArchiver, error) {
	if prefix != "" && !strings.HasSuffix(prefix, "/") {
		prefix += "/"
	}
	packs, err := store.List(prefix + "pack/")
	if err != nil {
		return nil, fmt.Errorf("logdev: cold store lane %q: %w", prefix, err)
	}
	if len(packs) > 0 {
		return nil, fmt.Errorf("%w: cold store lane %q holds %d compacted pack objects (%s …) written by an earlier version, which this one does not read (nothing was changed)",
			ErrFormat, prefix, len(packs), packs[0])
	}
	return &RemoteArchiver{store: store, prefix: prefix, segSize: segSize}, nil
}

// Stats returns a snapshot of the remote-tier counters.
func (r *RemoteArchiver) Stats() RemoteStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// SegmentSize returns the segment size this archiver was built for.
func (r *RemoteArchiver) SegmentSize() int64 { return r.segSize }

func (r *RemoteArchiver) segKey(idx int64) string {
	return fmt.Sprintf("%s%s%016d", r.prefix, remoteSegDir, idx)
}

func (r *RemoteArchiver) snapKey(cut uint64) string {
	return fmt.Sprintf("%s%s%020d", r.prefix, remoteSnapDir, cut)
}

// Archive uploads segment idx. It is idempotent: if the store already
// holds a valid object for idx, the call succeeds without uploading; a
// torn or corrupt existing object is overwritten, one another version
// wrote (ErrFormat) is not — that is somebody else's history, not
// damage. Errors are returned without retrying — the caller's backoff
// owns that, and the segment stays parked in the device's pending set.
func (r *RemoteArchiver) Archive(idx int64, data []byte) error {
	if int64(len(data)) != r.segSize {
		return fmt.Errorf("logdev: remote archive segment %d: %d bytes, want %d", idx, len(data), r.segSize)
	}
	key := r.segKey(idx)
	if existing, err := r.store.Get(key); err == nil {
		kind, meta, payload, derr := DecodeObject(existing)
		if derr == nil && kind == ObjSegment && meta == uint64(idx) && int64(len(payload)) == r.segSize {
			r.count(func(s *RemoteStats) { s.UploadSkipped++ })
			return nil
		}
		if errors.Is(derr, ErrFormat) {
			return fmt.Errorf("logdev: remote archive segment %d: %w", idx, derr)
		}
		// Torn or corrupt — fall through and overwrite.
	}
	if err := r.store.Put(key, EncodeObject(ObjSegment, uint64(idx), data)); err != nil {
		return fmt.Errorf("logdev: remote archive segment %d: %w", idx, err)
	}
	r.count(func(s *RemoteStats) { s.SegmentsUploaded++ })
	return nil
}

// Retrieve returns segment idx's bytes, one download of its object.
// ErrNotArchived means the store has no valid object for idx — pruned,
// torn, or never shipped.
func (r *RemoteArchiver) Retrieve(idx int64) ([]byte, error) {
	data, err := r.store.Get(r.segKey(idx))
	if errors.Is(err, ErrObjectNotFound) {
		return nil, fmt.Errorf("%w: segment %d", ErrNotArchived, idx)
	}
	if err != nil {
		return nil, err
	}
	kind, meta, payload, derr := DecodeObject(data)
	switch {
	case derr == nil && kind == ObjSegment && meta == uint64(idx):
		return payload, nil
	case errors.Is(derr, ErrFormat):
		return nil, fmt.Errorf("logdev: segment %d: %w", idx, derr)
	}
	return nil, fmt.Errorf("%w: segment %d (torn or misplaced object)", ErrNotArchived, idx)
}

// Segments lists every archived segment index, sorted ascending.
func (r *RemoteArchiver) Segments() ([]int64, error) {
	keys, err := r.store.List(r.prefix + remoteSegDir)
	if err != nil {
		return nil, err
	}
	idxs := make([]int64, 0, len(keys))
	for _, k := range keys {
		var idx int64
		if _, err := fmt.Sscanf(strings.TrimPrefix(k, r.prefix+remoteSegDir), "%d", &idx); err == nil {
			idxs = append(idxs, idx)
		}
	}
	// Keys are fixed-width decimal, so the store's sorted listing is
	// already in index order.
	return idxs, nil
}

func (r *RemoteArchiver) count(f func(*RemoteStats)) {
	r.mu.Lock()
	f(&r.stats)
	r.mu.Unlock()
}

func errOr(err, fallback error) error {
	if err != nil {
		return err
	}
	return fallback
}

// torn reports whether err is a damaged object — a torn upload's prefix
// or corrupt bytes — which readers treat as absent, rather than a store
// failure or an object another version wrote (ErrFormat).
func torn(err error) bool {
	return errors.Is(err, ErrBadObject) && !errors.Is(err, ErrFormat)
}

// PutSnapshot uploads a materialized restore base cut at snap.Cut.
func (r *RemoteArchiver) PutSnapshot(snap *Snapshot) error {
	obj := EncodeObject(ObjSnapshot, snap.Cut, EncodeSnapshot(snap))
	if err := r.store.Put(r.snapKey(snap.Cut), obj); err != nil {
		return fmt.Errorf("logdev: upload snapshot at %d: %w", snap.Cut, err)
	}
	return nil
}

// SnapshotCuts lists the cuts of the snapshot objects, ascending. It
// reads key names only, so a torn snapshot's cut is listed too, until
// retention deletes it: NewestSnapshotAtOrBelow skips it, and
// PruneToSnapshots never makes it the floor.
func (r *RemoteArchiver) SnapshotCuts() ([]uint64, error) {
	keys, err := r.store.List(r.prefix + remoteSnapDir)
	if err != nil {
		return nil, err
	}
	cuts := make([]uint64, 0, len(keys))
	for _, k := range keys {
		var cut uint64
		if _, err := fmt.Sscanf(strings.TrimPrefix(k, r.prefix+remoteSnapDir), "%d", &cut); err == nil {
			cuts = append(cuts, cut)
		}
	}
	// Fixed-width decimal keys: the sorted listing is in cut order.
	return cuts, nil
}

// GetSnapshot downloads and decodes the snapshot cut at cut.
func (r *RemoteArchiver) GetSnapshot(cut uint64) (*Snapshot, error) {
	data, err := r.store.Get(r.snapKey(cut))
	if err != nil {
		return nil, err
	}
	kind, meta, payload, err := DecodeObject(data)
	if err != nil || kind != ObjSnapshot || meta != cut {
		return nil, fmt.Errorf("logdev: snapshot at %d: %w", cut, errOr(err, ErrBadObject))
	}
	snap, err := DecodeSnapshot(payload)
	if err != nil {
		return nil, err
	}
	if snap.Cut != cut {
		return nil, fmt.Errorf("%w: snapshot payload cut %d under key %d", ErrBadObject, snap.Cut, cut)
	}
	return snap, nil
}

// NewestSnapshotAtOrBelow returns the newest valid snapshot with
// Cut <= at, or ok=false if none exists. A torn snapshot is skipped in
// favour of the next older one.
func (r *RemoteArchiver) NewestSnapshotAtOrBelow(at uint64) (*Snapshot, bool, error) {
	cuts, err := r.SnapshotCuts()
	if err != nil {
		return nil, false, err
	}
	for i := len(cuts) - 1; i >= 0; i-- {
		if cuts[i] > at {
			continue
		}
		snap, err := r.GetSnapshot(cuts[i])
		if torn(err) {
			continue
		}
		if err != nil {
			return nil, false, err
		}
		return snap, true, nil
	}
	return nil, false, nil
}

// Floor returns the oldest restorable point in the store. It is 0 —
// every point restorable — until pruning has actually removed archived
// history: while the archived log (or none of it was archived yet) still
// reaches back to genesis, snapshots merely accelerate restores. Once
// segment 0 is gone the floor is the oldest retained snapshot's cut,
// the point that snapshot materializes (PruneToSnapshots only ever
// leaves a valid one there).
func (r *RemoteArchiver) Floor() (uint64, error) {
	cuts, err := r.SnapshotCuts()
	if err != nil {
		return 0, err
	}
	if len(cuts) == 0 {
		return 0, nil
	}
	segs, err := r.Segments()
	if err != nil {
		return 0, err
	}
	if len(segs) == 0 || segs[0] == 0 {
		return 0, nil
	}
	return cuts[0], nil
}

// PruneToSnapshots enforces retention: keep the newest `keep`
// snapshots, delete older ones, and delete the segment objects that lie
// wholly below the new floor (the oldest retained snapshot's cut). Every
// point at or above the floor stays restorable: the floor snapshot
// materializes all history below it, and the log bytes above it are
// untouched. A torn snapshot never becomes the floor: it is deleted and
// the next older cut takes its place. keep <= 0 prunes nothing.
func (r *RemoteArchiver) PruneToSnapshots(keep int) (objectsPruned, snapsPruned int, err error) {
	if keep <= 0 {
		return 0, 0, nil
	}
	cuts, err := r.SnapshotCuts()
	if err != nil {
		return 0, 0, err
	}
	for len(cuts) > keep {
		at := len(cuts) - keep
		_, err := r.GetSnapshot(cuts[at])
		if err == nil {
			break
		}
		if !torn(err) {
			return 0, snapsPruned, err
		}
		if err := r.store.Delete(r.snapKey(cuts[at])); err != nil {
			return 0, snapsPruned, err
		}
		snapsPruned++
		cuts = append(cuts[:at], cuts[at+1:]...)
	}
	if len(cuts) <= keep {
		return 0, snapsPruned, nil
	}
	floor := cuts[len(cuts)-keep]
	// Old snapshots first: once they are gone the floor is durably
	// advanced, and a crash mid-prune just leaves extra log objects.
	for _, cut := range cuts[:len(cuts)-keep] {
		if err := r.store.Delete(r.snapKey(cut)); err != nil {
			return objectsPruned, snapsPruned, err
		}
		snapsPruned++
	}
	// Segments wholly below the floor. The segment containing the floor
	// itself is kept: its tail above the cut is still live log.
	segs, err := r.Segments()
	if err != nil {
		return objectsPruned, snapsPruned, err
	}
	for _, idx := range segs {
		if uint64(idx+1)*uint64(r.segSize) > floor {
			break
		}
		if err := r.store.Delete(r.segKey(idx)); err != nil {
			return objectsPruned, snapsPruned, err
		}
		objectsPruned++
	}
	return objectsPruned, snapsPruned, nil
}
