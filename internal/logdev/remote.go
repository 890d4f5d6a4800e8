// remote.go is the cold store — the BtrLog-style archive-before-recycle
// lifecycle: a Segmented device with a RemoteArchiver attached never
// deletes a dead segment until Archive has returned for it, so the full
// log history survives below the truncation base and the hot log stays
// tiny. The archiver ships segments into an S3-style ObjectStore: a
// bucket (Options.RemoteStore) or a directory (Options.ArchiveDir, a
// DirObjectStore) — one mechanism either way. On top of raw per-segment
// objects it adds background compaction (contiguous raw segments merged
// into one immutable indexed pack) and snapshot-anchored retention
// (history is pruned only below the oldest materialized restore base,
// keeping every later point restorable).
//
// Failure discipline: Archive never loops internally. It validates,
// uploads once, and reports errors to the caller — the engine's
// archiver daemon owns backoff and retry, and a failed upload leaves
// the segment parked in the device's pending set (the slot is not
// recycled until cold storage durably holds the bytes). A torn upload
// leaves a truncated object in the store; the envelope CRC makes the
// next attempt detect it, treat the object as absent and re-upload.
package logdev

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Remote-tier key layout under the archiver's prefix.
const (
	remoteSegDir  = "seg/"
	remotePackDir = "pack/"
	remoteSnapDir = "snap/"
)

// RemoteArchiver ships log segments to an ObjectStore: the one cold
// store Segmented.SetArchiver attaches and the engine's archiver daemon
// drains into. Archive is durable before it returns (the segment file is
// unlinked right after) and idempotent (a crash between Archive and the
// recycle re-archives the same segment on the next pass).
type RemoteArchiver struct {
	store   ObjectStore
	prefix  string
	segSize int64

	mu sync.Mutex
	// packed caches segment idx -> pack key for Retrieve; rebuilt from
	// a listing when a lookup misses.
	packed map[int64]string

	stats RemoteStats
}

// RemoteStats counts remote-tier operations beyond the raw store
// traffic: compaction and retention outcomes.
type RemoteStats struct {
	// SegmentsUploaded counts raw segment objects durably uploaded.
	SegmentsUploaded int64
	// UploadSkipped counts Archive calls satisfied by an existing valid
	// object (idempotent re-ship after a crash or torn upload).
	UploadSkipped int64
	// PacksBuilt counts compaction runs that produced a pack object.
	PacksBuilt int64
	// SegmentsPacked counts raw segments folded into packs.
	SegmentsPacked int64
	// SnapshotsPut counts snapshot objects uploaded.
	SnapshotsPut int64
	// SnapshotsPruned counts snapshot objects deleted by retention.
	SnapshotsPruned int64
	// ObjectsPruned counts raw-segment and pack objects deleted by
	// retention.
	ObjectsPruned int64
}

// NewRemoteArchiver returns a RemoteArchiver over store. prefix
// namespaces this log's objects (partition lanes use "p0/", "p1/", …;
// a single log uses ""). segSize must match the segmented device.
func NewRemoteArchiver(store ObjectStore, prefix string, segSize int64) *RemoteArchiver {
	if prefix != "" && !strings.HasSuffix(prefix, "/") {
		prefix += "/"
	}
	return &RemoteArchiver{store: store, prefix: prefix, segSize: segSize, packed: make(map[int64]string)}
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

func (r *RemoteArchiver) packKey(first, last int64) string {
	return fmt.Sprintf("%s%s%016d-%016d", r.prefix, remotePackDir, first, last)
}

func (r *RemoteArchiver) snapKey(cut uint64) string {
	return fmt.Sprintf("%s%s%020d", r.prefix, remoteSnapDir, cut)
}

// Archive uploads segment idx. It is idempotent: if the store already
// holds a valid object for idx (raw or packed), the call succeeds
// without uploading; a torn or corrupt existing object is overwritten,
// one another version wrote (ErrFormat) is not — that is somebody else's
// history, not damage. Errors are returned without retrying — the
// caller's backoff owns that, and the segment stays parked in the
// device's pending set.
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
	if _, ok := r.lookupPack(idx); ok {
		r.count(func(s *RemoteStats) { s.UploadSkipped++ })
		return nil
	}
	if err := r.store.Put(key, EncodeObject(ObjSegment, uint64(idx), data)); err != nil {
		return fmt.Errorf("logdev: remote archive segment %d: %w", idx, err)
	}
	r.count(func(s *RemoteStats) { s.SegmentsUploaded++ })
	return nil
}

// Retrieve returns segment idx's bytes from a raw object or, after
// compaction, from the pack that holds it. ErrNotArchived means the
// store has no (valid) object for idx — pruned, torn, or never shipped.
func (r *RemoteArchiver) Retrieve(idx int64) ([]byte, error) {
	if data, err := r.store.Get(r.segKey(idx)); err == nil {
		kind, meta, payload, derr := DecodeObject(data)
		if derr == nil && kind == ObjSegment && meta == uint64(idx) {
			return append([]byte(nil), payload...), nil
		}
		if errors.Is(derr, ErrFormat) {
			return nil, fmt.Errorf("logdev: segment %d: %w", idx, derr)
		}
		// Torn raw object: a pack may still hold the real bytes.
	} else if !errors.Is(err, ErrObjectNotFound) {
		return nil, err
	}
	seg, ok, err := r.retrieveFromPack(idx)
	if err != nil {
		return nil, err
	}
	if ok {
		return seg, nil
	}
	return nil, fmt.Errorf("%w: segment %d", ErrNotArchived, idx)
}

// Segments lists every archived segment index — raw objects and pack
// contents — sorted ascending.
func (r *RemoteArchiver) Segments() ([]int64, error) {
	keys, err := r.store.List(r.prefix + remoteSegDir)
	if err != nil {
		return nil, err
	}
	seen := make(map[int64]bool)
	for _, k := range keys {
		var idx int64
		if _, err := fmt.Sscanf(strings.TrimPrefix(k, r.prefix+remoteSegDir), "%d", &idx); err == nil {
			seen[idx] = true
		}
	}
	packs, err := r.listPacks()
	if err != nil {
		return nil, err
	}
	for _, p := range packs {
		for i := p.first; i <= p.last; i++ {
			seen[i] = true
		}
	}
	idxs := make([]int64, 0, len(seen))
	for i := range seen {
		idxs = append(idxs, i)
	}
	sort.Slice(idxs, func(a, b int) bool { return idxs[a] < idxs[b] })
	return idxs, nil
}

func (r *RemoteArchiver) count(f func(*RemoteStats)) {
	r.mu.Lock()
	f(&r.stats)
	r.mu.Unlock()
}

type packRef struct {
	key         string
	first, last int64
}

// listPacks parses the pack directory listing into refs sorted by
// first segment.
func (r *RemoteArchiver) listPacks() ([]packRef, error) {
	keys, err := r.store.List(r.prefix + remotePackDir)
	if err != nil {
		return nil, err
	}
	packs := make([]packRef, 0, len(keys))
	for _, k := range keys {
		var first, last int64
		name := strings.TrimPrefix(k, r.prefix+remotePackDir)
		if _, err := fmt.Sscanf(name, "%d-%d", &first, &last); err == nil && first <= last {
			packs = append(packs, packRef{key: k, first: first, last: last})
		}
	}
	sort.Slice(packs, func(a, b int) bool { return packs[a].first < packs[b].first })
	return packs, nil
}

// lookupPack reports whether idx is covered by a pack, refreshing the
// cached pack directory on a miss.
func (r *RemoteArchiver) lookupPack(idx int64) (string, bool) {
	r.mu.Lock()
	key, ok := r.packed[idx]
	r.mu.Unlock()
	if ok {
		return key, true
	}
	packs, err := r.listPacks()
	if err != nil {
		return "", false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, p := range packs {
		for i := p.first; i <= p.last; i++ {
			r.packed[i] = p.key
		}
	}
	key, ok = r.packed[idx]
	return key, ok
}

// retrieveFromPack fetches idx out of its pack, validating the pack
// envelope, index and per-segment CRC.
func (r *RemoteArchiver) retrieveFromPack(idx int64) ([]byte, bool, error) {
	key, ok := r.lookupPack(idx)
	if !ok {
		return nil, false, nil
	}
	data, err := r.store.Get(key)
	if err != nil {
		if errors.Is(err, ErrObjectNotFound) {
			// Pruned or racing compaction; drop the stale cache entry.
			r.mu.Lock()
			delete(r.packed, idx)
			r.mu.Unlock()
			return nil, false, nil
		}
		return nil, false, err
	}
	kind, _, payload, err := DecodeObject(data)
	if err != nil || kind != ObjPack {
		return nil, false, fmt.Errorf("logdev: pack %s: %w", key, errOr(err, ErrBadObject))
	}
	entries, err := DecodePackIndex(payload)
	if err != nil {
		return nil, false, fmt.Errorf("logdev: pack %s: %w", key, err)
	}
	for i, e := range entries {
		if e.Idx == idx {
			seg, err := PackSegment(payload, entries, i)
			if err != nil {
				return nil, false, err
			}
			return append([]byte(nil), seg...), true, nil
		}
	}
	return nil, false, nil
}

func errOr(err, fallback error) error {
	if err != nil {
		return err
	}
	return fallback
}

// CompactRaw folds runs of contiguous raw segment objects into packs.
// Only runs of at least minSegs segments are packed, and at most
// maxSegs per pack. The pack object is uploaded before the raw objects
// are deleted, so a crash or failed delete between the two leaves
// harmless duplicates (Retrieve prefers the raw object; Archive skips
// both). Returns the number of segments packed.
func (r *RemoteArchiver) CompactRaw(minSegs, maxSegs int) (int, error) {
	if minSegs < 2 {
		minSegs = 2
	}
	if maxSegs < minSegs {
		maxSegs = minSegs
	}
	keys, err := r.store.List(r.prefix + remoteSegDir)
	if err != nil {
		return 0, err
	}
	var idxs []int64
	for _, k := range keys {
		var idx int64
		if _, err := fmt.Sscanf(strings.TrimPrefix(k, r.prefix+remoteSegDir), "%d", &idx); err == nil {
			idxs = append(idxs, idx)
		}
	}
	sort.Slice(idxs, func(a, b int) bool { return idxs[a] < idxs[b] })
	packedTotal := 0
	for start := 0; start < len(idxs); {
		end := start + 1
		for end < len(idxs) && idxs[end] == idxs[end-1]+1 && end-start < maxSegs {
			end++
		}
		if end-start < minSegs {
			start = end
			continue
		}
		n, err := r.packRun(idxs[start:end])
		packedTotal += n
		if err != nil {
			return packedTotal, err
		}
		start = end
	}
	return packedTotal, nil
}

// packRun uploads one pack for the given contiguous raw segment
// indexes, then deletes the raw objects.
func (r *RemoteArchiver) packRun(run []int64) (int, error) {
	segs := make([][]byte, 0, len(run))
	for _, idx := range run {
		data, err := r.store.Get(r.segKey(idx))
		if err != nil {
			return 0, fmt.Errorf("logdev: compact: read segment %d: %w", idx, err)
		}
		kind, meta, payload, derr := DecodeObject(data)
		if derr != nil || kind != ObjSegment || meta != uint64(idx) {
			// A torn raw object is not durably archived; it must not be
			// folded into an immutable pack. Skip the whole run — the
			// archiver daemon will re-ship it first.
			return 0, fmt.Errorf("logdev: compact: segment %d invalid in store: %w", idx, errOr(derr, ErrBadObject))
		}
		segs = append(segs, payload)
	}
	first, last := run[0], run[len(run)-1]
	pack := EncodeObject(ObjPack, uint64(first), EncodePack(first, segs))
	key := r.packKey(first, last)
	if err := r.store.Put(key, pack); err != nil {
		return 0, fmt.Errorf("logdev: compact: upload pack %s: %w", key, err)
	}
	r.mu.Lock()
	for _, idx := range run {
		r.packed[idx] = key
	}
	r.stats.PacksBuilt++
	r.stats.SegmentsPacked += int64(len(run))
	r.mu.Unlock()
	for _, idx := range run {
		if err := r.store.Delete(r.segKey(idx)); err != nil {
			return len(run), err
		}
	}
	return len(run), nil
}

// PutSnapshot uploads a materialized restore base cut at snap.Cut.
func (r *RemoteArchiver) PutSnapshot(snap *Snapshot) error {
	obj := EncodeObject(ObjSnapshot, snap.Cut, EncodeSnapshot(snap))
	if err := r.store.Put(r.snapKey(snap.Cut), obj); err != nil {
		return fmt.Errorf("logdev: upload snapshot at %d: %w", snap.Cut, err)
	}
	r.count(func(s *RemoteStats) { s.SnapshotsPut++ })
	return nil
}

// SnapshotCuts lists the cuts of all valid-looking snapshot objects,
// ascending. Torn snapshot objects (detected on Get) are skipped.
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
	sort.Slice(cuts, func(a, b int) bool { return cuts[a] < cuts[b] })
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

// NewestSnapshotAtOrBelow returns the newest snapshot with Cut <= at,
// or ok=false if none exists.
func (r *RemoteArchiver) NewestSnapshotAtOrBelow(at uint64) (*Snapshot, bool, error) {
	cuts, err := r.SnapshotCuts()
	if err != nil {
		return nil, false, err
	}
	for i := len(cuts) - 1; i >= 0; i-- {
		if cuts[i] <= at {
			snap, err := r.GetSnapshot(cuts[i])
			if err != nil {
				return nil, false, err
			}
			return snap, true, nil
		}
	}
	return nil, false, nil
}

// Floor returns the oldest restorable point in the store. It is 0 —
// every point restorable — until pruning has actually removed raw
// history: while the raw log (or none of it was archived yet) still
// reaches back to genesis, snapshots merely accelerate restores. Once
// segment 0 is gone the floor is the oldest retained snapshot's cut,
// the point that snapshot materializes.
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
// snapshots, delete older ones, and delete raw segments and packs that
// lie wholly below the new floor (the oldest retained snapshot's cut).
// Every point at or above the floor stays restorable: the floor
// snapshot materializes all history below it, and the log bytes above
// it are untouched. keep <= 0 prunes nothing.
func (r *RemoteArchiver) PruneToSnapshots(keep int) (objectsPruned, snapsPruned int, err error) {
	if keep <= 0 {
		return 0, 0, nil
	}
	cuts, err := r.SnapshotCuts()
	if err != nil {
		return 0, 0, err
	}
	if len(cuts) <= keep {
		return 0, 0, nil
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
	// Raw segments wholly below the floor. The segment containing the
	// floor itself is kept: its tail above the cut is still live log.
	keys, err := r.store.List(r.prefix + remoteSegDir)
	if err != nil {
		return objectsPruned, snapsPruned, err
	}
	for _, k := range keys {
		var idx int64
		if _, serr := fmt.Sscanf(strings.TrimPrefix(k, r.prefix+remoteSegDir), "%d", &idx); serr != nil {
			continue
		}
		if uint64(idx+1)*uint64(r.segSize) <= floor {
			if err := r.store.Delete(k); err != nil {
				return objectsPruned, snapsPruned, err
			}
			objectsPruned++
		}
	}
	// Packs whose entire range is below the floor.
	packs, err := r.listPacks()
	if err != nil {
		return objectsPruned, snapsPruned, err
	}
	r.mu.Lock()
	for _, p := range packs {
		if uint64(p.last+1)*uint64(r.segSize) <= floor {
			if err := r.store.Delete(p.key); err != nil {
				r.mu.Unlock()
				return objectsPruned, snapsPruned, err
			}
			for i := p.first; i <= p.last; i++ {
				delete(r.packed, i)
			}
			objectsPruned++
		}
	}
	r.stats.SnapshotsPruned += int64(snapsPruned)
	r.stats.ObjectsPruned += int64(objectsPruned)
	r.mu.Unlock()
	return objectsPruned, snapsPruned, nil
}
