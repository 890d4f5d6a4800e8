// remote.go is the cold store — the BtrLog-style archive-before-recycle
// lifecycle: a Segmented device with a RemoteArchiver attached never
// deletes a dead segment until Archive has returned for it, so the full
// log history survives below the truncation base and the hot log stays
// tiny. The archiver ships segments into an S3-style ObjectStore: a
// bucket (Options.RemoteStore) or a directory (Options.ArchiveDir, a
// DirObjectStore) — one mechanism either way. Every archived segment is
// exactly one write-once object from upload until retention deletes it.
// Beside the lanes sit the snapshots (snapshot.go), which anchor
// retention: a lane's history is pruned only below the oldest retained
// snapshot's low-water mark, keeping every later point restorable.
//
// Failure discipline: Archive never loops internally. It validates,
// uploads once, and reports errors to the caller — the engine's
// cold-tier daemon owns backoff and retry, and a failed upload leaves
// the dead segment on disk, where the next drain finds it (the slot is
// not recycled until cold storage durably holds the bytes). A torn upload
// leaves a truncated object in the store; the envelope CRC makes the
// next attempt detect it, treat the object as absent and re-upload.
package logdev

import (
	"errors"
	"fmt"
	"strings"
	"sync"
)

// Remote-tier key layout under the archiver's prefix.
const remoteSegDir = "seg/"

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
// A lane holding objects an earlier version wrote and this one does not
// read is refused with ErrFormat and left as it is: pack/ objects
// (archived segments compacted together, whose history a listing of
// seg/ alone would take for pruned) and snap/ objects (replayed
// snapshots carrying an undo stash, which anchored the old retention
// floor).
func NewRemoteArchiver(store ObjectStore, prefix string, segSize int64) (*RemoteArchiver, error) {
	if prefix != "" && !strings.HasSuffix(prefix, "/") {
		prefix += "/"
	}
	for _, old := range []struct{ dir, what string }{
		{"pack/", "compacted pack objects"},
		{"snap/", "replayed snapshot objects"},
	} {
		keys, err := store.List(prefix + old.dir)
		if err != nil {
			return nil, fmt.Errorf("logdev: cold store lane %q: %w", prefix, err)
		}
		if len(keys) > 0 {
			return nil, fmt.Errorf("%w: cold store lane %q holds %d %s (%s …) written by an earlier version, which this one does not read (nothing was changed)",
				ErrFormat, prefix, len(keys), old.what, keys[0])
		}
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

// Archive uploads segment idx. It is idempotent: if the store already
// holds a valid object for idx, the call succeeds without uploading; a
// torn or corrupt existing object is overwritten, one another version
// wrote (ErrFormat) is not — that is somebody else's history, not
// damage. Errors are returned without retrying — the caller's backoff
// owns that, and the dead segment stays on disk for the next drain.
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
