// partition.go is the database's log lanes. Options.LogPartitions = N
// shards the write-ahead log across N independent logdev.Segmented
// devices (a directory each under Options.LogPath, or under an in-memory
// database's own filesystem) — one flush
// daemon, group-commit stream, durable watermark and archiver lane each
// — behind one core.MultiLog; 0 and 1 are the same engine with one lane,
// where the coordinator stamps with byte LSNs and coordinates nothing.
// Over N >= 2 lanes it stamps every record with a global sequence number
// and physically enforces inter-log flush dependencies (paper Appendix
// A.5). Open, Close, Crash, Stats and RestoreTo iterate the lanes; the
// only thing that differs on disk is where a lane keeps its files
// (logdev.LaneDir).
package aether

import (
	"fmt"

	"aether/internal/logdev"
	"aether/internal/vfs"
)

// lane is one log lane: its device and the cold store attached to it.
type lane struct {
	seg    *logdev.Segmented
	remote *logdev.RemoteArchiver // the cold store; non-nil with Options.ArchiveDir or RemoteStore
}

// openLane opens lane i of n's log device: a segmented directory under
// the database's root, on disk or on an in-memory database's own
// filesystem, where it carries Options.Device's latency profile. A
// SegmentSize of 0 adopts the directory's MANIFEST on reopen and is
// logdev.DefaultSegmentSize for a new log.
func (db *DB) openLane(i, n int) (lane, error) {
	size := max(db.opts.SegmentSize, 0)
	dir := logdev.LaneDir(db.root, i, n)
	if size == 0 && !logdev.HasManifest(db.fs, dir) {
		size = logdev.DefaultSegmentSize
	}
	s, err := logdev.OpenSegmentedDirFS(db.fs, dir, size)
	if err != nil {
		return lane{}, fmt.Errorf("aether: log lane %d: %w", i, err)
	}
	if db.mem != nil {
		s.SetProfile(db.opts.Device.internal())
	}
	return lane{seg: s}, nil
}

// openColdStore resolves the two spellings of the cold store to the
// one mechanism: Options.RemoteStore is an object store already,
// Options.ArchiveDir names a directory to keep one in — on fs, the real
// (or injected) filesystem even for an in-memory database, which is why
// it stays a path. nil when neither is set.
func openColdStore(opts Options, fs vfs.FS) (logdev.ObjectStore, error) {
	if opts.ArchiveDir == "" {
		return opts.RemoteStore, nil
	}
	store, err := logdev.NewDirObjectStoreFS(fs, opts.ArchiveDir)
	if err != nil {
		return nil, fmt.Errorf("aether: archive directory: %w", err)
	}
	return store, nil
}

// attachColdStore gives lane i of n its own lane of the cold store — a
// key prefix (a subdirectory, under Options.ArchiveDir), so a slow lane
// never blocks the others' truncation. It must run before the engine
// starts: the archiver has to be in place before the first truncation
// parks a dead segment, and the engine only starts its background
// archiver goroutine if the log can archive at engine construction. A
// cold-store lane an earlier version compacted is refused (ErrFormat).
func (l *lane) attachColdStore(store logdev.ObjectStore, i, n int) error {
	remote, err := logdev.NewRemoteArchiver(store, logdev.LaneDir("", i, n), l.seg.SegmentSize())
	if err != nil {
		return fmt.Errorf("aether: cold store: %w", err)
	}
	l.remote = remote
	l.seg.SetArchiver(remote)
	return nil
}

// restore reads the lane's log from logical offset from through the
// durable end, stitching archived history below the device's base —
// restored on demand from the lane's cold store — to the live tail. The
// second result is the offset the first returned byte sits at: from
// itself when the cold store and the device cover it contiguously, else
// the truncation base (history the cold store cannot reach would begin
// mid-record at a segment boundary, so it is withheld rather than
// returned unparseable).
func (l *lane) restore(from int64) ([]byte, int64, error) {
	data, start, err := l.seg.RestoreLog(l.remote, from)
	if err != nil {
		return nil, 0, fmt.Errorf("aether: restoring log: %w", err)
	}
	return data, start, nil
}
