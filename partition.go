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
	"errors"
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
		s.SetProfile(deviceProfiles[db.opts.Device])
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
// starts: the archiver has to be in place before the first truncation,
// which would otherwise recycle dead segments unarchived, and the
// engine's cold-tier daemon drains the lanes txn.ColdConfig names at
// engine construction. A cold-store lane an earlier version compacted is
// refused (ErrFormat).
func (l *lane) attachColdStore(store logdev.ObjectStore, i, n int) error {
	remote, err := logdev.NewRemoteArchiver(store, logdev.LaneDir("", i, n), l.seg.SegmentSize())
	if err != nil {
		return fmt.Errorf("aether: cold store: %w", err)
	}
	l.remote = remote
	l.seg.SetArchiver(remote)
	return nil
}

// errHistoryGone is copyLog's refusal when neither the cold store nor
// the device holds the lane's history back to where the copy must start
// — an archive that never had it, or a prune that deleted it while the
// restore ran.
var errHistoryGone = errors.New("archive incomplete")

// copyLog writes the lane's history from offset from — a snapshot's
// low-water mark, a base the lane once had, so a batch's start — through
// stamp at — the cold store stitched to the device (Segmented.RestoreLog),
// cut and sealed as a crash at at would have left it (cutAt) — into a new
// log in dir on fs. It appends and syncs the copy a segment at a time,
// each piece ending at a seal, so the newest watermark slot covers one
// piece and the copy's open reads that back, not the whole copy.
func (l *lane) copyLog(fs vfs.FS, dir string, from int64, at uint64, lanes int) error {
	data, start, err := l.seg.RestoreLog(l.remote, from)
	if err == nil && start > from {
		err = fmt.Errorf("history reaches back to %d, need %d (%w)", start, from, errHistoryGone)
	}
	if err != nil {
		return err
	}
	size := l.seg.SegmentSize()
	kept, pieces, err := cutAt(data, uint64(from), at, lanes, size)
	if err != nil {
		return err
	}
	seg, err := logdev.CreateSegmentedAt(fs, dir, size, from)
	if err != nil {
		return err
	}
	prev := 0
	for _, end := range append(pieces, len(kept)) {
		if _, err = seg.Append(kept[prev:end]); err == nil {
			err = seg.Sync()
		}
		if err != nil {
			break
		}
		prev = end
	}
	return errors.Join(err, seg.Close())
}
