// retention.go is the cold store's maintenance daemon: a fourth
// background goroutine beside the checkpointer, segment archiver and
// page cleaner, run on a one-lane log that takes snapshots. Each pass it
// (1) cuts a new materialized snapshot object once enough new log has
// hardened since the last cut, and (2) enforces retention by pruning
// snapshots — and the segment objects below the oldest one that remains.
//
// The retention invariant: nothing is ever pruned below the oldest
// restorable point. The floor is the oldest retained snapshot's cut;
// that snapshot materializes the replay of everything beneath it, so
// every RestoreTo target at or above the floor stays reachable, and the
// prune only ever removes objects wholly below it. Without snapshots
// (partitioned lanes, or snapshotting disabled) there is no daemon and
// the floor is zero — retention degrades to keep-everything, never to
// lose-something.
package txn

import (
	"fmt"

	"aether/internal/logdev"
	"aether/internal/recovery"
)

// RetentionConfig arms the cold store's maintenance daemon on a one-lane
// log: it runs when Remote is set and SnapshotEveryBytes > 0.
type RetentionConfig struct {
	// Dev is the log's segmented device.
	Dev *logdev.Segmented
	// Remote is the log's archiver over the cold store.
	Remote *logdev.RemoteArchiver
	// SnapshotEveryBytes cuts a new snapshot object once this many new
	// log bytes have hardened since the last cut. 0 disables snapshots
	// (and therefore pruning).
	SnapshotEveryBytes int64
	// RetainSnapshots keeps the newest N snapshots; older snapshots and
	// the segment objects wholly below the oldest survivor are pruned.
	// 0 keeps every snapshot forever.
	RetainSnapshots int
}

// startRetention wires the maintenance daemon, nudged after every
// checkpoint (truncation is what parks segments for the archiver, and
// hardened log is what a snapshot cuts).
func (e *Engine) startRetention(cfg RetentionConfig) {
	e.ret = startDaemon(0, func(*daemon) { e.retentionPass(cfg) })
	e.ret.nudge()
}

// retentionPass runs one snapshot → prune cycle. Failures are counted
// and left for the next nudge: like the archiver, the daemon must never
// lose anything on error — a failed upload or prune just leaves extra
// objects (or a stale floor) behind.
func (e *Engine) retentionPass(cfg RetentionConfig) {
	if err := e.snapshotPass(cfg); err != nil {
		e.stats.RetentionFailures.Inc()
	}
	if cfg.RetainSnapshots > 0 {
		objs, snaps, err := cfg.Remote.PruneToSnapshots(cfg.RetainSnapshots)
		e.stats.RetentionPrunedObjects.Add(int64(objs + snaps))
		if err != nil {
			e.stats.RetentionFailures.Inc()
		}
	}
}

// snapshotPass cuts a new snapshot object if enough log has hardened
// since the newest one, seeding the replay from the newest valid
// snapshot so the cost is proportional to the new suffix, not total
// history. A torn newest snapshot only delays the next cut; the seed
// falls back past it.
func (e *Engine) snapshotPass(cfg RetentionConfig) error {
	cuts, err := cfg.Remote.SnapshotCuts()
	if err != nil {
		return err
	}
	var lastCut uint64
	if len(cuts) > 0 {
		lastCut = cuts[len(cuts)-1]
	}
	if cfg.Dev.DurableSize()-int64(lastCut) < cfg.SnapshotEveryBytes {
		return nil
	}
	prev, ok, err := cfg.Remote.NewestSnapshotAtOrBelow(lastCut)
	if err != nil {
		return err
	}
	lastCut = 0
	if ok {
		lastCut = prev.Cut
	}
	data, start, err := cfg.Dev.RestoreLog(cfg.Remote, int64(lastCut))
	if err != nil {
		return err
	}
	if uint64(start) > lastCut {
		return fmt.Errorf("txn: snapshot: restore reaches back to %d, need %d", start, lastCut)
	}
	data = data[lastCut-uint64(start):]
	snap, err := recovery.BuildSnapshot(prev, data, lastCut)
	if err != nil {
		return err
	}
	if err := cfg.Remote.PutSnapshot(snap); err != nil {
		return err
	}
	e.stats.SnapshotsTaken.Inc()
	return nil
}
