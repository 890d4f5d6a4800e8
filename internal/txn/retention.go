// retention.go is the cloud log tier's maintenance daemon: a fourth
// background goroutine beside the checkpointer, segment archiver and
// page cleaner. Each pass it (1) compacts runs of raw per-segment
// objects in the remote store into larger immutable indexed packs,
// (2) cuts a new materialized snapshot object once enough new log has
// hardened since the last cut, and (3) enforces retention by pruning
// snapshots — and the log objects below the oldest one that remains.
//
// The retention invariant: nothing is ever pruned below the oldest
// restorable point. The floor is the oldest retained snapshot's cut;
// that snapshot materializes the replay of everything beneath it, so
// every RestoreTo target at or above the floor stays reachable, and the
// prune only ever removes objects wholly below it. With no snapshots
// (partitioned lanes, or snapshotting disabled) the floor is zero and
// the prune is a no-op — retention degrades to keep-everything, never
// to lose-something.
package txn

import (
	"fmt"

	"aether/internal/logdev"
	"aether/internal/recovery"
)

// RetentionLane couples one log's segmented device with its remote
// archiver (partitioned databases have one lane per partition).
type RetentionLane struct {
	// Dev is the lane's segmented log device.
	Dev *logdev.Segmented
	// Remote is the lane's remote archiver over the object store.
	Remote *logdev.RemoteArchiver
}

// RetentionConfig arms the cloud-tier maintenance daemon.
type RetentionConfig struct {
	// Lanes lists the log devices and their remote archivers; one lane
	// for a single log, one per partition otherwise.
	Lanes []RetentionLane
	// CompactSegments packs runs of at least this many contiguous raw
	// segment objects into one indexed pack object (default 4).
	CompactSegments int
	// MaxPackSegments caps segments per pack (default 64).
	MaxPackSegments int
	// SnapshotEveryBytes cuts a new snapshot object once this many new
	// log bytes have hardened since the last cut. 0 disables snapshots
	// (and therefore pruning). Only a single lane takes snapshots: a
	// partitioned log's pages interleave across lanes, so its floor
	// stays at zero and retention is compaction-only.
	SnapshotEveryBytes int64
	// RetainSnapshots keeps the newest N snapshots; older snapshots and
	// the log objects wholly below the oldest survivor are pruned.
	// 0 keeps every snapshot forever.
	RetainSnapshots int
}

// startRetention wires the cloud-tier maintenance daemon, nudged after
// every checkpoint (truncation is what parks segments for the archiver,
// whose uploads are what compaction feeds on).
func (e *Engine) startRetention(cfg RetentionConfig) {
	if cfg.CompactSegments <= 0 {
		cfg.CompactSegments = 4
	}
	if cfg.MaxPackSegments <= 0 {
		cfg.MaxPackSegments = 64
	}
	e.ret = startDaemon(0, func(*daemon) { e.retentionPass(cfg) })
	e.ret.nudge()
}

// retentionPass runs one compact → snapshot → prune cycle. Failures
// are counted and left for the next nudge: like the archiver, the
// daemon must never lose anything on error — a failed upload or prune
// just leaves extra objects (or a stale floor) behind.
func (e *Engine) retentionPass(cfg RetentionConfig) {
	for _, lane := range cfg.Lanes {
		if _, err := lane.Remote.CompactRaw(cfg.CompactSegments, cfg.MaxPackSegments); err != nil {
			e.stats.RetentionFailures.Inc()
		}
	}
	if len(cfg.Lanes) == 1 && cfg.SnapshotEveryBytes > 0 {
		if err := e.snapshotPass(cfg.Lanes[0], cfg.SnapshotEveryBytes); err != nil {
			e.stats.RetentionFailures.Inc()
		}
		if cfg.RetainSnapshots > 0 {
			objs, snaps, err := cfg.Lanes[0].Remote.PruneToSnapshots(cfg.RetainSnapshots)
			e.stats.RetentionPrunedObjects.Add(int64(objs + snaps))
			if err != nil {
				e.stats.RetentionFailures.Inc()
			}
		}
	}
}

// snapshotPass cuts a new snapshot object if enough log has hardened
// since the newest one, seeding the replay from that newest snapshot so
// the cost is proportional to the new suffix, not total history.
func (e *Engine) snapshotPass(lane RetentionLane, everyBytes int64) error {
	cuts, err := lane.Remote.SnapshotCuts()
	if err != nil {
		return err
	}
	var lastCut uint64
	if len(cuts) > 0 {
		lastCut = cuts[len(cuts)-1]
	}
	durable := lane.Dev.DurableSize()
	if durable-int64(lastCut) < everyBytes {
		return nil
	}
	var prev *logdev.Snapshot
	if lastCut > 0 {
		if prev, err = lane.Remote.GetSnapshot(lastCut); err != nil {
			return err
		}
	}
	data, start, err := lane.Dev.RestoreLog(lane.Remote, int64(lastCut))
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
	if err := lane.Remote.PutSnapshot(snap); err != nil {
		return err
	}
	e.stats.SnapshotsTaken.Inc()
	return nil
}
