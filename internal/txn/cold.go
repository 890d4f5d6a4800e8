// cold.go is the cold tier's one daemon, beside the checkpointer and the
// page cleaner. Each pass, nudged by every checkpoint (truncation is
// what parks dead segments, and hardened log is what a snapshot cuts),
// (1) archives every archiving lane's parked dead segments and recycles
// their slots, retrying with bounded backoff; then, on a one-lane log
// that takes snapshots, (2) cuts a new materialized snapshot object once
// enough new log has hardened since the last cut, and (3) prunes
// snapshots beyond the newest RetainSnapshots, and the segment objects
// wholly below the oldest one that remains.
//
// The retention invariant: nothing is ever pruned below the oldest
// restorable point. The floor is the oldest retained snapshot's cut;
// that snapshot materializes the replay of everything beneath it, so
// every RestoreTo target at or above the floor stays reachable, and the
// prune only ever removes objects wholly below it. Without snapshots
// (partitioned lanes, or snapshotting disabled) the pass stops after
// step 1 and the floor is zero — retention degrades to keep-everything,
// never to lose-something.
package txn

import (
	"fmt"
	"math/rand"
	"time"

	"aether/internal/logdev"
	"aether/internal/recovery"
)

// ColdConfig arms the cold-tier daemon: it runs when any lane archives.
type ColdConfig struct {
	// Lanes lists every lane's device that has a cold store attached
	// (logdev.Segmented.SetArchiver). Each pass drains their parked dead
	// segments.
	Lanes []*logdev.Segmented
	// Remote is the cold store snapshots go to. Set it only on a one-lane
	// log (Lanes[0]'s archiver): a cut is a byte offset, and N lanes'
	// pages interleave. nil takes no snapshots.
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

// startCold wires the cold-tier daemon: one archive → snapshot → prune
// pass per nudge. It runs alongside (and independently of) the
// checkpointer, so a slow cold store never stalls a checkpoint, let
// alone a commit. Failures are counted and left for the next nudge: the
// daemon must never lose anything on error — a failed upload or prune
// just leaves extra objects (or a stale floor, or segments parked on
// disk) behind. The initial nudge drains segments a previous incarnation
// left parked at the crash.
func (e *Engine) startCold(cfg ColdConfig) {
	e.cold = startDaemon(0, func(d *daemon) {
		e.archiveWithRetry(d, cfg.Lanes)
		if cfg.Remote == nil || cfg.SnapshotEveryBytes <= 0 || d.stopping() {
			return
		}
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
	})
	e.cold.nudge()
}

// Archiver backoff tuning: a failed drain retries after archBackoffMin,
// doubling (with up to 50% added jitter to spread simultaneous
// retriers) up to archBackoffMax, at most archMaxRetries times per
// pass. Variables, not constants, so tests can shrink the schedule.
var (
	archBackoffMin = 10 * time.Millisecond
	archBackoffMax = 2 * time.Second
	archMaxRetries = 8
)

// archiveWithRetry drains every lane's archive-then-recycle queue,
// absorbing transient cold-store failures with bounded exponential
// backoff + jitter instead of parking the segments until the next
// checkpoint happens to nudge again. Giving up is safe — dead segments
// stay on disk until some pass succeeds — but each retry here shortens
// the window in which a crash-plus-disk-loss could lose history.
func (e *Engine) archiveWithRetry(d *daemon, lanes []*logdev.Segmented) {
	backoff := archBackoffMin
	for attempt := 0; ; attempt++ {
		var failed error
		for _, seg := range lanes {
			n, err := seg.ArchivePending()
			e.stats.SegmentsArchived.Add(int64(n))
			if failed == nil {
				failed = err
			}
		}
		if failed == nil {
			return
		}
		e.stats.ArchiveFailures.Inc()
		if attempt >= archMaxRetries {
			e.stats.ArchiveGaveUp.Inc()
			return
		}
		e.stats.ArchiveRetries.Inc()
		if !d.sleep(backoff + time.Duration(rand.Int63n(int64(backoff/2)+1))) {
			return
		}
		if backoff *= 2; backoff > archBackoffMax {
			backoff = archBackoffMax
		}
	}
}

// snapshotPass cuts a new snapshot object if enough log has hardened
// since the newest one, seeding the replay from the newest valid
// snapshot so the cost is proportional to the new suffix, not total
// history. A torn newest snapshot only delays the next cut; the seed
// falls back past it.
func (e *Engine) snapshotPass(cfg ColdConfig) error {
	dev := cfg.Lanes[0]
	cuts, err := cfg.Remote.SnapshotCuts()
	if err != nil {
		return err
	}
	var lastCut uint64
	if len(cuts) > 0 {
		lastCut = cuts[len(cuts)-1]
	}
	if dev.DurableSize()-int64(lastCut) < cfg.SnapshotEveryBytes {
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
	data, start, err := dev.RestoreLog(cfg.Remote, int64(lastCut))
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
