// cold.go is the cold tier's one daemon, beside the checkpointer and the
// page cleaner. Each pass, nudged by every checkpoint (truncation kills
// segments, and a sweep leaves the page file a snapshot copies),
// (1) archives every archiving lane's dead segments and recycles
// their slots, retrying with bounded backoff; then (2) snapshots the page
// file once enough new log has hardened (logdev/snapshot.go), and (3)
// prunes snapshots beyond the newest RetainSnapshots and what only they
// need.
//
// The retention invariant: nothing is ever pruned below the oldest
// restorable point, the oldest retained snapshot's restore point — that
// snapshot holds every page, and each lane's log from its low-water mark
// is kept. Without snapshots the pass stops after step 1 and the floor
// is zero: retention degrades to keep-everything, never to
// lose-something.
package txn

import (
	"cmp"
	"math/rand"
	"slices"
	"time"

	"aether/internal/logdev"
	"aether/internal/storage"
)

// ColdConfig arms the cold-tier daemon: it runs when any lane archives.
type ColdConfig struct {
	// Lanes lists every lane's device that has a cold store attached
	// (logdev.Segmented.SetArchiver). Each pass drains their dead
	// segments (logdev.Segmented.ArchivePending).
	Lanes []*logdev.Segmented
	// Snapshots is where snapshots of all the Lanes go; nil takes none.
	Snapshots *logdev.SnapshotStore
	// Pages is the page file a snapshot copies.
	Pages *storage.PageFile
	// SnapshotEveryBytes takes a new snapshot once this many new log
	// bytes (all lanes) have hardened since the last one; 0 takes none.
	SnapshotEveryBytes int64
	// RetainSnapshots keeps the newest N snapshots; older ones, and what
	// only they need, are pruned. 0 keeps every snapshot forever.
	RetainSnapshots int
}

// startCold wires the cold-tier daemon: one archive → snapshot → prune
// pass per nudge. It runs alongside (and independently of) the
// checkpointer, so a slow cold store never stalls a checkpoint, let
// alone a commit. Failures are counted and left for the next nudge: the
// daemon must never lose anything on error — a failed upload or prune
// just leaves extra objects (or a stale floor, or dead segments on disk)
// behind. The initial nudge drains dead segments a previous incarnation
// left on disk at the crash.
func (e *Engine) startCold(cfg ColdConfig) {
	e.cold = startDaemon(0, func(d *daemon) {
		e.archiveWithRetry(d, cfg.Lanes)
		if cfg.Snapshots == nil || cfg.SnapshotEveryBytes <= 0 || d.stopping() {
			return
		}
		if err := e.snapshotPass(cfg); err != nil {
			e.stats.RetentionFailures.Inc()
		}
		if cfg.RetainSnapshots > 0 {
			objs, manifests, err := cfg.Snapshots.Prune(cfg.RetainSnapshots)
			e.stats.RetentionPrunedObjects.Add(int64(objs + manifests))
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
// backoff + jitter instead of leaving the segments on disk until the next
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

// snapshotPass takes a snapshot of the page file as the newest
// checkpoint's sweep left it, once SnapshotEveryBytes of log have
// hardened since the newest snapshot. Only images whose page-file version
// differs from that snapshot's are copied and uploaded: a snapshot costs
// what changed, not the database's size. A torn newest snapshot only
// makes the next one copy more; the comparison falls back past it.
func (e *Engine) snapshotPass(cfg ColdConfig) error {
	mark := e.lastCkpt.Load()
	if mark == nil {
		return nil // no checkpoint in this incarnation yet
	}
	prev, err := cfg.Snapshots.NewestAtOrBelow(^uint64(0))
	if err != nil {
		return err
	}
	if prev == nil {
		prev = &logdev.Manifest{Lanes: make([]logdev.ManifestLane, len(cfg.Lanes))}
	}
	grown := -cfg.SnapshotEveryBytes
	for i, seg := range cfg.Lanes {
		grown += seg.DurableSize() - int64(prev.Lanes[i].End)
	}
	if grown < 0 {
		return nil
	}
	// The restore point must cover the checkpoint's end record on every
	// lane count: on N lanes it is durable on lane 0 before the global
	// durable stamp need reach it.
	if err := e.log.Force(mark.end); err != nil {
		return err
	}
	m := &logdev.Manifest{Checkpoint: uint64(mark.begin), Lanes: make([]logdev.ManifestLane, len(cfg.Lanes))}
	var changed []logdev.PageImage
	err = cfg.Pages.HoldBatches(func() error {
		// Every image in the file was written at or below the durable
		// stamp (WAL), and none can change until the copy is done.
		m.At = uint64(e.log.Durable())
		for i, seg := range cfg.Lanes {
			m.Lanes[i] = logdev.ManifestLane{LowWater: mark.lowWater[i], End: uint64(seg.DurableSize())}
		}
		slots := cfg.Pages.Slots()
		slices.SortFunc(slots, func(a, b storage.SlotInfo) int { return cmp.Compare(a.PageID, b.PageID) })
		old := prev.Pages
		for _, sl := range slots {
			for len(old) > 0 && old[0].PID < sl.PageID {
				old = old[1:]
			}
			if len(old) > 0 && old[0].PID == sl.PageID && old[0].Version == sl.Version {
				m.Pages = append(m.Pages, old[0])
				continue
			}
			img, err := cfg.Pages.Get(sl.PageID)
			if err != nil {
				return err
			}
			m.Pages = append(m.Pages, logdev.ManifestPage{PID: sl.PageID, Version: sl.Version})
			changed = append(changed, logdev.PageImage{PID: sl.PageID, Image: img})
		}
		return nil
	})
	if err != nil || m.At <= prev.At {
		return err
	}
	if err := cfg.Snapshots.Put(m, changed); err != nil {
		return err
	}
	e.stats.SnapshotsTaken.Inc()
	return nil
}
