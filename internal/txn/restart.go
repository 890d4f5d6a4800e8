package txn

import (
	"fmt"

	"aether/internal/core"
	"aether/internal/lockmgr"
	"aether/internal/logdev"
	"aether/internal/lsn"
	"aether/internal/recovery"
	"aether/internal/storage"
)

// RestartConfig describes a database's durable state (log devices +
// page archive) and the engine to run over it.
type RestartConfig struct {
	// Device is the one-lane spelling of Devices (ignored when Devices
	// is set).
	Device logdev.Device
	// Devices holds the durable log, one device per lane in lane order.
	// Recovery reads the lanes' tails in the total order and the engine
	// runs over one core.MultiLog of as many lanes.
	Devices []logdev.Device
	// RoutePartition picks a transaction's home lane from its ID and the
	// page space of its first logged update, modulo the lane count. Nil
	// means the page space. Must be pure and goroutine-safe.
	RoutePartition func(txnID uint64, space uint32) int
	// Archive is the page archive (database file). Nil gives the engine
	// an empty in-memory one (storage.NewMemArchive) that lives as long
	// as the engine: without a log that covers every page, a second
	// Restart over the same devices cannot rebuild what it held.
	Archive storage.Archive
	// LogConfig configures every lane's log manager (core.NewMultiLog
	// sets each lane's Device and Buffer.Base).
	LogConfig core.Config
	// LockConfig configures the lock manager.
	LockConfig lockmgr.Config
	// CheckpointEveryBytes, if > 0, starts the background checkpointer:
	// a fuzzy checkpoint (sweep, truncation and all) each time roughly
	// this many bytes have been appended to the log.
	CheckpointEveryBytes int64
	// CachePages, if > 0, bounds the page store to at most this many
	// resident pages: pages beyond the budget fault in from Archive on
	// demand and are evicted (dirty ones stolen back through the
	// archive after the log is forced) to make room. 0 keeps every page
	// resident.
	CachePages int64
	// CleanerPages, if > 0, starts the background page cleaner: it
	// writes dirty, unpinned, cold pages back to the archive in batches
	// whenever fewer than this many frames are free or clean, so faults
	// find clean victims. Meaningful only with CachePages set.
	CleanerPages int
	// PrefetchDepth, if > 0, enables sequential read-ahead: when faults
	// form a sequential run, up to this many pages are read from the
	// archive ahead of demand. It is armed before recovery runs, so redo
	// and the RebuildTables scan both stream their faults.
	PrefetchDepth int
	// Cold, with any archiving lane, starts the cold-tier daemon
	// (archiving, snapshots and pruning; cold.go).
	Cold ColdConfig
	// Checkpoint, if set, names where analysis starts instead of the last
	// checkpoint (recovery.Analyze): a restore's snapshot's checkpoint,
	// or lsn.Undefined for genesis.
	Checkpoint *lsn.LSN
}

// Restart is the one way to build an engine, a fresh one included (its
// devices are empty): read the durable log, attach the archive as the
// page store's demand-paging backend, open the log (core.NewMultiLog),
// run ARIES analysis/redo/undo (logging CLRs into it), and hand back the
// engine. Redo faults exactly the pages it touches, so restart memory is
// O(working set), not O(database). The caller must re-create its tables
// in the original order and then call RebuildTables.
func Restart(cfg RestartConfig) (*Engine, *recovery.Result, error) {
	devs := cfg.Devices
	if len(devs) == 0 {
		devs = []logdev.Device{cfg.Device}
	}
	// Read only the live tails: a truncated device recycled everything
	// below its base, and recovery is O(log-since-checkpoint) because of
	// it. LSNs are stable, so each lane resumes at base+len(tail).
	lanes := make([]recovery.Lane, len(devs))
	for i, dev := range devs {
		logData, base, err := logdev.ReadTail(dev)
		if err != nil {
			return nil, nil, fmt.Errorf("txn: reading log lane %d: %w", i, err)
		}
		lanes[i] = recovery.Lane{Log: logData, Base: lsn.LSN(base)}
	}
	if cfg.Archive == nil {
		cfg.Archive = storage.NewMemArchive()
	}
	store := storage.NewStore()
	if err := store.SetBackend(cfg.Archive); err != nil {
		return nil, nil, fmt.Errorf("txn: attaching archive: %w", err)
	}
	if cfg.CachePages > 0 {
		store.SetCachePages(cfg.CachePages)
	}
	if cfg.PrefetchDepth > 0 {
		// Armed before recovery: redo's faults and the post-recovery
		// RebuildTables walk are the most sequential access patterns the
		// pool ever sees — exactly what read-ahead is for.
		store.SetPrefetch(cfg.PrefetchDepth)
	}
	// Analysis reads the tails only; the log is then opened at the
	// sequence number they end at, so that redo's faults are checked
	// against, and undo's CLRs stamped above, everything on disk.
	an, err := recovery.Analyze(lanes, cfg.Checkpoint)
	if err != nil {
		return nil, nil, err
	}
	ml, err := core.NewMultiLog(cfg.LogConfig, devs, an.LastSeq())
	if err != nil {
		return nil, nil, fmt.Errorf("txn: %w", err)
	}
	// Each lane resumes at its device's durable size, which must be where
	// recovery's tail ended, or new LSNs would not be where records land.
	for i, l := range lanes {
		if got, want := ml.Part(i).AppendEnd(), l.Base.Add(len(l.Log)); got != want {
			ml.Close()
			return nil, nil, fmt.Errorf("txn: log lane %d resumes at %v, but its recovered tail ends at %v", i, got, want)
		}
	}
	// The WAL hook must be in place before recovery faults its first
	// page: faulted images are verified against the durable horizon, and
	// any eviction during redo may need to steal through it.
	store.AttachWAL(ml)
	res, err := an.Recover(store, ml.NewAppender())
	if err != nil {
		ml.Close()
		return nil, nil, err
	}
	// Recovery's CLRs and end records must be durable before new work
	// starts, or a second crash could strand a half-undone loser whose
	// compensation vanished.
	if err := ml.FlushAll(); err != nil {
		ml.Close()
		return nil, nil, fmt.Errorf("txn: flushing recovery log: %w", err)
	}
	eng := newEngine(cfg, ml, store)
	// Transaction IDs continue above every ID recovery's analysis saw
	// (see recovery.Result.MaxTxnID).
	eng.nextTxn.Store(res.MaxTxnID)
	return eng, res, nil
}
