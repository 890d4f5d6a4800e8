package txn

import (
	"fmt"
	"time"

	"aether/internal/core"
	"aether/internal/lockmgr"
	"aether/internal/logdev"
	"aether/internal/lsn"
	"aether/internal/recovery"
	"aether/internal/storage"
)

// RestartConfig describes how to bring a database back from its durable
// state (log device + optional page archive).
type RestartConfig struct {
	// Device is the log device holding the durable log (single-log
	// mode; ignored when Devices is set).
	Device logdev.Device
	// Devices, if it holds two or more devices, restarts the database
	// in partitioned (multi-log) mode: one device per log partition, in
	// partition order. Recovery merges the partitions' tails by global
	// seq and the engine runs over a core.MultiLog.
	Devices []logdev.Device
	// RoutePartition overrides the multi-log home-partition routing
	// (see Config.Route). Nil defaults to page space modulo partition
	// count.
	RoutePartition func(txnID uint64, space uint32) int
	// Archive is the page archive (database file); may be nil.
	Archive storage.Archive
	// LogConfig configures the new log manager. Device and Buffer.Base
	// are set by Restart.
	LogConfig core.Config
	// LockConfig configures the new lock manager.
	LockConfig lockmgr.Config
	// CheckpointEveryBytes enables the engine's background incremental
	// checkpointer (see txn.Config.CheckpointEveryBytes).
	CheckpointEveryBytes int64
	// CachePages, if > 0, bounds the page store to at most this many
	// resident pages: pages beyond the budget fault in from Archive on
	// demand and are evicted (dirty ones stolen back through the
	// archive after the log is forced) to make room. 0 keeps the
	// original fully memory-resident behavior. Requires Archive.
	CachePages int64
	// CleanerPages enables the engine's background page cleaner (see
	// txn.Config.CleanerPages). Meaningful only with CachePages set.
	CleanerPages int
	// CleanerInterval is the cleaner's polling cadence (see
	// txn.Config.CleanerInterval).
	CleanerInterval time.Duration
	// PrefetchDepth enables sequential read-ahead in the buffer pool (see
	// txn.Config.PrefetchDepth). It is armed before recovery runs, so a
	// redo pass walking pages in log order and the RebuildTables scan both
	// stream their faults. Meaningful only with Archive set.
	PrefetchDepth int
	// Retention arms the cloud-tier maintenance daemon (see
	// txn.Config.Retention). Meaningful only when the log devices
	// archive into a remote object store.
	Retention RetentionConfig
}

// Restart performs crash recovery and returns a ready engine: read the
// durable log, attach the archive as the page store's demand-paging
// backend, run ARIES analysis/redo/undo (logging CLRs into the restarted
// log), and hand back the engine. Pages are no longer loaded eagerly at
// open — redo faults exactly the pages it touches, so restart memory is
// O(working set), not O(database). The caller must re-create its tables
// in the original order and then call RebuildTables.
func Restart(cfg RestartConfig) (*Engine, *recovery.Result, error) {
	if len(cfg.Devices) >= 2 {
		return restartMulti(cfg)
	}
	// Read only the live tail: a truncated device recycled everything
	// below its base, and recovery is O(log-since-checkpoint) because of
	// it. LSNs are stable, so the new buffer resumes at base+len(tail).
	logData, base, err := logdev.ReadTail(cfg.Device)
	if err != nil {
		return nil, nil, fmt.Errorf("txn: reading log: %w", err)
	}
	store := storage.NewStore()
	if cfg.Archive != nil {
		if err := store.SetBackend(cfg.Archive); err != nil {
			return nil, nil, fmt.Errorf("txn: attaching archive: %w", err)
		}
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
	lcfg := cfg.LogConfig
	lcfg.Device = cfg.Device
	lcfg.Buffer.Base = lsn.LSN(base).Add(len(logData))
	lm, err := core.New(lcfg)
	if err != nil {
		return nil, nil, err
	}
	// The WAL hook must be in place before recovery faults its first
	// page: faulted images are verified against the durable horizon, and
	// any eviction during redo may need to steal through it.
	store.AttachWAL(lm)
	res, err := recovery.Recover(recovery.Options{
		Log:      logData,
		Base:     lsn.LSN(base),
		Store:    store,
		Appender: lm.NewAppender(),
		// Pages reaching the store through the archive are verified at
		// fault time against the durable horizon; this flag covers any
		// page already resident when recovery starts.
		VerifyArchive: cfg.Archive != nil,
	})
	if err != nil {
		lm.Close()
		return nil, nil, err
	}
	// Recovery's CLRs and end records must be durable before new work
	// starts, or a second crash could strand a half-undone loser whose
	// compensation vanished.
	lm.Flush()
	eng, err := NewEngine(Config{
		Log:                  lm,
		Locks:                lockmgr.New(cfg.LockConfig),
		Store:                store,
		Archive:              cfg.Archive,
		CheckpointEveryBytes: cfg.CheckpointEveryBytes,
		CleanerPages:         cfg.CleanerPages,
		CleanerInterval:      cfg.CleanerInterval,
		PrefetchDepth:        cfg.PrefetchDepth,
		Retention:            cfg.Retention,
	})
	if err != nil {
		lm.Close()
		return nil, nil, err
	}
	// Transaction IDs continue above every ID recovery's analysis saw
	// (see recovery.Result.MaxTxnID).
	eng.nextTxn.Store(res.MaxTxnID)
	return eng, res, nil
}

// restartMulti is Restart for a partitioned log: read every partition's
// durable tail, seed the global sequence counter from the largest stamp
// on disk, build one LogManager per device under a MultiLog
// coordinator, and run the merged-order recovery (whose CLRs route back
// to each loser's home partition).
func restartMulti(cfg RestartConfig) (*Engine, *recovery.Result, error) {
	n := len(cfg.Devices)
	tails := make([][]byte, n)
	bases := make([]lsn.LSN, n)
	var maxSeq uint64
	for i, dev := range cfg.Devices {
		logData, base, err := logdev.ReadTail(dev)
		if err != nil {
			return nil, nil, fmt.Errorf("txn: reading log partition %d: %w", i, err)
		}
		tails[i] = logData
		bases[i] = lsn.LSN(base)
		if s := recovery.MaxSeq(logData, lsn.LSN(base)); s > maxSeq {
			maxSeq = s
		}
	}
	store := storage.NewStore()
	if cfg.Archive != nil {
		if err := store.SetBackend(cfg.Archive); err != nil {
			return nil, nil, fmt.Errorf("txn: attaching archive: %w", err)
		}
	}
	if cfg.CachePages > 0 {
		store.SetCachePages(cfg.CachePages)
	}
	if cfg.PrefetchDepth > 0 {
		store.SetPrefetch(cfg.PrefetchDepth)
	}
	lms := make([]*core.LogManager, n)
	closeAll := func() {
		for _, lm := range lms {
			if lm != nil {
				lm.Close()
			}
		}
	}
	for i := range cfg.Devices {
		lcfg := cfg.LogConfig
		lcfg.Device = cfg.Devices[i]
		lcfg.Buffer.Base = bases[i].Add(len(tails[i]))
		lm, err := core.New(lcfg)
		if err != nil {
			closeAll()
			return nil, nil, fmt.Errorf("txn: log partition %d: %w", i, err)
		}
		lms[i] = lm
	}
	ml, err := core.NewMultiLog(lms, maxSeq)
	if err != nil {
		closeAll()
		return nil, nil, err
	}
	// The WAL hook must be in place before recovery faults its first
	// page (stamps are seqs in multi-log mode).
	store.AttachWAL(ml)
	res, err := recovery.RecoverMulti(recovery.MultiOptions{
		Logs:          tails,
		Bases:         bases,
		Store:         store,
		Multi:         ml,
		VerifyArchive: cfg.Archive != nil,
	})
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
	eng, err := NewEngine(Config{
		Multi:                ml,
		Route:                cfg.RoutePartition,
		Locks:                lockmgr.New(cfg.LockConfig),
		Store:                store,
		Archive:              cfg.Archive,
		CheckpointEveryBytes: cfg.CheckpointEveryBytes,
		CleanerPages:         cfg.CleanerPages,
		CleanerInterval:      cfg.CleanerInterval,
		PrefetchDepth:        cfg.PrefetchDepth,
		Retention:            cfg.Retention,
	})
	if err != nil {
		ml.Close()
		return nil, nil, err
	}
	// Transaction IDs continue above every ID recovery's analysis saw
	// (see recovery.Result.MaxTxnID).
	eng.nextTxn.Store(res.MaxTxnID)
	return eng, res, nil
}
