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

// RestartConfig describes how to bring a database back from its durable
// state (log device + optional page archive).
type RestartConfig struct {
	// Device is the one-lane spelling of Devices (ignored when Devices
	// is set).
	Device logdev.Device
	// Devices holds the durable log, one device per lane in lane order.
	// Recovery reads the lanes' tails in the total order and the engine
	// runs over one core.MultiLog of as many lanes.
	Devices []logdev.Device
	// RoutePartition overrides the home-lane routing (see Config.Route).
	// Nil defaults to page space modulo lane count.
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
	// PrefetchDepth enables sequential read-ahead in the buffer pool (see
	// txn.Config.PrefetchDepth). It is armed before recovery runs, so a
	// redo pass walking pages in log order and the RebuildTables scan both
	// stream their faults. Meaningful only with Archive set.
	PrefetchDepth int
	// Retention arms the cold store's maintenance daemon (see
	// txn.Config.Retention).
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
	devs := cfg.Devices
	if len(devs) == 0 {
		devs = []logdev.Device{cfg.Device}
	}
	// Read only the live tails: a truncated device recycled everything
	// below its base, and recovery is O(log-since-checkpoint) because of
	// it. LSNs are stable, so each new buffer resumes at base+len(tail).
	lanes := make([]recovery.Lane, len(devs))
	for i, dev := range devs {
		logData, base, err := logdev.ReadTail(dev)
		if err != nil {
			return nil, nil, fmt.Errorf("txn: reading log lane %d: %w", i, err)
		}
		lanes[i] = recovery.Lane{Log: logData, Base: lsn.LSN(base)}
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
	// Analysis reads the tails only; the coordinator is then built at
	// the sequence number they end at, so that redo's faults are checked
	// against, and undo's CLRs stamped above, everything on disk.
	an, err := recovery.Analyze(lanes)
	if err != nil {
		return nil, nil, err
	}
	lms := make([]*core.LogManager, len(devs))
	closeAll := func() {
		for _, lm := range lms {
			if lm != nil {
				lm.Close()
			}
		}
	}
	for i, dev := range devs {
		lcfg := cfg.LogConfig
		lcfg.Device = dev
		lcfg.Buffer.Base = lanes[i].Base.Add(len(lanes[i].Log))
		if lms[i], err = core.New(lcfg); err != nil {
			closeAll()
			return nil, nil, fmt.Errorf("txn: log lane %d: %w", i, err)
		}
	}
	ml, err := core.NewMultiLog(lms, an.LastSeq())
	if err != nil {
		closeAll()
		return nil, nil, err
	}
	// The WAL hook must be in place before recovery faults its first
	// page: faulted images are verified against the durable horizon, and
	// any eviction during redo may need to steal through it. (That check
	// covers pages reaching the store through the archive; the
	// verify-archive flag below covers any page already resident.)
	store.AttachWAL(ml)
	res, err := an.Recover(store, ml.NewAppender(), cfg.Archive != nil)
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
		Log:                  ml,
		Route:                cfg.RoutePartition,
		Locks:                lockmgr.New(cfg.LockConfig),
		Store:                store,
		Archive:              cfg.Archive,
		CheckpointEveryBytes: cfg.CheckpointEveryBytes,
		CleanerPages:         cfg.CleanerPages,
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
