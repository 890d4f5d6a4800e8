package aether

import (
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"aether/internal/core"
	"aether/internal/lockmgr"
	"aether/internal/logbuf"
	"aether/internal/logdev"
	"aether/internal/metrics"
	"aether/internal/storage"
	"aether/internal/txn"
	"aether/internal/vfs"
)

// BufferVariant selects the log-buffer insert algorithm (§5 of the
// paper).
type BufferVariant int

const (
	// BufferBaseline is the single-mutex log buffer (Algorithm 1).
	BufferBaseline BufferVariant = iota
	// BufferC uses consolidation-array backoff (Algorithm 2).
	BufferC
	// BufferD uses decoupled buffer fill (Algorithm 3).
	BufferD
	// BufferCD is the paper's hybrid design (§5.3). It is not the zero
	// value: Options that name no Buffer get BufferBaseline.
	BufferCD
	// BufferCDME adds delegated buffer release (Algorithm 4, §A.3).
	BufferCDME
)

func (v BufferVariant) internal() logbuf.Variant {
	switch v {
	case BufferBaseline:
		return logbuf.VariantBaseline
	case BufferC:
		return logbuf.VariantC
	case BufferD:
		return logbuf.VariantD
	case BufferCDME:
		return logbuf.VariantCDME
	default:
		return logbuf.VariantCD
	}
}

// CommitMode selects the commit protocol (§3–§4).
type CommitMode int

const (
	// CommitPipelined is flush pipelining with early lock release — the
	// paper's headline safe protocol and the default.
	CommitPipelined CommitMode = iota
	// CommitSync is the traditional blocking commit holding locks
	// through the flush.
	CommitSync
	// CommitSyncELR blocks for durability but releases locks at insert.
	CommitSyncELR
	// CommitAsync acknowledges before durability (unsafe; provided for
	// comparison, exactly as the paper discusses).
	CommitAsync
)

func (m CommitMode) internal() txn.CommitMode {
	switch m {
	case CommitSync:
		return txn.CommitSync
	case CommitSyncELR:
		return txn.CommitSyncELR
	case CommitAsync:
		return txn.CommitAsync
	default:
		return txn.CommitPipelined
	}
}

// DeviceProfile selects the simulated log device class (§3.2).
type DeviceProfile int

const (
	// DeviceMemory has no added latency (ramdisk).
	DeviceMemory DeviceProfile = iota
	// DeviceFlash adds 100µs per sync.
	DeviceFlash
	// DeviceFastDisk adds 1ms per sync.
	DeviceFastDisk
	// DeviceSlowDisk adds 10ms per sync.
	DeviceSlowDisk
)

func (d DeviceProfile) internal() logdev.Profile {
	switch d {
	case DeviceFlash:
		return logdev.ProfileFlash
	case DeviceFastDisk:
		return logdev.ProfileFastDisk
	case DeviceSlowDisk:
		return logdev.ProfileSlowDisk
	default:
		return logdev.ProfileMemory
	}
}

// Options configures a database.
type Options struct {
	// LogPath, if set, names the directory that stores the database: the
	// write-ahead log's segment files and MANIFEST, plus the paged
	// database file (pagefile.db), from which pages
	// cleaned out of the dirty-page table at a checkpoint are recovered
	// instead of from the log. Unset, the database keeps the same files,
	// written and fsynced the same way, on an in-memory filesystem of its
	// own, with Device's latency profile added to every log sync (the
	// paper's methodology: the real log on a ramdisk); it is gone when the
	// process is, and DB.Crash cuts its power. A regular file at LogPath —
	// the single-file log of earlier versions — is refused (the error
	// matches logdev's ErrFormat) and left untouched.
	LogPath string
	// SegmentSize is the size of the fixed segments the log's
	// append-only stream is spread over. 0 adopts the size a reopened
	// log's MANIFEST records, and is 8 MiB for a new log. On every
	// database, in-memory ones included, each Checkpoint recycles the
	// segments behind the release horizon, so both the log's footprint and
	// restart-recovery work stay bounded; below that horizon the log's
	// data lives on as checkpointed page images, and RestoreTo needs a
	// cold store (ArchiveDir or RemoteStore) to reach it.
	SegmentSize int64
	// ArchiveDir, if set, gives the log a cold store in this directory:
	// dead segments are shipped there by a background archiver goroutine
	// before their slots are recycled, so the hot log stays bounded while
	// the full history remains restorable (RestoreTo, logdump). It is the
	// same mechanism as RemoteStore — an
	// object store, here a directory of CRC-enveloped object files
	// (seg/, snap/) on the database's own filesystem, each installed
	// through a synced temporary, a rename and a directory fsync — so it
	// snapshots and prunes exactly as described there, and every
	// statement below that says "with a cold store" covers it. The conventional location for a file-backed log is
	// filepath.Join(LogPath, "archive"). A partitioned database
	// (LogPartitions >= 2) keeps one lane per partition (ArchiveDir/p0,
	// ArchiveDir/p1, …). A directory still holding the *.seg files of
	// the earlier one-file-per-segment archive layout, or the pack/
	// objects earlier versions compacted segments into, is refused (the
	// error matches logdev's ErrFormat) and left untouched.
	ArchiveDir string
	// RemoteStore, if set (mutually exclusive with ArchiveDir, which is
	// the same thing on a local directory), archives dead segments into
	// an S3-style object store: the cloud log tier. Each archived
	// segment is one write-once object until retention deletes it. Every
	// object carries a self-validating envelope, so torn uploads are
	// detected and re-shipped; a failed upload leaves the
	// segment parked on the hot device (its slot is never recycled until
	// the store durably holds it) and the background archiver retries
	// with backoff. A partitioned database keeps one key-prefix lane per
	// partition (p0/, p1/, …). Use NewMemObjectStore for tests or
	// NewDirObjectStore for a directory-backed store; any ObjectStore
	// implementation works. A cold store enables DB.RestoreTo
	// point-in-time recovery below the hot log's base and, with
	// SnapshotEveryBytes, snapshot-anchored retention. A store holding
	// pack/ objects (an earlier version's compacted segments) is refused
	// as under ArchiveDir.
	RemoteStore ObjectStore
	// SnapshotEveryBytes, with a cold store on a single (unpartitioned)
	// log, cuts a materialized snapshot object — page images plus the
	// undo stash of in-flight transactions — every time this many new
	// log bytes have hardened. Snapshots anchor retention
	// (RetainSnapshots) and make RestoreTo cost proportional to the
	// distance from the nearest snapshot instead of total history. 0
	// disables snapshots and pruning. Partitioned logs ignore it: their
	// pages interleave across lanes, so the cold store keeps their full
	// history and runs no maintenance at all.
	SnapshotEveryBytes int64
	// RetainSnapshots, with SnapshotEveryBytes > 0, keeps only the
	// newest N snapshot objects: older snapshots, and every log object
	// wholly below the oldest survivor's cut, are pruned. The oldest
	// retained cut becomes the retention floor — RestoreTo below it
	// fails with ErrRestorePruned; everything at or above it stays
	// restorable. 0 keeps every snapshot (nothing is ever pruned).
	RetainSnapshots int
	// LogPartitions, if >= 2, shards the write-ahead log across that
	// many independent log devices — one flush daemon, group-commit
	// stream, durable watermark and archiver lane each — with every
	// record carrying a global sequence stamp and inter-log flush
	// dependencies physically enforced (a younger record whose page was
	// last updated on another log never hardens before that older
	// record does; see ARCHITECTURE.md "Partitioned logging"). Each
	// transaction homes on one partition — by default the page space of
	// its first update modulo LogPartitions, so table-partitioned
	// workloads stay log-local — and its commit waits only on that
	// partition. 0 and 1 are one lane of the same engine: LSN order is
	// already a total order there, so nothing is stamped or enforced, the
	// log bytes and the flat LogPath layout are those of an unpartitioned
	// log, and Stats reports it as one (LogPartitions 0). On N, LogPath
	// holds p0/ … pN-1/ plus the shared pagefile.db. The partition count
	// is part of the on-disk layout: reopen with the same value.
	LogPartitions int
	// RoutePartition overrides the home-partition routing rule
	// (meaningful only with LogPartitions >= 2): given a transaction ID
	// and the page space of the transaction's first logged update, it
	// returns the home partition index (taken modulo LogPartitions).
	// Must be pure and goroutine-safe. Nil uses the page space.
	RoutePartition func(txnID uint64, space uint32) int
	// Device is the simulated device class for in-memory logs: its
	// response time is paid by every log sync, on top of the in-memory
	// filesystem's own. A file-backed log ignores it.
	Device DeviceProfile
	// Buffer selects the log-buffer algorithm. The zero value is
	// BufferBaseline, the single-mutex buffer; the paper's pick is
	// BufferCD.
	Buffer BufferVariant
	// Mode is the default commit protocol for Tx.Commit. Default
	// CommitPipelined.
	Mode CommitMode
	// CheckpointEveryBytes, if > 0, runs the background incremental
	// checkpointer: a goroutine takes a fuzzy checkpoint — page-cleaning
	// sweep, log truncation and all — every time roughly this many bytes
	// have been appended to the log. The log stays bounded (Stats.LogBase
	// keeps advancing) with zero Checkpoint() calls and zero commit-path
	// stalls; explicit Checkpoint() calls remain allowed and serialize
	// with it.
	CheckpointEveryBytes int64
	// CachePages, if > 0, bounds the buffer pool: at most this many
	// pages stay resident in RAM, and the rest live in the database
	// file, faulted in on demand (CRC-verified) and evicted by a clock
	// policy to make room. A clean victim is evicted by simply dropping
	// its frame; a dirty victim must first be written back WAL-correctly
	// (log forced up to its pageLSN, image into a free slot of the
	// database file) — by the background cleaner ahead of demand when
	// CleanerPages is armed, or by the faulting caller itself (a demand
	// steal) when not. 0 leaves the store fully memory-resident (the
	// original behavior). Databases larger than RAM become usable at the
	// cost of page-fault I/O on cache misses.
	CachePages int
	// CleanerPages, if > 0 (meaningful only with a bounded cache), arms
	// the background page cleaner: a goroutine that pre-cleans dirty,
	// unpinned, cold pages — forcing the log, then writing the images to
	// the database file as one batch with O(1) fsyncs per pass —
	// whenever fewer than this many frames are free or clean. Faults
	// under memory pressure then find clean victims and eviction is a
	// frame drop; demand steals (Stats.StealWrites) drop to near zero.
	// A good default is half the cache budget.
	CleanerPages int
	// PrefetchDepth, if > 0 (meaningful only with a bounded cache), arms
	// sequential read-ahead: when page faults form a sequential run — a
	// table scan, the rebuild walk after a reopen — up to this many pages
	// are read from the database file ahead of demand, concurrently, so
	// the scan streams instead of paying one synchronous read per page.
	// Prefetched frames are charged against the cache budget but never
	// evict dirty pages, so read-ahead cannot push out the working set. A
	// good default is 16–64.
	PrefetchDepth int
	// DeadlockTimeout bounds lock waits (default 500ms).
	DeadlockTimeout time.Duration
	// DisableSLI turns off speculative lock inheritance.
	DisableSLI bool
	// fs, if non-nil, substitutes the filesystem every durable layer
	// (segments, MANIFEST, watermark, pagefile, archives) runs
	// on — the fault-injection hook for crash tests and the crash-storm
	// soak. Unexported: only in-package tests may inject it; production
	// code always runs on the real filesystem.
	fs vfs.FS
}

// fsOrOS resolves the injected filesystem, defaulting to the real one.
func (o Options) fsOrOS() vfs.FS {
	if o.fs != nil {
		return o.fs
	}
	return vfs.OS{}
}

// DB is an open database.
type DB struct {
	opts Options
	// fs and root are where the log lanes and the database file live:
	// Options.LogPath on the real (or injected) filesystem, or a
	// directory of mem.
	fs   vfs.FS
	root string
	// mem is an in-memory database's own filesystem, which Crash cuts
	// the power to; nil when LogPath is set.
	mem     *vfs.FaultFS
	lanes   []lane // the log: one per partition, one in all when unpartitioned
	archive storage.Archive
	eng     *txn.Engine
	tables  []string
}

// Open creates (or reopens, for a file-backed log with existing
// contents) a database. Reopening runs ARIES recovery; the caller must
// re-create tables in the original order afterwards (CreateTable), and
// table contents reappear automatically.
func Open(opts Options) (*DB, error) {
	if opts.RemoteStore != nil && opts.ArchiveDir != "" {
		return nil, errors.New("aether: Options.RemoteStore and Options.ArchiveDir are mutually exclusive (one cold store per log)")
	}
	db := &DB{opts: opts, fs: opts.fsOrOS(), root: opts.LogPath}
	if opts.LogPath == "" {
		// An in-memory database is the same engine, files and all, on an
		// in-memory filesystem of its own.
		db.mem = vfs.NewFaultFS(1)
		db.fs, db.root = db.mem, "/db"
	}
	if err := db.open(); err != nil {
		return nil, err
	}
	return db, nil
}

// open opens the lanes, the database file and the cold store under
// db.root and starts the engine over them through recovery: Open's body,
// and the restart after Crash.
func (db *DB) open() error {
	n := max(db.opts.LogPartitions, 1)
	if err := logdev.CheckLaneLayout(db.fs, db.root, n); err != nil {
		return err
	}
	db.lanes, db.archive = nil, nil
	// fail releases the descriptors a failed open acquired, or a caller
	// retrying Open on a damaged database leaks them every attempt.
	fail := func(err error) error {
		db.closeFiles()
		return err
	}
	for i := 0; i < n; i++ {
		l, err := db.openLane(i, n)
		if err != nil {
			return fail(err)
		}
		db.lanes = append(db.lanes, l)
	}
	// One database file whatever the lane count: pages are
	// lane-agnostic — only the log is sharded. Page images must survive
	// the process: checkpoints remove archived pages from the DPT and
	// recycle the log behind them, so a reopen's redo pass will not
	// rebuild them from the log — the database file is their only copy.
	pf, err := storage.OpenPageFileFS(db.fs, filepath.Join(db.root, "pagefile.db"))
	if err != nil {
		return fail(err)
	}
	db.archive = pf
	cold, err := openColdStore(db.opts, db.opts.fsOrOS())
	if err != nil {
		return fail(err)
	}
	if cold != nil {
		for i := range db.lanes {
			if err := db.lanes[i].attachColdStore(cold, i, n); err != nil {
				return fail(err)
			}
		}
	}
	// The engine starts through recovery (a fresh log recovers empty).
	devs := make([]logdev.Device, len(db.lanes))
	for i, l := range db.lanes {
		devs[i] = l.seg
	}
	db.eng, _, err = txn.Restart(txn.RestartConfig{
		Devices:        devs,
		RoutePartition: db.opts.RoutePartition,
		Archive:        db.archive,
		LogConfig: core.Config{
			Buffer: logbuf.Config{Variant: db.opts.Buffer.internal(), Size: 1 << 23},
		},
		LockConfig: lockmgr.Config{
			DeadlockTimeout: db.opts.DeadlockTimeout,
			SLI:             !db.opts.DisableSLI,
		},
		CheckpointEveryBytes: db.opts.CheckpointEveryBytes,
		CachePages:           int64(db.opts.CachePages),
		CleanerPages:         db.opts.CleanerPages,
		PrefetchDepth:        db.opts.PrefetchDepth,
		Retention:            db.retentionConfig(),
	})
	if err != nil {
		return fail(err)
	}
	return nil
}

// Close flushes and stops the database and closes the log device (a
// file-backed log releases its descriptors) and the database file. The
// durable contents stay intact, so a file-backed database can be
// reopened; Close is safe to call more than once.
func (db *DB) Close() error {
	// Stop the background checkpointer first: it appends to the log and
	// sweeps into the archive, both of which are about to close.
	db.eng.Close()
	err := db.eng.Multi().Close()
	if cerr := db.closeFiles(); err == nil {
		err = cerr
	}
	return err
}

// closeFiles closes every lane's device and the database file,
// returning the first error.
func (db *DB) closeFiles() error {
	var err error
	for _, l := range db.lanes {
		if cerr := l.seg.Close(); err == nil {
			err = cerr
		}
	}
	if db.archive != nil {
		if cerr := db.archive.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Table is a handle to a table.
type Table struct {
	t *txn.Table
}

// CreateTable registers a table. Tables must be created in the same
// order on every open of the same database (recovery keys page
// ownership by creation order).
func (db *DB) CreateTable(name string) (*Table, error) {
	t, err := db.eng.CreateTable(name, nil)
	if err != nil {
		return nil, err
	}
	db.tables = append(db.tables, name)
	return &Table{t: t}, nil
}

// LookupTable returns the handle for a registered table. Handles become
// stale across Crash (tables are re-registered during recovery); fetch a
// fresh one afterwards.
func (db *DB) LookupTable(name string) (*Table, error) {
	t := db.eng.Table(name)
	if t == nil {
		return nil, fmt.Errorf("aether: no table %q", name)
	}
	return &Table{t: t}, nil
}

// RebuildAfterRecovery reattaches recovered pages and rebuilds indexes.
// Call it once after reopening a database and re-creating its tables.
func (db *DB) RebuildAfterRecovery() error {
	return db.eng.RebuildTables()
}

// Checkpoint takes a fuzzy ARIES checkpoint (and archives clean page
// images), bounding recovery work.
func (db *DB) Checkpoint() error { return db.eng.Checkpoint() }

// Crash simulates power loss on an in-memory database and reopens it
// with full ARIES recovery: every byte the log or the database file had
// not fsynced is lost, committed transactions survive, in-flight ones
// roll back. Tables are re-created and indexes rebuilt automatically.
// File-backed databases (LogPath set) return an error (kill the process
// instead — that is the real crash test).
func (db *DB) Crash() error {
	if db.mem == nil {
		return errors.New("aether: Crash is only supported for in-memory databases")
	}
	// Cut the power before stopping the engine: every lane stops at its
	// own durable watermark at once, and the dying daemons' writes fail
	// instead of extending it. Then the machine comes back up and the
	// database opens the way Open opens it.
	db.mem.PowerCut()
	db.eng.Close()
	db.eng.Multi().Close()
	db.closeFiles()
	db.mem.Recover()
	if err := db.open(); err != nil {
		return fmt.Errorf("aether: recovery failed: %w", err)
	}
	names := db.tables
	db.tables = nil
	for _, name := range names {
		if _, err := db.CreateTable(name); err != nil {
			return err
		}
	}
	return db.RebuildAfterRecovery()
}

// Stats exposes a few headline counters.
type Stats struct {
	Commits    int64
	Aborts     int64
	LogInserts int64
	LogBytes   int64
	LogFlushes int64
	// LogFsyncs counts the fsyncs the log device(s) actually issued for
	// those flushes: one per flush in steady state (the segment file,
	// carrying data and durable watermark together), plus the earlier
	// segment's and the directory's when a flush crosses into a new
	// segment — on an in-memory database's filesystem as on a disk.
	LogFsyncs   int64
	Checkpoints int64
	// LogTruncations counts checkpoint-driven truncations that advanced
	// the release horizon.
	LogTruncations int64
	// LogTruncatedBytes counts logical log bytes released behind the
	// horizon (bounded-log progress).
	LogTruncatedBytes int64
	// LogSegmentsRecycled counts whole segments recycled: segment files
	// deleted, on disk or on an in-memory database's filesystem.
	LogSegmentsRecycled int64
	// LogSegmentsArchived counts dead segments shipped to the cold store
	// (Options.ArchiveDir or RemoteStore) before their slots were
	// recycled.
	LogSegmentsArchived int64
	// LogSegmentsPendingArchive is how many dead segments currently
	// await the background archiver; they stay on disk until cold
	// storage has them.
	LogSegmentsPendingArchive int64
	// ArchiveRetries counts backoff retries of failed cold-store
	// archive passes (transient outages the archiver rode out).
	ArchiveRetries int64
	// ArchiveGaveUp counts archive passes abandoned after the retry
	// budget; the segments stay parked until a later nudge succeeds.
	ArchiveGaveUp int64
	// LogSnapshots counts materialized snapshot objects the cold
	// store's maintenance daemon uploaded (Options.SnapshotEveryBytes).
	LogSnapshots int64
	// LogObjectsPruned counts cold-store objects retention deleted —
	// always wholly below the oldest retained snapshot's cut.
	LogObjectsPruned int64
	// RetentionFailures counts cold-store maintenance passes that
	// errored; nothing is lost, the next checkpoint retries.
	RetentionFailures int64
	// RestoreFloor is the oldest restorable point (the oldest retained
	// snapshot's cut): RestoreTo below it fails with ErrRestorePruned.
	// 0 means the full history is retained.
	RestoreFloor int64
	// LogTornTailRepaired counts bytes the last Open discarded while
	// repairing a torn tail: unsynced bytes a power loss happened to
	// persist beyond the durable watermark. Committed work is never
	// among them.
	LogTornTailRepaired int64
	// LogBase is the current truncation horizon: restart recovery reads
	// the log from here, never from byte 0.
	LogBase int64
	// AutoCheckpoints counts checkpoints taken by the background
	// incremental checkpointer (Options.CheckpointEveryBytes).
	AutoCheckpoints int64
	// SweepPages counts page images written by checkpoint sweeps into
	// the database file.
	SweepPages int64
	// SweepFsyncs counts device fsyncs charged to checkpoint sweeps —
	// O(1) per sweep on the paged database file.
	SweepFsyncs int64
	// SweepDuration summarizes checkpoint-sweep wall-clock times.
	SweepDuration metrics.HistogramSnapshot
	// CacheResident is how many pages are currently in RAM. With
	// Options.CachePages set it stays within the budget whenever an
	// unpinned victim exists.
	CacheResident int64
	// PageMisses counts page faults served by reading the database file
	// (demand paging; 0 for a fully resident store).
	PageMisses int64
	// PageEvictions counts pages dropped from RAM to stay within the
	// cache budget.
	PageEvictions int64
	// StealWrites counts demand steals only: evictions that found a
	// dirty victim and had to write its image back (forcing the log
	// first) on the faulting caller's own critical path. Pages written
	// back ahead of demand by the background cleaner are counted in
	// CleanerWrites instead, and their eviction is a plain frame drop.
	// With Options.CleanerPages armed this should stay near zero.
	StealWrites int64
	// CleanerWrites counts page images the background page cleaner
	// (Options.CleanerPages) wrote back ahead of demand.
	CleanerWrites int64
	// CleanerPasses counts cleaner passes that wrote at least one page.
	CleanerPasses int64
	// PrefetchReads counts page images the read-ahead pipeline
	// (Options.PrefetchDepth) installed ahead of demand.
	PrefetchReads int64
	// PrefetchHits counts page accesses served by a prefetched page —
	// faults that never happened. PrefetchReads − PrefetchHits is the
	// wasted-read overshoot, bounded by the window size per stream.
	PrefetchHits int64
	// ReadRetries counts lock-free database-file reads that found their
	// page's slot freed and reused by a later write-back, and looked the
	// page up again — the observable cost of the lock-free read path
	// (normally ~0).
	ReadRetries int64
	// LogPartitions is the number of log partitions (0 when the log is
	// not partitioned). When partitioned, the Log* counters above are
	// sums over partitions and LogBase is the sum of the per-partition
	// truncation horizons.
	LogPartitions int
	// PartitionFlushes is each partition's flush-daemon I/O count (nil
	// when not partitioned); LogFlushes is their sum.
	PartitionFlushes []int64
	// PartitionBytes is each partition's inserted log bytes (nil when
	// not partitioned); LogBytes is their sum. The spread shows routing
	// balance.
	PartitionBytes []int64
	// DepEdges counts cross-partition page dependencies observed at
	// append time: a page updated on one log and then on another
	// (Appendix A.5's inter-log dependency).
	DepEdges int64
	// DepEdgesEnforced is the subset of DepEdges whose older record was
	// not yet durable at append time and therefore registered a flush
	// clamp on the younger record's partition.
	DepEdgesEnforced int64
	// DepStalls is, per partition, how many flush passes were clamped
	// short by an unsatisfied inter-log dependency (nil when not
	// partitioned) — the paper's A.5 dependency-stall rate is
	// sum(DepStalls)/LogFlushes.
	DepStalls []int64
}

// Stats returns current counters.
func (db *DB) Stats() Stats {
	es := db.eng.Stats()
	cs := db.eng.Store().CacheStats()
	s := Stats{
		Commits:         es.Commits.Load(),
		Aborts:          es.Aborts.Load(),
		Checkpoints:     es.Checkpoints.Load(),
		AutoCheckpoints: es.AutoCheckpoints.Load(),
		ArchiveRetries:  es.ArchiveRetries.Load(),
		ArchiveGaveUp:   es.ArchiveGaveUp.Load(),
		SweepPages:      es.SweepPages.Load(),
		SweepFsyncs:     es.SweepFsyncs.Load(),
		SweepDuration:   es.SweepDuration.Snapshot(),
		CacheResident:   cs.Resident,
		PageMisses:      cs.Misses,
		PageEvictions:   cs.Evictions,
		StealWrites:     cs.StealWrites,
		CleanerWrites:   cs.CleanerWrites,
		CleanerPasses:   cs.CleanerPasses,
		PrefetchReads:   cs.PrefetchReads,
		PrefetchHits:    cs.PrefetchHits,
	}
	m := db.eng.Multi()
	n := m.NumParts()
	if n > 1 {
		// One lane reports as the unpartitioned log it is: no lane count,
		// no per-lane breakdown of sums that have one term.
		s.LogPartitions = n
		s.PartitionFlushes = make([]int64, n)
		s.PartitionBytes = make([]int64, n)
		s.DepStalls = make([]int64, n)
		s.DepEdges = m.EdgesTotal()
		s.DepEdgesEnforced = m.EdgesEnforced()
	}
	for i, l := range db.lanes {
		lm := m.Part(i)
		ls := lm.Stats()
		if n > 1 {
			s.PartitionFlushes[i] = ls.Flushes.Load()
			s.PartitionBytes[i] = ls.InsertBytes.Load()
			s.DepStalls[i] = m.DepStalls(i)
		}
		s.LogInserts += ls.Inserts.Load()
		s.LogBytes += ls.InsertBytes.Load()
		s.LogFlushes += ls.Flushes.Load()
		s.LogTruncations += ls.Truncations.Load()
		s.LogTruncatedBytes += ls.TruncatedBytes.Load()
		s.LogBase += int64(lm.Base())
		s.LogFsyncs += l.seg.Stats().Fsyncs.Load()
		segs, _ := l.seg.TruncStats()
		s.LogSegmentsRecycled += segs
		s.LogSegmentsArchived += l.seg.ArchivedSegments()
		s.LogSegmentsPendingArchive += int64(len(l.seg.PendingArchive()))
		s.LogTornTailRepaired += l.seg.RepairedTailBytes()
	}
	s.ReadRetries = db.archive.ReadRetries()
	s.LogSnapshots = es.SnapshotsTaken.Load()
	s.LogObjectsPruned = es.RetentionPrunedObjects.Load()
	s.RetentionFailures = es.RetentionFailures.Load()
	// Only a one-lane log takes snapshots, so only it can have a floor
	// (and only it pays the object-store listing that reads one).
	if r := db.lanes[0].remote; r != nil && n == 1 {
		if floor, err := r.Floor(); err == nil {
			s.RestoreFloor = int64(floor)
		}
	}
	return s
}

// Row builds a row whose first 8 bytes encode key — the convention the
// built-in index rebuild relies on.
func Row(key uint64, payload []byte) []byte {
	b := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint64(b[:8], key)
	copy(b[8:], payload)
	return b
}

// RowPayload strips the 8-byte key prefix from a row.
func RowPayload(row []byte) []byte {
	if len(row) < 8 {
		return nil
	}
	return row[8:]
}
