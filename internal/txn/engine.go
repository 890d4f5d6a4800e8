// Package txn is the transactional storage manager: it glues the lock
// manager, the storage engine and the Aether log into ACID transactions
// with every commit strategy the paper studies — synchronous (baseline),
// synchronous with Early Lock Release, unsafe asynchronous commit, and
// Flush Pipelining.
//
// The package plays the role Shore-MT plays in the paper: the substrate
// whose transactions exercise the log.
package txn

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"aether/internal/core"
	"aether/internal/lockmgr"
	"aether/internal/logrec"
	"aether/internal/lsn"
	"aether/internal/metrics"
	"aether/internal/storage"
)

// Errors returned by transaction operations.
var (
	// ErrDuplicateKey is returned by Insert for an existing key.
	ErrDuplicateKey = errors.New("txn: duplicate key")
	// ErrKeyNotFound is returned when a key does not exist.
	ErrKeyNotFound = errors.New("txn: key not found")
	// ErrTxnDone is returned for operations on a finished transaction.
	ErrTxnDone = errors.New("txn: transaction already finished")
	// ErrPrecommitted guards the ELR safety rule: a transaction whose
	// commit record is in the log may not abort (paper §3.1 condition 2).
	ErrPrecommitted = errors.New("txn: cannot abort a precommitted transaction")
)

// CommitMode selects the commit protocol.
type CommitMode int

const (
	// CommitSync is the traditional protocol: flush the commit record,
	// wait for durability, then release locks. The agent thread blocks
	// (delays A, B and C from Figure 1).
	CommitSync CommitMode = iota
	// CommitSyncELR releases locks immediately after inserting the
	// commit record, then waits for durability before replying (§3).
	// Removes delay B; the agent still blocks (A, C remain).
	CommitSyncELR
	// CommitAsync releases locks and reports success without waiting
	// for durability — the unsafe "asynchronous commit" of Oracle and
	// PostgreSQL the paper compares against. Committed work can be lost
	// in a crash.
	CommitAsync
	// CommitPipelined is flush pipelining with ELR (§4): locks release
	// at insert, the agent detaches, and the completion callback fires
	// from the log daemon once the commit record hardens. Safe, and the
	// agent never blocks.
	CommitPipelined
	// CommitPipelinedHoldLocks is an ablation: flush pipelining without
	// early lock release — locks are released only when the commit
	// record hardens. Shows why pipelining depends on ELR (§6.4).
	CommitPipelinedHoldLocks
)

var commitModeNames = map[CommitMode]string{
	CommitSync:               "sync",
	CommitSyncELR:            "sync+elr",
	CommitAsync:              "async",
	CommitPipelined:          "pipelined",
	CommitPipelinedHoldLocks: "pipelined-no-elr",
}

// String names the mode as used in experiment output.
func (m CommitMode) String() string {
	if s, ok := commitModeNames[m]; ok {
		return s
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// DefaultKeyOf extracts a row's key assuming the row starts with the key
// encoded as 8 little-endian bytes — the convention all built-in
// workloads follow. Index rebuild at restart depends on it.
func DefaultKeyOf(row []byte) uint64 {
	if len(row) < 8 {
		return 0
	}
	return binary.LittleEndian.Uint64(row[:8])
}

// Table is one logical table: a logged heap plus a volatile primary
// index (rebuilt at restart from the heap).
type Table struct {
	// Name is the table's registered name.
	Name string
	// Space is the page space (top 24 bits of every page ID) the
	// table's heap allocates from.
	Space uint32
	// Heap holds the table's rows.
	Heap *storage.HeapFile
	// Index is the volatile primary index over Heap.
	Index *storage.BTree
	// KeyOf recovers a row's primary key during index rebuild. It is
	// handed the row in place, under the page latch, and must not keep
	// or modify it.
	KeyOf func([]byte) uint64
}

// Config assembles an Engine.
type Config struct {
	// Log is the Aether log: one coordinator over N >= 1 lanes
	// (required). Page stamps, DPT recLSNs, checkpoint ATT entries and
	// the truncation horizon live in its stamp domain (core.MultiLog);
	// commit waits go to each transaction's home lane.
	Log *core.MultiLog
	// Route picks a transaction's home lane, given the transaction ID
	// and the page space of its first logged update; the result is taken
	// modulo the lane count. Nil defaults to the page space, which keeps
	// table-partitioned workloads log-local. Must be pure and
	// goroutine-safe.
	Route func(txnID uint64, space uint32) int
	// Locks is the lock manager (required).
	Locks *lockmgr.Manager
	// Store is the page store; NewEngine wires Archive and Log into it
	// as the buffer pool's backend and WAL hook (required).
	Store *storage.Store
	// Archive, if set, receives page images at checkpoints (the
	// simulated database file).
	Archive storage.Archive
	// CheckpointEveryBytes, if > 0, starts the background incremental
	// checkpointer: a goroutine that takes a fuzzy checkpoint (sweep,
	// truncation and all) every time roughly this many bytes have been
	// appended to the log — so the log stays bounded with zero client
	// Checkpoint calls and zero commit-path stalls. Stop it with Close.
	CheckpointEveryBytes int64
	// CleanerPages, if > 0, starts the background page cleaner: a
	// goroutine that watches the buffer pool's free-frame headroom and
	// pre-cleans dirty, unpinned, cold pages — forcing the log, then
	// writing the images to the archive as one batch —
	// whenever fewer than this many frames are free or clean. Faults
	// then find clean victims and eviction is a frame drop instead of a
	// demand steal. Meaningful only with a bounded Store (SetCachePages)
	// over an Archive backend; harmless otherwise. Stop it with Close.
	CleanerPages int
	// PrefetchDepth, if > 0, enables sequential read-ahead in the buffer
	// pool: when faults form a sequential run (a scan, the restart
	// rebuild), up to this many pages are read from the archive ahead of
	// demand, concurrently, so the scan's faults become cache hits.
	// Prefetched frames are charged against the cache budget but never
	// evict dirty pages. Meaningful only with an Archive backend.
	PrefetchDepth int
	// Retention, with a cold store and SnapshotEveryBytes > 0, starts the
	// cold store's maintenance daemon on a one-lane log: snapshot cutting
	// and retention pruning against its remote archiver. Stop it with
	// Close.
	Retention RetentionConfig
}

// Stats exposes engine counters.
type Stats struct {
	// Commits counts committed transactions.
	Commits metrics.Counter
	// Aborts counts aborted transactions.
	Aborts metrics.Counter
	// ReadOnly counts read-only commits (no log flush needed).
	ReadOnly metrics.Counter
	// Checkpoints counts completed fuzzy checkpoints.
	Checkpoints metrics.Counter
	// TruncateFailures counts checkpoints whose (best-effort) log
	// truncation failed; the horizon stays put until the next one.
	TruncateFailures metrics.Counter
	// AutoCheckpoints counts checkpoints taken by the background
	// incremental checkpointer (a subset of Checkpoints).
	AutoCheckpoints metrics.Counter
	// AutoCheckpointFailures counts background checkpoints that errored
	// (e.g. the log closed mid-checkpoint during shutdown).
	AutoCheckpointFailures metrics.Counter
	// Sweeps counts page-cleaning sweeps that wrote at least one page.
	Sweeps metrics.Counter
	// SweepPages counts page images written by checkpoint sweeps.
	SweepPages metrics.Counter
	// SweepFsyncs counts device fsyncs charged to checkpoint sweeps —
	// O(1) per sweep: two on the paged database file.
	SweepFsyncs metrics.Counter
	// SweepDuration records wall-clock time per page-cleaning sweep.
	SweepDuration metrics.Histogram
	// SegmentsArchived counts dead log segments the background archiver
	// shipped to cold storage before recycling their slots.
	SegmentsArchived metrics.Counter
	// ArchiveFailures counts background archive passes that errored
	// (cold storage down); the affected segments stay pending on disk.
	ArchiveFailures metrics.Counter
	// ArchiveRetries counts backoff retries of a failed archive pass:
	// transient cold-store outages are retried in-loop with bounded
	// exponential backoff + jitter before the archiver gives up.
	ArchiveRetries metrics.Counter
	// ArchiveGaveUp counts archive passes abandoned after the retry
	// budget was exhausted. The segments stay parked on disk; the next
	// nudge (any later truncation, restore, or Close-side drain) tries
	// again, so nothing is lost — only delayed.
	ArchiveGaveUp metrics.Counter
	// CleanerFailures counts background cleaner passes that errored (log
	// force or archive writeback failed); the affected pages stay dirty
	// and the next pass — or a demand steal, or the sweep — retries.
	CleanerFailures metrics.Counter
	// SnapshotsTaken counts materialized snapshot objects the cloud-tier
	// maintenance daemon uploaded to the remote store.
	SnapshotsTaken metrics.Counter
	// RetentionPrunedObjects counts remote objects (snapshots and
	// segments) deleted by retention — always wholly below the oldest
	// retained snapshot's cut.
	RetentionPrunedObjects metrics.Counter
	// RetentionFailures counts maintenance passes that errored
	// (snapshotting or pruning); nothing is lost — the
	// next nudge retries with the floor unchanged.
	RetentionFailures metrics.Counter
}

// Engine is the transactional storage manager.
type Engine struct {
	log     *core.MultiLog
	route   func(txnID uint64, space uint32) int
	locks   *lockmgr.Manager
	store   *storage.Store
	archive storage.Archive
	stats   Stats

	mu        sync.Mutex
	tables    map[string]*Table
	spaces    map[uint32]*Table
	nextSpace uint32
	att       map[uint64]*Txn // active-transaction table for checkpoints

	nextTxn atomic.Uint64

	ckptMu sync.Mutex
	ckptAp *core.MultiAppender

	// The background workers; nil when not configured. ckpt is the
	// incremental checkpointer, arch ships dead log segments to the cold
	// store, clean is the page cleaner, ret the cold store's maintenance
	// (snapshots, pruning).
	ckpt, arch, clean, ret *daemon

	closeOnce sync.Once
}

// NewEngine builds an engine over the given components.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.Log == nil || cfg.Locks == nil || cfg.Store == nil {
		return nil, errors.New("txn: Log, Locks and Store are required")
	}
	n := cfg.Log.NumParts()
	route := cfg.Route
	if route == nil {
		route = func(_ uint64, space uint32) int { return int(space) }
	}
	e := &Engine{
		log:     cfg.Log,
		route:   func(txnID uint64, space uint32) int { return route(txnID, space) % n },
		locks:   cfg.Locks,
		store:   cfg.Store,
		archive: cfg.Archive,
		tables:  make(map[string]*Table),
		spaces:  make(map[uint32]*Table),
		att:     make(map[uint64]*Txn),
		ckptAp:  cfg.Log.NewAppender(),
	}
	// Thread the WAL into the buffer pool: evicting a dirty page forces
	// the log up to its pageLSN before the image may be stolen to the
	// archive, and faulted images are checked against the durable
	// horizon. (Restart wires the same hooks before recovery; repeating
	// them here is idempotent and covers directly constructed engines.)
	if cfg.Archive != nil {
		if err := cfg.Store.SetBackend(cfg.Archive); err != nil {
			return nil, err
		}
	}
	cfg.Store.AttachWAL(cfg.Log)
	if cfg.PrefetchDepth > 0 {
		cfg.Store.SetPrefetch(cfg.PrefetchDepth)
	}
	if cfg.CheckpointEveryBytes > 0 {
		e.startAutoCheckpoint(cfg.CheckpointEveryBytes)
	}
	if e.canArchive() {
		e.startArchiver()
	}
	if cfg.CleanerPages > 0 {
		e.startCleaner(cfg.CleanerPages)
	}
	if cfg.Retention.Remote != nil && cfg.Retention.SnapshotEveryBytes > 0 {
		e.startRetention(cfg.Retention)
	}
	return e, nil
}

// waitLM returns the log manager a transaction homed on lane `home`
// waits on (home < 0 — nothing logged yet — maps to lane 0, the system
// lane).
func (e *Engine) waitLM(home int) *core.LogManager {
	return e.log.Part(max(home, 0))
}

// canArchive reports whether any lane's device has an archiver attached.
func (e *Engine) canArchive() bool {
	for i := 0; i < e.log.NumParts(); i++ {
		if e.log.Part(i).CanArchive() {
			return true
		}
	}
	return false
}

// archivePending drains every lane's archive-then-recycle queue,
// returning the total segments shipped and the first error.
func (e *Engine) archivePending() (int, error) {
	total := 0
	var first error
	for i := 0; i < e.log.NumParts(); i++ {
		n, err := e.log.Part(i).ArchivePending()
		total += n
		if err != nil && first == nil {
			first = err
		}
	}
	return total, first
}

// setAppendNotify arms (or, with a nil fn, clears) every lane's
// appended-bytes trigger.
func (e *Engine) setAppendNotify(every int64, fn func()) {
	for i := 0; i < e.log.NumParts(); i++ {
		e.log.Part(i).SetAppendNotify(every, fn)
	}
}

// startAutoCheckpoint wires the log's appended-bytes trigger to the
// checkpointer daemon. The trigger only nudges it, so agent threads never
// do checkpoint work; the daemon runs the full fuzzy checkpoint (sweep,
// truncation) concurrently with foreground commits — Checkpoint's own
// ckptMu serializes it against any inline Checkpoint calls.
func (e *Engine) startAutoCheckpoint(everyBytes int64) {
	e.ckpt = startDaemon(0, func(*daemon) {
		if err := e.Checkpoint(); err != nil {
			e.stats.AutoCheckpointFailures.Inc()
		} else {
			e.stats.AutoCheckpoints.Inc()
		}
	})
	// Split the byte budget across lanes: with balanced load each lane
	// fires after roughly everyBytes/N of its own inserts, so the
	// combined cadence approximates everyBytes of total log. Skewed load
	// just checkpoints a little more often.
	e.setAppendNotify(max(everyBytes/int64(e.log.NumParts()), 1), e.ckpt.nudge)
}

// startArchiver wires the background segment archiver: a daemon that
// drains the log device's pending-dead set — copying each dead segment
// to cold storage, then recycling its slot — whenever a checkpoint's
// truncation parks new ones. It runs alongside (and independently of)
// the checkpointer, so a slow cold store never stalls a checkpoint, let
// alone a commit. The initial nudge drains segments a previous
// incarnation left pending at the crash.
func (e *Engine) startArchiver() {
	e.arch = startDaemon(0, e.archivePassWithRetry)
	e.arch.nudge()
}

// Archiver backoff tuning: a failed pass retries after archBackoffMin,
// doubling (with up to 50% added jitter to spread simultaneous
// retriers) up to archBackoffMax, at most archMaxRetries times per
// nudge. Variables, not constants, so tests can shrink the schedule.
var (
	archBackoffMin = 10 * time.Millisecond
	archBackoffMax = 2 * time.Second
	archMaxRetries = 8
)

// archivePassWithRetry runs one archive drain pass, absorbing
// transient cold-store failures with bounded exponential backoff +
// jitter instead of parking the segments until the next checkpoint
// happens to nudge again. Giving up is safe — dead segments stay on
// disk until some pass succeeds — but each retry here shortens the
// window in which a crash-plus-disk-loss could lose history.
func (e *Engine) archivePassWithRetry(d *daemon) {
	backoff := archBackoffMin
	for attempt := 0; ; attempt++ {
		n, err := e.archivePending()
		e.stats.SegmentsArchived.Add(int64(n))
		if err == nil {
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

// cleanerInterval is the page cleaner's polling cadence. Demand steals
// nudge the cleaner awake at once, so the interval only bounds how stale
// its headroom view can get between bursts.
const cleanerInterval = 2 * time.Millisecond

// startCleaner wires the background page cleaner: a daemon that
// pre-cleans dirty, cold pages whenever the buffer pool's free-or-clean
// headroom drops below pages. It wakes on a short ticker and — more
// importantly — on every demand steal (the store's steal-pressure
// callback), so a burst that outruns the ticker immediately re-arms it.
// Like the checkpointer and the archiver, its work happens entirely off
// the agent threads' fault path.
func (e *Engine) startCleaner(pages int) {
	e.clean = startDaemon(cleanerInterval, func(d *daemon) {
		// Clean until headroom is restored, not just one batch: under
		// sustained write pressure the ticker cadence alone would fall
		// behind, and steals — each of which nudged the daemon — would
		// become the de-facto trigger. A pass that claims nothing means
		// every dirty page is pinned or already being written; yield and
		// let the ticker retry.
		for e.store.NeedClean(pages) && !d.stopping() {
			n, err := e.store.CleanBatch(pages)
			if err != nil {
				e.stats.CleanerFailures.Inc()
				return
			}
			if n == 0 {
				return
			}
		}
	})
	e.store.SetStealNotify(e.clean.nudge)
}

// daemons lists the engine's background workers; the ones that were not
// configured are nil, which every daemon method accepts.
func (e *Engine) daemons() [4]*daemon {
	return [4]*daemon{e.ckpt, e.arch, e.clean, e.ret}
}

// Close stops the background incremental checkpointer, the segment
// archiver, the page cleaner and the cloud-tier maintenance daemon,
// waiting for in-flight work to finish: all four are told to stop before
// any is waited on. Call it before closing the log. It is idempotent and
// a no-op for engines running no daemons.
func (e *Engine) Close() {
	e.closeOnce.Do(func() {
		if e.ckpt != nil {
			e.setAppendNotify(0, nil)
		}
		for _, d := range e.daemons() {
			d.halt()
		}
	})
	for _, d := range e.daemons() {
		d.wait()
	}
}

// Log returns lane 0's log manager: the whole log on one lane, the
// system lane (checkpoint records) on N.
func (e *Engine) Log() *core.LogManager { return e.log.Part(0) }

// Multi returns the engine's log coordinator.
func (e *Engine) Multi() *core.MultiLog { return e.log }

// Locks returns the engine's lock manager.
func (e *Engine) Locks() *lockmgr.Manager { return e.locks }

// Store returns the engine's page store.
func (e *Engine) Store() *storage.Store { return e.store }

// Stats returns the engine's counters.
func (e *Engine) Stats() *Stats { return &e.stats }

// CreateTable registers a table. Spaces are assigned deterministically in
// call order (1, 2, 3, …): a restarted process must create its tables in
// the same order for recovery to reattach pages correctly. keyOf may be
// nil, defaulting to DefaultKeyOf.
func (e *Engine) CreateTable(name string, keyOf func([]byte) uint64) (*Table, error) {
	if keyOf == nil {
		keyOf = DefaultKeyOf
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.tables[name]; dup {
		return nil, fmt.Errorf("txn: table %q exists", name)
	}
	e.nextSpace++
	t := &Table{
		Name:  name,
		Space: e.nextSpace,
		Heap:  storage.NewHeapFile(e.store, e.nextSpace, name),
		Index: storage.NewBTree(),
		KeyOf: keyOf,
	}
	e.tables[name] = t
	e.spaces[t.Space] = t
	return t, nil
}

// Table returns a registered table by name.
func (e *Engine) Table(name string) *Table {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.tables[name]
}

// Tables lists registered tables.
func (e *Engine) Tables() []*Table {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]*Table, 0, len(e.tables))
	for _, t := range e.tables {
		out = append(out, t)
	}
	return out
}

// RebuildTables reattaches pages to their heaps and rebuilds every
// table's index from the heap rows, replacing whatever the index held.
// Called after recovery. The page universe is the resident set plus
// everything in the archive backend: with demand paging, most pages are
// not in RAM at this point — they fault in (and are evicted again) as
// the rebuild walks them, so the scan is O(database) time but O(cache
// budget) memory for pages, plus 16 bytes per row of the table being
// indexed: a table's (key, RID) pairs are collected first and its index
// is built from them in one pass (storage.BTree.Build).
func (e *Engine) RebuildTables() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	all, err := e.store.AllPageIDs()
	if err != nil {
		return fmt.Errorf("txn: listing pages for rebuild: %w", err)
	}
	// AllPageIDs is sorted and a page ID starts with its space, so each
	// space's pages are one ascending run and the whole rebuild faults
	// pages in strictly increasing pid order. That makes restart
	// deterministic and turns the rebuild into one long sequential run
	// the read-ahead pipeline can stream.
	var entries []storage.BTreeEntry // one table's at a time, reused by the next
	for len(all) > 0 {
		sp := storage.PageSpace(all[0])
		n := 1
		for n < len(all) && storage.PageSpace(all[n]) == sp {
			n++
		}
		pids := all[:n]
		all = all[n:]
		t := e.spaces[sp]
		if t == nil {
			return fmt.Errorf("txn: recovered pages for unknown space %d (tables must be created in the same order as before the crash)", sp)
		}
		entries = entries[:0]
		for _, pid := range pids {
			p, err := e.store.Get(pid)
			if err != nil {
				return fmt.Errorf("txn: rebuild fault: %w", err)
			}
			if p == nil {
				continue
			}
			// Index the page's rows while it is resident and pinned: a
			// separate Heap.Scan afterwards would fault the whole
			// database a second time. Keys are read in place, under the
			// one latch hold that also reads what the adoption needs.
			p.Latch.RLock()
			free := p.FreeSpace()
			for slot, n := 0, p.NumSlots(); slot < n; slot++ {
				row, err := p.View(slot)
				if err != nil {
					continue // dead slot
				}
				if len(entries) == cap(entries) {
					// Double, where append would go by quarters and
					// allocate five times the list on the way: this is
					// the rebuild's one large allocation.
					entries = slices.Grow(entries, max(len(entries), 1024))
				}
				rid := storage.RID{Page: pid, Slot: uint16(slot)}
				entries = append(entries, storage.BTreeEntry{Key: t.KeyOf(row), Value: rid.Pack()})
			}
			p.Latch.RUnlock()
			p.Unpin()
			t.Heap.Adopt(pid, free)
		}
		t.Index.Build(entries)
	}
	return nil
}

// Agent is a per-worker transaction context: it owns a log appender, an
// SLI lock cache, and the scratch its transactions build log records and
// keep rollback state in. One per agent thread.
type Agent struct {
	eng   *Engine
	ap    *core.MultiAppender
	cache *lockmgr.AgentCache
	// rec is the one log record the agent's transactions fill in and
	// append: the log only touches it during the Append call.
	rec logrec.Record
	// sc is the scratch lent to the current transaction; nil until the
	// first Begin and after a transaction took it along.
	sc *txnScratch
}

// NewAgent returns a fresh agent context.
func (e *Engine) NewAgent() *Agent {
	return &Agent{
		eng:   e,
		ap:    e.log.NewAppender(),
		cache: lockmgr.NewAgentCache(0),
	}
}

// Close releases the agent's inherited locks and its scratch (shutdown).
func (a *Agent) Close() {
	a.eng.locks.DropCache(a.cache)
	a.rec = logrec.Record{}
	a.sc = nil
}

// Begin starts a transaction on this agent. The agent must finish
// (commit or abort) the transaction before beginning another, except
// that pipelined commits detach immediately: the agent may begin the
// next transaction as soon as Commit returns. The new transaction takes
// over the agent's scratch — lock context, undo images — from the
// previous one, whose undo is dead once its commit record is appended
// and whose locks are released by then. A previous transaction that is
// still active (abandoned, or interleaved against the rule above) keeps
// the scratch, and the agent starts a new one.
func (a *Agent) Begin() *Txn {
	t := &Txn{eng: a.eng, agent: a, id: a.eng.nextTxn.Add(1), home: -1}
	t.last.Store(lsn.Undefined)
	t.lastStamp.Store(lsn.Undefined)
	t.first.Store(lsn.Undefined)
	if a.sc != nil && a.sc.owner.state.Load() != stActive {
		a.sc.rearm(t)
	} else {
		a.sc = &txnScratch{owner: t, locker: a.eng.locks.NewLocker(t.id, a.cache)}
	}
	t.sc = a.sc
	if cap(a.rec.Payload) > maxRecordBuffer {
		a.rec.Payload = nil
	}
	a.eng.mu.Lock()
	a.eng.att[t.id] = t
	a.eng.mu.Unlock()
	return t
}

// attRemove drops a finished transaction from the ATT.
func (e *Engine) attRemove(id uint64) {
	e.mu.Lock()
	delete(e.att, id)
	e.mu.Unlock()
}

// Checkpoint takes a fuzzy checkpoint: begin record, ATT+DPT snapshot in
// the end record, then (if an archive is configured) a page-cleaning
// sweep up to the durable horizon.
func (e *Engine) Checkpoint() error {
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()

	// Sample a truncation horizon first: on N lanes the sample (per-lane
	// append ends, then the seq) becomes usable as soon as the release
	// horizon passes its seq — typically by the next checkpoint.
	// Checkpoint records themselves always go to lane 0, so analysis has
	// a single place to look.
	e.log.SampleHorizon()
	beginRec := &logrec.Record{Header: logrec.Header{Kind: logrec.KindCheckpointBegin, PrevLSN: lsn.Undefined}}
	beginAt, _, _, beginStamp, err := e.ckptAp.Append(0, beginRec)
	if err != nil {
		return fmt.Errorf("txn: checkpoint begin: %w", err)
	}

	var payload logrec.CheckpointPayload
	e.mu.Lock()
	for id, t := range e.att {
		payload.ActiveTxns = append(payload.ActiveTxns, logrec.TxnTableEntry{
			TxnID: id,
			// A stamp: the payload format is the same in both domains.
			// Recovery reads the entry as a name only — the value can
			// trail the transaction's records (it is published after
			// the append returns) or run ahead of its home lane.
			LastLSN:      t.lastStamp.Load(),
			Precommitted: t.state.Load() >= stPrecommitted,
		})
	}
	e.mu.Unlock()
	payload.DirtyPages = e.store.DirtyPages()

	rec := &logrec.Record{
		Header:  logrec.Header{Kind: logrec.KindCheckpointEnd, PrevLSN: lsn.Undefined, Aux: uint64(beginAt)},
		Payload: payload.Encode(nil),
	}
	_, end, _, _, err := e.ckptAp.Append(0, rec)
	if err != nil {
		return fmt.Errorf("txn: checkpoint end: %w", err)
	}
	if err := e.waitLM(0).WaitDurable(end); err != nil {
		return fmt.Errorf("txn: checkpoint flush: %w", err)
	}
	if e.archive != nil {
		t0, fsyncs0 := time.Now(), e.archive.Fsyncs()
		n := e.store.ArchiveDirtyPages(e.archive, e.log.Durable())
		df := e.archive.Fsyncs() - fsyncs0
		// A sweep that wrote pages but cleaned none (all re-dirtied
		// mid-sweep) still did device work; count it by its fsyncs.
		if n > 0 || df > 0 {
			e.stats.Sweeps.Inc()
			e.stats.SweepPages.Add(int64(n))
			e.stats.SweepFsyncs.Add(df)
			e.stats.SweepDuration.Observe(time.Since(t0))
		}
	}
	if _, err := e.log.Truncate(e.releaseLSN(beginStamp)); err != nil {
		// The checkpoint itself is durable and the sweep succeeded;
		// failed truncation only means the horizon stays put and the
		// next checkpoint retries. Report it as a counter, not as a
		// failed checkpoint.
		e.stats.TruncateFailures.Inc()
	}
	// Truncation parks dead segments; the archiver goroutine ships them
	// to cold storage and recycles their slots off the checkpoint path,
	// and the cold store's maintenance daemon snapshots the hardened log
	// and prunes below the oldest snapshot it keeps.
	e.arch.nudge()
	e.ret.nudge()
	e.stats.Checkpoints.Inc()
	return nil
}

// releaseLSN computes the truncation horizon after a checkpoint whose
// begin record sits at ckptBegin (a stamp, like t.first and the DPT
// recLSNs): the log below
//
//	min(checkpoint begin, oldest active-txn first LSN, oldest dirty-page recLSN)
//
// is dead. Undo never needs it (every live transaction's records start
// at or above its first LSN), redo never needs it (pages dirtied below
// it were archived by the page-cleaning sweep), and analysis never needs
// it (it starts at this — now newest — checkpoint).
func (e *Engine) releaseLSN(ckptBegin lsn.LSN) lsn.LSN {
	release := ckptBegin
	e.mu.Lock()
	for _, t := range e.att {
		if f := t.first.Load(); f.Valid() && f < release {
			release = f
		}
	}
	e.mu.Unlock()
	if m := e.store.MinRecLSN(); m.Valid() && m < release {
		release = m
	}
	return release
}
