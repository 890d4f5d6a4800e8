// Package txn is the transactional storage manager: it glues the lock
// manager, the storage engine and the Aether log into ACID transactions
// with every commit strategy the paper studies — synchronous (baseline),
// synchronous with Early Lock Release, unsafe asynchronous commit, and
// Flush Pipelining.
//
// The package plays the role Shore-MT plays in the paper: the substrate
// whose transactions exercise the log. Restart is the only way to build
// an Engine, over fresh devices or ones holding a log to recover.
//
// An Engine runs at most three background daemons, one loop each
// (daemon.go): the incremental checkpointer (CheckpointEveryBytes), the
// page cleaner (CleanerPages), and the cold tier (ColdConfig, cold.go),
// whose one pass archives every archiving lane's dead segments, then
// snapshots the page file and prunes. Every checkpoint nudges the cold
// tier once.
package txn

import (
	"encoding/binary"
	"errors"
	"fmt"
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

// Blocking reports whether Commit parks the calling agent until the
// commit record is durable: CommitSync and CommitSyncELR.
func (m CommitMode) Blocking() bool { return m == CommitSync || m == CommitSyncELR }

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
	// SegmentsArchived counts dead log segments the cold-tier daemon
	// shipped to cold storage before recycling their slots.
	SegmentsArchived metrics.Counter
	// ArchiveFailures counts background archive passes that errored
	// (cold storage down); the affected segments stay pending on disk.
	ArchiveFailures metrics.Counter
	// ArchiveRetries counts backoff retries of a failed archive pass:
	// transient cold-store outages are retried in-loop with bounded
	// exponential backoff + jitter before the pass gives up.
	ArchiveRetries metrics.Counter
	// ArchiveGaveUp counts archive passes abandoned after the retry
	// budget was exhausted. The dead segments stay on disk; the next
	// nudge (any later truncation, restore, or Close-side drain) tries
	// again, so nothing is lost — only delayed.
	ArchiveGaveUp metrics.Counter
	// CleanerFailures counts background cleaner passes that errored (log
	// force or archive writeback failed); the affected pages stay dirty
	// and the next pass — or a demand steal, or the sweep — retries.
	CleanerFailures metrics.Counter
	// SnapshotsTaken counts snapshots (a checkpoint's page images and
	// their manifest) the cold-tier daemon uploaded to the cold store.
	SnapshotsTaken metrics.Counter
	// RetentionPrunedObjects counts cold-store objects (manifests, images
	// objects and segments) retention deleted — none that the oldest
	// retained snapshot, or the log from its low-water marks, needs.
	RetentionPrunedObjects metrics.Counter
	// RetentionFailures counts the snapshot and prune steps of cold-tier
	// passes that errored; nothing is lost — the next nudge retries with
	// the floor unchanged.
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
	// slots are the slots (logrec.Header.Slot) no agent holds, the next
	// to lend last. An agent made while none is free names its
	// transactions in full.
	slots []uint8

	nextTxn atomic.Uint64

	ckptMu sync.Mutex
	ckptAp *core.MultiAppender
	// lastCkpt is the newest checkpoint this engine completed, which the
	// cold tier's next snapshot follows; nil before the first.
	lastCkpt atomic.Pointer[checkpointMark]

	// The background workers; nil when not configured. ckpt is the
	// incremental checkpointer, cold the cold tier (archiving, snapshots,
	// pruning; cold.go), clean the page cleaner.
	ckpt, cold, clean *daemon

	closeOnce sync.Once
}

// newEngine builds the engine over Restart's recovered log and store
// and starts the background workers cfg arms.
func newEngine(cfg RestartConfig, log *core.MultiLog, store *storage.Store) *Engine {
	n := log.NumParts()
	route := cfg.RoutePartition
	if route == nil {
		route = func(_ uint64, space uint32) int { return int(space) }
	}
	e := &Engine{
		log:     log,
		route:   func(txnID uint64, space uint32) int { return route(txnID, space) % n },
		locks:   lockmgr.New(cfg.LockConfig),
		store:   store,
		archive: cfg.Archive,
		tables:  make(map[string]*Table),
		spaces:  make(map[uint32]*Table),
		att:     make(map[uint64]*Txn),
		slots:   make([]uint8, logrec.MaxSlot),
		ckptAp:  log.NewAppender(),
	}
	for i := range e.slots {
		e.slots[i] = uint8(logrec.MaxSlot - i)
	}
	if cfg.CheckpointEveryBytes > 0 {
		e.startAutoCheckpoint(cfg.CheckpointEveryBytes)
	}
	if len(cfg.Cold.Lanes) > 0 {
		e.startCold(cfg.Cold)
	}
	if cfg.CleanerPages > 0 {
		e.startCleaner(cfg.CleanerPages)
	}
	return e
}

// waitLM returns the log manager a transaction homed on lane `home`
// waits on (home < 0 — nothing logged yet — maps to lane 0, the system
// lane).
func (e *Engine) waitLM(home int) *core.LogManager {
	return e.log.Part(max(home, 0))
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

// cleanerInterval is the page cleaner's polling cadence. Demand steals
// nudge the cleaner awake at once, so the interval only bounds how stale
// its headroom view can get between bursts.
const cleanerInterval = 2 * time.Millisecond

// startCleaner wires the background page cleaner: a daemon that
// pre-cleans dirty, cold pages whenever the buffer pool's free-or-clean
// headroom drops below pages. It wakes on a short ticker and — more
// importantly — on every demand steal (the store's steal-pressure
// callback), so a burst that outruns the ticker immediately re-arms it.
// Like the checkpointer and the cold tier, its work happens entirely off
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
func (e *Engine) daemons() [3]*daemon {
	return [3]*daemon{e.ckpt, e.cold, e.clean}
}

// Close stops the background incremental checkpointer, the cold-tier
// daemon and the page cleaner, waiting for in-flight work to finish: all
// three are told to stop before any is waited on. Call it before closing the log. It is idempotent and
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
// SLI lock cache (the table-level locks its transactions inherit from one
// another; row locks are never cached), the scratch its transactions
// build log records and keep rollback state in, a slot that names them in
// the log after their first record, and the Txn objects themselves,
// which Begin reuses once nothing can reach them (ARCHITECTURE.md, "What
// an agent owns"). One per agent thread.
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
	// slot is the slot the engine lent the agent, which each new scratch
	// carries; 0 if none was free, and once the agent gave it up (Begin).
	slot uint8
	// free is the stack of the agent's finished transactions, linked
	// through Txn.next. Whichever goroutine finishes a transaction pushes
	// it (recycle: the flush daemon, for a detached one); only Begin, on
	// the agent's goroutine, pops, so a pop cannot meet its own ABA.
	free atomic.Pointer[Txn]
}

// NewAgent returns a fresh agent context, holding one of the engine's
// slots if one is free.
func (e *Engine) NewAgent() *Agent {
	a := &Agent{
		eng:   e,
		ap:    e.log.NewAppender(),
		cache: lockmgr.NewAgentCache(0),
	}
	e.mu.Lock()
	if n := len(e.slots); n > 0 {
		a.slot, e.slots = e.slots[n-1], e.slots[:n-1]
	}
	e.mu.Unlock()
	return a
}

// Close releases the agent's inherited locks, its scratch and its
// finished transactions (shutdown), and gives its slot back to the
// engine — or, when a transaction that can still log holds it, leaves it
// to that transaction to give back when it finishes
// (txnScratch.giveSlotBack).
func (a *Agent) Close() {
	a.eng.locks.DropCache(a.cache)
	if sc := a.sc; sc != nil {
		a.leave(sc)
	}
	if a.slot != 0 {
		a.eng.putSlot(a.slot)
	}
	a.rec = logrec.Record{}
	a.sc, a.slot = nil, 0
	a.free.Store(nil)
}

// leave is the agent moving on from sc, its scratch: when sc's
// transaction is still active, the scratch stays with it, and so does
// the agent's slot if sc carries it.
func (a *Agent) leave(sc *txnScratch) {
	if t := sc.owner; t.state.Load() == stActive {
		t.ownsScratch = true
		if sc.slot != 0 {
			sc.orphan.Store(true)
			a.slot = 0
		}
	}
}

// putSlot returns a slot to the engine's pool.
func (e *Engine) putSlot(slot uint8) {
	e.mu.Lock()
	e.slots = append(e.slots, slot)
	e.mu.Unlock()
}

// recycle puts t, finished and out of the ATT, back on its agent's free
// list. It is the last thing anything does with t: once it returns, the
// agent's next Begin may hand t out as another transaction.
func (a *Agent) recycle(t *Txn) {
	for {
		head := a.free.Load()
		t.next = head
		if a.free.CompareAndSwap(head, t) {
			return
		}
	}
}

// reuse pops a finished transaction off the free list, or makes one when
// every Txn the agent owns is still in use — the one place a Txn is made.
func (a *Agent) reuse() *Txn {
	for {
		t := a.free.Load()
		if t == nil {
			return &Txn{eng: a.eng, agent: a}
		}
		if a.free.CompareAndSwap(t, t.next) {
			return t
		}
	}
}

// Begin starts a transaction on this agent. The agent must finish
// (commit or abort) the transaction before beginning another, except
// that pipelined commits detach immediately: the agent may begin the
// next transaction as soon as Commit returns. The Txn is one the agent
// made before and got back once nothing could reach it any more
// (recycle), so a caller must not use a Txn after finishing it: the
// same pointer may already be a later transaction (aether.Tx guards its
// handle by the ID Begin returned).
//
// The new transaction takes over the agent's scratch — lock context,
// undo images — from the previous one, whose undo is dead once its
// commit record is appended and whose locks are released by then. So
// does the scratch's slot: the previous transaction can log nothing more
// under it. A previous transaction that is still active (abandoned, or
// interleaved against the rule above) keeps the scratch and its slot,
// and the agent starts a new scratch without one: the older transaction
// gives the slot back to the engine once it can log no more, and the
// agent takes a slot again, if one is free, at a later Begin. A scratch
// that left the agent with its transaction comes back with it, and
// serves again when the agent has none.
func (a *Agent) Begin() *Txn {
	t := a.reuse()
	var spare *txnScratch
	if t.ownsScratch {
		spare = t.sc
	}
	take := false // the agent has no slot and may take one
	// Read the owner's state before t is reset: the owner may be t.
	if a.sc != nil && a.sc.owner.state.Load() != stActive {
		take = a.slot == 0
	} else {
		if a.sc != nil {
			a.leave(a.sc)
		}
		if spare == nil {
			spare = &txnScratch{locker: a.eng.locks.NewLocker(0, a.cache)}
		}
		spare.slot = a.slot
		a.sc = spare
	}
	t.reset(a.eng.nextTxn.Add(1), a.sc)
	if cap(a.rec.Payload) > maxRecordBuffer {
		a.rec.Payload = nil
	}
	e := a.eng
	e.mu.Lock()
	e.att[t.id] = t
	if n := len(e.slots); take && n > 0 {
		a.slot, e.slots = e.slots[n-1], e.slots[:n-1]
		a.sc.slot = a.slot
	}
	e.mu.Unlock()
	return t
}

// attRemove drops a finished transaction from the ATT.
func (e *Engine) attRemove(id uint64) {
	e.mu.Lock()
	delete(e.att, id)
	e.mu.Unlock()
}

// Checkpoint takes a fuzzy checkpoint: begin record, ATT+DPT snapshot in
// the end records (logrec.CheckpointPayload's chunks), then (if an
// archive is configured) a page-cleaning sweep up to the durable horizon.
func (e *Engine) Checkpoint() error {
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()

	// Sample a truncation horizon first: on N lanes the sample (per-lane
	// append ends, then the seq) becomes usable as soon as the release
	// horizon passes its seq — typically by the next checkpoint.
	// Checkpoint records themselves always go to lane 0, so analysis has
	// a single place to look.
	e.log.SampleHorizon()
	beginRec := &logrec.Record{Header: logrec.Header{Kind: logrec.KindCheckpointBegin}}
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

	// The tables go to the log in chunks, each an end record of the same
	// Aux; recovery uses the checkpoint once its last chunk is durable.
	var end, endStamp lsn.LSN
	rec := &logrec.Record{Header: logrec.Header{Kind: logrec.KindCheckpointEnd, Aux: uint64(beginAt)}}
	for _, chunk := range payload.EncodeChunks(ckptChunk) {
		rec.Payload = chunk
		if _, end, endStamp, _, err = e.ckptAp.Append(0, rec); err != nil {
			return fmt.Errorf("txn: checkpoint end: %w", err)
		}
	}
	if err := e.waitLM(0).WaitDurable(end); err != nil {
		return fmt.Errorf("txn: checkpoint flush: %w", err)
	}
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
	if _, err := e.log.Truncate(e.releaseLSN(beginStamp)); err != nil {
		// The checkpoint itself is durable and the sweep succeeded;
		// failed truncation only means the horizon stays put and the
		// next checkpoint retries. Report it as a counter, not as a
		// failed checkpoint.
		e.stats.TruncateFailures.Inc()
	}
	mark := &checkpointMark{begin: beginAt, end: endStamp, lowWater: make([]uint64, e.log.NumParts())}
	for i := range mark.lowWater {
		mark.lowWater[i] = uint64(e.log.Part(i).Base())
	}
	e.lastCkpt.Store(mark)
	// Truncation kills segments; the cold-tier daemon ships them to
	// the cold store and recycles their slots off the checkpoint path,
	// then snapshots the page file this sweep left and prunes below the
	// oldest snapshot it keeps.
	e.cold.nudge()
	e.stats.Checkpoints.Inc()
	return nil
}

// ckptChunk bounds a checkpoint chunk's payload so that its record, whose
// header takes at most 18 bytes, fits an appender's encode buffer: about
// 250 dirty pages a chunk, far below any ring's group limit.
const ckptChunk = core.AppenderScratch - 32

// checkpointMark is what a snapshot needs of the checkpoint it follows:
// its begin record's lane-0 address, its end record's page stamp (which
// the restore point must reach), and each lane's base right after the
// checkpoint's truncation — where a restart, so a restore, reads from.
type checkpointMark struct {
	begin, end lsn.LSN
	lowWater   []uint64
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
