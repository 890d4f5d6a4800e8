package lockmgr

import "sync/atomic"

// sliEntry states.
const (
	// sliValid: the cached grant is inactive and adoptable (by its agent)
	// or stealable (by anyone else).
	sliValid int32 = iota
	// sliInUse: the owning agent's current transaction holds it.
	sliInUse
	// sliStolen: reclaimed; the entry is dead.
	sliStolen
)

// sliEntry is one speculatively-inherited lock: a grant retained by an
// agent thread between transactions. Ownership is arbitrated by a single
// atomic state word: the agent adopts with CAS(valid→inuse); a
// conflicting transaction steals with CAS(valid→stolen). If the steal
// loses, the stealer sets reclaim and queues; the agent returns the lock
// to the table at its next transaction boundary.
type sliEntry struct {
	key     Key
	mode    Mode
	state   atomic.Int32
	reclaim atomic.Bool
}

// AgentCache holds the table-level locks an agent thread has inherited
// across transactions (Locker.ReleaseAll never offers it a row lock). It
// is owned by exactly one goroutine (the agent); cross-thread
// coordination happens only through entry atomics.
type AgentCache struct {
	entries map[Key]*sliEntry
	// ring is the FIFO eviction order: the n cached keys, oldest at
	// head, in a fixed array of cap slots.
	ring    []Key
	head, n int
	// free holds dead entries for newEntry to reuse. An entry may go
	// here only once nothing else can reach it: the agent read
	// sliStolen from it (whoever stored that was done with it) and it
	// is in neither the lock table nor a Locker's held set.
	free []*sliEntry
}

// NewAgentCache returns a cache bounded to capacity entries (default 64).
func NewAgentCache(capacity int) *AgentCache {
	if capacity <= 0 {
		capacity = 64
	}
	return &AgentCache{entries: make(map[Key]*sliEntry, capacity), ring: make([]Key, capacity)}
}

func (c *AgentCache) get(key Key) *sliEntry { return c.entries[key] }

func (c *AgentCache) slot(i int) *Key { return &c.ring[(c.head+i)%len(c.ring)] }

// newEntry returns a valid entry for key, reusing a dead one if there is
// one.
func (c *AgentCache) newEntry(key Key, mode Mode) *sliEntry {
	e := popFree(&c.free)
	if e == nil {
		e = new(sliEntry)
	}
	e.key, e.mode = key, mode
	e.reclaim.Store(false)
	e.state.Store(sliValid)
	return e
}

// remove forgets key's entry, and recycles it if it is dead (see free).
// An entry still in use by a transaction, or one the agent's previous
// transaction is releasing from the flush daemon (ReleaseAllToTable), is
// left to the collector.
func (c *AgentCache) remove(key Key) {
	e := c.entries[key]
	if e == nil {
		return
	}
	delete(c.entries, key)
	if *c.slot(0) == key {
		// The oldest key, as in every eviction: advance the head.
		c.head = (c.head + 1) % len(c.ring)
		c.n--
	} else {
		for i := 1; i < c.n; i++ {
			if *c.slot(i) == key {
				for ; i < c.n-1; i++ {
					*c.slot(i) = *c.slot(i + 1)
				}
				c.n--
				break
			}
		}
	}
	if e.state.Load() == sliStolen && len(c.free) < len(c.ring) {
		c.free = append(c.free, e)
	}
}

// Len returns the number of cached entries.
func (c *AgentCache) Len() int { return len(c.entries) }

// heldLock is a Locker's record of one held lock.
type heldLock struct {
	mode Mode
	sli  *sliEntry // non-nil if adopted from the agent cache
	// escalated marks a table lock an escalation took or strengthened:
	// it goes back to the table at release, never into the agent cache.
	escalated bool
}

// tableRows is a Locker's escalation state for one table.
type tableRows struct {
	space uint32
	// rows counts the row locks taken on the table since the last
	// escalation attempt there (or since the transaction began): an S
	// escalation that a write later finds too weak is tried again, for
	// X, escalateAfter uncovered rows on.
	rows int
	// covers is ModeS or ModeX once an escalation was granted: the row
	// requests the table lock covers. ModeNone before.
	covers Mode
}

// escalateAfter is how many row locks a transaction takes on one table
// before it asks for the whole table instead (Locker).
const escalateAfter = 64

// Locker is a transaction's lock context. Not safe for concurrent use —
// a transaction acquires locks from its one agent thread.
//
// A Locker escalates. When a transaction is about to take its
// escalateAfter+1st row lock on one table, it asks for the table in S or
// X, whichever covers the row request, and it only asks: the request is
// granted at once or refused, never queued (Manager.tryAcquire). Granted,
// every later row request the table lock covers returns without visiting
// the lock table, so a bulk transaction holds at most escalateAfter row
// locks and one table lock per table; the escalated lock goes back to the
// table at release, never into the agent cache. Refused — another
// transaction holds the table in a conflicting mode, IS or IX included —
// the transaction goes on taking row locks and asks again escalateAfter
// rows later. A transaction that never gets there pays one counter
// increment per row lock.
type Locker struct {
	m     *Manager
	txn   uint64
	cache *AgentCache // shared across the agent's transactions; may be nil
	held  map[Key]heldLock
	// tables is the escalation state of each table the transaction took
	// row locks on: a handful, so a slice searched in order beats a map.
	tables []tableRows
}

// NewLocker returns a lock context for a transaction. cache may be nil
// (no inheritance); pass the agent's cache to enable SLI.
func (m *Manager) NewLocker(txnID uint64, cache *AgentCache) *Locker {
	if !m.cfg.SLI {
		cache = nil
	}
	return &Locker{m: m, txn: txnID, cache: cache, held: make(map[Key]heldLock, 8), tables: make([]tableRows, 0, 4)}
}

// Reset re-arms the locker for a new transaction: txn.Agent.Begin keeps
// one Locker per agent and calls this instead of NewLocker. Every lock
// must have been released, and by the calling goroutine — a locker whose
// release runs elsewhere (ReleaseAllToTable on the flush daemon) is not
// reusable and must be replaced instead.
func (l *Locker) Reset(txnID uint64) {
	if len(l.held) != 0 {
		panic("lockmgr: Reset with locks held")
	}
	l.txn = txnID
	l.tables = l.tables[:0]
}

// HeldCount returns the number of locks this transaction holds.
func (l *Locker) HeldCount() int { return len(l.held) }

// Acquire obtains key in at least the requested mode, blocking as needed.
// It returns ErrLockTimeout if the wait exceeds the deadlock timeout, in
// which case the transaction should abort. A row request may instead
// escalate to, or be covered by, its table's lock (Locker).
func (l *Locker) Acquire(key Key, mode Mode) error {
	l.m.stats.Acquires.Inc()
	var tr *tableRows
	if !key.IsTable() {
		tr = l.tableRows(key.Space)
		if tr.covers != ModeNone && Covers(tr.covers, mode) {
			return nil
		}
	}
	if h, ok := l.held[key]; ok {
		if Covers(h.mode, mode) {
			return nil
		}
		target := Supremum(h.mode, mode)
		if h.sli != nil {
			// Upgrading an inherited lock: first convert it to a normal
			// grant, then upgrade through the table. Whether or not the
			// upgrade succeeds, the grant is now an ordinary one of ours
			// and the cache entry is dead.
			err := l.m.adoptCached(l.txn, h.sli, target)
			h.sli.state.Store(sliStolen)
			l.cache.remove(key)
			if err != nil {
				l.held[key] = heldLock{mode: h.mode}
				return err
			}
			l.held[key] = heldLock{mode: target}
			return nil
		}
		if err := l.m.acquire(l.txn, key, target, true); err != nil {
			return err
		}
		l.held[key] = heldLock{mode: target, escalated: h.escalated}
		return nil
	}

	if tr != nil {
		if tr.rows == escalateAfter {
			tr.rows = 0
			if l.escalate(tr, mode) {
				return nil
			}
		}
		tr.rows++
	}

	// Speculative lock inheritance fast path: only table locks are ever
	// cached.
	if l.cache != nil && key.IsTable() {
		if e := l.cache.get(key); e != nil {
			if e.state.CompareAndSwap(sliValid, sliInUse) {
				if Covers(e.mode, mode) {
					l.m.stats.SLIHits.Inc()
					l.held[key] = heldLock{mode: e.mode, sli: e}
					return nil
				}
				// Cached mode too weak: adopt and upgrade. If the upgrade
				// fails the grant is still back in the table under our
				// txn; record what we do hold so abort releases it.
				cached := e.mode
				err := l.m.adoptCached(l.txn, e, Supremum(cached, mode))
				e.state.Store(sliStolen)
				l.cache.remove(key)
				if err != nil {
					l.held[key] = heldLock{mode: cached}
					return err
				}
				l.held[key] = heldLock{mode: Supremum(cached, mode)}
				return nil
			}
			// Stolen while cached: forget it.
			l.cache.remove(key)
		}
	}

	if err := l.m.acquire(l.txn, key, mode, false); err != nil {
		return err
	}
	l.held[key] = heldLock{mode: mode}
	return nil
}

// ReleaseAll drops every lock the transaction holds. With ELR this is
// called immediately after the commit record is inserted in the log —
// before the flush — which is the entire mechanism of early lock release.
// With SLI enabled, uncontended table locks are retained in the agent
// cache instead of being returned to the table; row locks always go back.
func (l *Locker) ReleaseAll() {
	for key, h := range l.held {
		switch {
		case h.escalated:
			l.m.release(l.txn, key)
		case h.sli != nil:
			// Adopted from the cache: give it back, or surrender it if a
			// conflicting transaction asked for it meanwhile. Publish
			// first, then check: a stealer that finds the entry in use
			// sets reclaim and queues, so reading reclaim before the
			// store would lose a request made between the two, and the
			// waiter would sit out the deadlock timeout behind a lock
			// nobody is going to hand back. After the store, either the
			// stealer's CAS takes the entry or we see its flag.
			h.sli.state.Store(sliValid)
			if h.sli.reclaim.Load() && h.sli.state.CompareAndSwap(sliValid, sliStolen) {
				l.m.releaseCachedGrant(h.sli)
				l.cache.remove(key)
			}
		case l.cache != nil && key.IsTable():
			if e := l.m.tryCacheGrant(l.txn, key, l.cache); e != nil {
				l.cachePut(key, e)
			}
		default:
			l.m.release(l.txn, key)
		}
	}
	l.resetHeld()
}

// resetHeld forgets every held lock and every table's escalation state.
func (l *Locker) resetHeld() {
	if len(l.held) > maxHeldReuse {
		l.held = make(map[Key]heldLock, 8)
	} else {
		clear(l.held)
	}
	l.tables = l.tables[:0]
}

// maxHeldReuse is the most locks a transaction may have held for its
// Locker's map to be kept for the next one: a Go map never shrinks, so
// the map a transaction grew past this is replaced rather than carried
// by the session for life. Escalation holds a bulk transaction to
// escalateAfter row locks and one table lock per table, so 2 ×
// escalateAfter keeps the map of every OLTP transaction and of a bulk
// load into one table; only row locks on tables that refused to
// escalate can outgrow it.
const maxHeldReuse = 2 * escalateAfter

// tableRows returns space's escalation state, adding it if the
// transaction has none yet.
func (l *Locker) tableRows(space uint32) *tableRows {
	for i := range l.tables {
		if l.tables[i].space == space {
			return &l.tables[i]
		}
	}
	l.tables = append(l.tables, tableRows{space: space})
	return &l.tables[len(l.tables)-1]
}

// escalate asks, without waiting, for tr's table in the mode that covers
// a row request in mode: S for a read, X otherwise, joined with whatever
// the transaction holds on the table already. It reports whether the
// lock was granted; refused, the transaction holds what it held before.
func (l *Locker) escalate(tr *tableRows, mode Mode) bool {
	covers := ModeX
	if Covers(ModeS, mode) {
		covers = ModeS
	}
	key := TableKey(tr.space)
	h, held := l.held[key]
	if h.sli != nil {
		// Adopted from the agent cache: make it an ordinary grant of
		// ours first, in the mode it has (which never waits). An
		// escalated lock does not go back to the cache.
		err := l.m.adoptCached(l.txn, h.sli, h.mode)
		h.sli.state.Store(sliStolen)
		l.cache.remove(key)
		h.sli = nil
		l.held[key] = h
		if err != nil {
			return false
		}
	}
	target := Supremum(h.mode, covers)
	if !l.m.tryAcquire(l.txn, key, target, held) {
		l.m.stats.EscalationsRefused.Inc()
		return false
	}
	l.held[key] = heldLock{mode: target, escalated: true}
	tr.covers = covers
	l.m.stats.Escalations.Inc()
	return true
}

// cachePut records a newly cached grant, evicting the oldest entry if
// the cache is full.
func (l *Locker) cachePut(key Key, e *sliEntry) {
	c := l.cache
	if old, ok := c.entries[key]; ok && old != e {
		// Shouldn't happen (a key is cached once), but never leak a grant.
		if old.state.CompareAndSwap(sliValid, sliStolen) {
			l.m.releaseCachedGrant(old)
		}
		c.remove(key)
	}
	if c.n == len(c.ring) {
		victim := *c.slot(0)
		if ve := c.entries[victim]; ve.state.CompareAndSwap(sliValid, sliStolen) {
			l.m.releaseCachedGrant(ve)
		} else {
			// Stolen already, or adopted by the transaction that is
			// releasing right now and not yet handed back: have
			// ReleaseAll return it to the table when it gets there. Left
			// alone it would go back to sliValid with no cache to find
			// it in, and stay granted until somebody conflicted with it.
			ve.reclaim.Store(true)
		}
		c.remove(victim)
	}
	c.entries[key] = e
	*c.slot(c.n) = key
	c.n++
}

// ReleaseAllToTable drops every held lock directly into the lock table,
// bypassing the agent cache entirely. Unlike ReleaseAll it is safe to
// call from a goroutine other than the agent's (the flush daemon, for
// the pipelined-without-ELR ablation): it never mutates the AgentCache —
// adopted entries are marked stolen in place and the owning agent
// garbage-collects them on its next miss.
func (l *Locker) ReleaseAllToTable() {
	for key, h := range l.held {
		if h.sli != nil {
			// Storing sliStolen comes last: the agent may recycle the
			// entry once it reads that.
			l.m.releaseCachedGrant(h.sli)
			h.sli.state.Store(sliStolen)
		} else {
			l.m.release(l.txn, key)
		}
	}
	l.resetHeld()
}

// DropCache releases every lock the agent cache still holds (agent
// shutdown), on the agent's goroutine. The cache is empty afterwards.
func (m *Manager) DropCache(c *AgentCache) {
	for key, e := range c.entries {
		if e.state.CompareAndSwap(sliValid, sliStolen) {
			m.releaseCachedGrant(e)
		}
		delete(c.entries, key)
	}
	c.head, c.n = 0, 0
	c.free = nil
}

// DropCache is Manager.DropCache on the locker's cache, if it has one.
func (l *Locker) DropCache() {
	if l.cache != nil {
		l.m.DropCache(l.cache)
	}
}
