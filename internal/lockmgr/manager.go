package lockmgr

import (
	"errors"
	"sync"
	"time"

	"aether/internal/metrics"
)

// ErrLockTimeout is returned when a lock request waits longer than the
// deadlock timeout. The transaction must abort; timeout is the deadlock
// resolution policy (as in many production systems).
var ErrLockTimeout = errors.New("lockmgr: lock wait timeout (possible deadlock)")

// partitionBits is log2 of the number of lock-table shards: the low
// partitionBits of Key.hash pick a key's partition, and the bits above
// them its bucket there.
const partitionBits = 7

// lockPartitions is the number of lock-table shards.
const lockPartitions = 1 << partitionBits

// Config parameterizes a Manager.
type Config struct {
	// DeadlockTimeout bounds any single lock wait. Default 500ms.
	DeadlockTimeout time.Duration
	// SLI enables speculative lock inheritance: agent threads keep the
	// table-level locks they took, uncontended, across transactions in
	// an AgentCache, bypassing the lock table on the next request for
	// them. As in Shore-MT, whose SLI the paper's experiments run with to
	// keep the lock manager off the critical path (§6.1), row locks are
	// never inherited: they rarely repeat, so caching one only delays its
	// release to an eviction.
	SLI bool
}

func (c *Config) applyDefaults() {
	if c.DeadlockTimeout <= 0 {
		c.DeadlockTimeout = 500 * time.Millisecond
	}
}

// Stats exposes lock-manager counters.
type Stats struct {
	// Acquires counts lock requests (including re-acquires).
	Acquires metrics.Counter
	// Blocks counts requests that had to wait.
	Blocks metrics.Counter
	// Timeouts counts deadlock-timeout aborts.
	Timeouts metrics.Counter
	// Upgrades counts mode conversions.
	Upgrades metrics.Counter
	// SLIHits counts lock requests satisfied from an agent cache.
	SLIHits metrics.Counter
	// SLISteals counts cached locks reclaimed by other transactions.
	SLISteals metrics.Counter
	// Escalations counts table locks granted in place of a
	// transaction's row locks (Locker).
	Escalations metrics.Counter
	// EscalationsRefused counts escalations refused because another
	// transaction held the table in a conflicting mode.
	EscalationsRefused metrics.Counter
	// WaitTime records blocking lock-wait durations.
	WaitTime metrics.Histogram
}

// Manager is the lock table.
type Manager struct {
	cfg   Config
	parts []partition
	stats Stats
}

// partition is one lock-table shard: a chained hash table of lock heads,
// indexed by the key's hash above the partition bits (the hash the
// manager computed to pick the partition), with a power-of-two bucket
// array that doubles when the heads outnumber the buckets and, like a Go
// map, never shrinks. Lock heads and grants that leave the table go onto
// its free lists (under mu, which every path that creates or drops one
// already holds) and come back from there, so a steady stream of
// acquire/release allocates nothing. The struct is padded to two cache
// lines, so neighbouring partitions' latches never share one.
type partition struct {
	mu         sync.Mutex
	buckets    []*lockHead
	heads      int // heads linked into buckets
	freeHeads  []*lockHead
	freeGrants []*grant
	_          [40]byte
}

// initialBuckets is each partition's bucket count before it grows: a
// steady OLTP load keeps a few heads per partition.
const initialBuckets = 8

// maxFreeNodes bounds each of a partition's free lists: a transaction's
// handful of locks spreads over 128 partitions, so 16 covers any steady
// state, and what a 20 000-row load leaves behind is collected rather
// than pinned (at most 128 x 16 heads and grants, ~250 kB).
const maxFreeNodes = 16

// popFree takes the last node off a free list; nil if it is empty.
func popFree[T any](list *[]*T) *T {
	n := len(*list)
	if n == 0 {
		return nil
	}
	node := (*list)[n-1]
	*list = (*list)[:n-1]
	return node
}

// find returns key's lock head, or nil. hash is key.hash() >>
// partitionBits. Caller holds p.mu.
func (p *partition) find(key Key, hash uint64) *lockHead {
	for h := p.buckets[hash&uint64(len(p.buckets)-1)]; h != nil; h = h.next {
		if h.key == key {
			return h
		}
	}
	return nil
}

// head returns key's lock head, creating it if absent. hash is as for
// find. Caller holds p.mu.
func (p *partition) head(key Key, hash uint64) *lockHead {
	if h := p.find(key, hash); h != nil {
		return h
	}
	if p.heads >= len(p.buckets) {
		p.grow()
	}
	h := popFree(&p.freeHeads)
	if h == nil {
		h = new(lockHead)
	}
	h.key, h.hash = key, hash
	p.link(h)
	p.heads++
	return h
}

// link puts h at the front of its bucket's chain. Caller holds p.mu.
func (p *partition) link(h *lockHead) {
	b := &p.buckets[h.hash&uint64(len(p.buckets)-1)]
	h.next, *b = *b, h
}

// grow doubles the bucket array and relinks every head. Caller holds
// p.mu.
func (p *partition) grow() {
	old := p.buckets
	p.buckets = make([]*lockHead, 2*len(old))
	for _, h := range old {
		for h != nil {
			next := h.next
			p.link(h)
			h = next
		}
	}
}

// dropIfIdle removes h from the table once nothing is granted or queued
// on it. Caller holds p.mu.
func (p *partition) dropIfIdle(h *lockHead) {
	if len(h.grants) != 0 || len(h.queue) != 0 {
		return
	}
	for link := &p.buckets[h.hash&uint64(len(p.buckets)-1)]; *link != nil; link = &(*link).next {
		if *link == h {
			*link = h.next
			break
		}
	}
	h.next = nil
	p.heads--
	if len(p.freeHeads) < maxFreeNodes {
		p.freeHeads = append(p.freeHeads, h)
	}
}

// grant adds a grant for owner to h. Caller holds p.mu.
func (p *partition) grant(h *lockHead, owner uint64, mode Mode) {
	g := popFree(&p.freeGrants)
	if g == nil {
		g = new(grant)
	}
	*g = grant{owner: owner, mode: mode}
	h.grants = append(h.grants, g)
}

// ungrant removes g from h. Nothing may refer to g afterwards. Caller
// holds p.mu.
func (p *partition) ungrant(h *lockHead, g *grant) {
	for i, o := range h.grants {
		if o == g {
			last := len(h.grants) - 1
			copy(h.grants[i:], h.grants[i+1:])
			h.grants[last] = nil
			h.grants = h.grants[:last]
			break
		}
	}
	g.sli = nil
	if len(p.freeGrants) < maxFreeNodes {
		p.freeGrants = append(p.freeGrants, g)
	}
}

// lockHead is the per-object lock state: granted set plus FIFO queue,
// linked into its partition's bucket chain by next.
type lockHead struct {
	key    Key
	hash   uint64 // key.hash() >> partitionBits
	next   *lockHead
	grants []*grant
	queue  []*waiter
}

// grant is one granted lock. sli is non-nil for an inactive cached grant
// retained by an agent between transactions (speculative lock
// inheritance).
type grant struct {
	owner uint64
	mode  Mode
	sli   *sliEntry
}

// waiter is one queued request. For upgrades, mode is the conversion
// target. granted is written and read under the partition mutex.
type waiter struct {
	owner   uint64
	mode    Mode
	upgrade bool
	granted bool
	ch      chan struct{}
}

// New builds a lock manager.
func New(cfg Config) *Manager {
	cfg.applyDefaults()
	m := &Manager{cfg: cfg, parts: make([]partition, lockPartitions)}
	for i := range m.parts {
		m.parts[i].buckets = make([]*lockHead, initialBuckets)
	}
	return m
}

// Stats returns the manager's counters.
func (m *Manager) Stats() *Stats { return &m.stats }

// part returns k's partition and k's hash above the partition bits, the
// index find and head take.
func (m *Manager) part(k Key) (*partition, uint64) {
	h := k.hash()
	return &m.parts[h%lockPartitions], h >> partitionBits
}

func (h *lockHead) findGrant(owner uint64) *grant {
	for _, g := range h.grants {
		if g.sli == nil && g.owner == owner {
			return g
		}
	}
	return nil
}

func (h *lockHead) removeWaiter(w *waiter) {
	for i, o := range h.queue {
		if o == w {
			h.queue = append(h.queue[:i], h.queue[i+1:]...)
			return
		}
	}
}

// canGrant reports whether mode is compatible with every grant on h
// other than own (the requester's existing grant when converting, nil
// for a fresh request). Caller holds the partition mutex.
func (h *lockHead) canGrant(mode Mode, own *grant) bool {
	for _, g := range h.grants {
		if g != own && !Compatible(g.mode, mode) {
			return false
		}
	}
	return true
}

// grantWaiters satisfies the longest grantable prefix of h's queue
// (FIFO; upgrades sit at the front). Caller holds p.mu.
func (p *partition) grantWaiters(h *lockHead) {
	for len(h.queue) > 0 {
		w := h.queue[0]
		var own *grant
		if w.upgrade {
			own = h.findGrant(w.owner)
		}
		if !h.canGrant(w.mode, own) {
			return
		}
		h.queue[0] = nil
		h.queue = h.queue[1:]
		if own != nil {
			own.mode = w.mode
		} else {
			p.grant(h, w.owner, w.mode)
		}
		w.granted = true
		close(w.ch)
	}
}

// stealCachedConflicts removes or flags inactive cached grants that
// conflict with a request in the given mode. Caller holds p.mu.
func (m *Manager) stealCachedConflicts(p *partition, h *lockHead, mode Mode) {
	for i := 0; i < len(h.grants); {
		g := h.grants[i]
		if g.sli != nil && !Compatible(g.mode, mode) && g.sli.stealOrFlag() {
			p.ungrant(h, g)
			m.stats.SLISteals.Inc()
			continue
		}
		i++
	}
}

// stealOrFlag takes e if it is inactive, and otherwise asks the
// transaction using it to return the lock to the table when it commits
// (Locker.ReleaseAll). Both sides publish and then check — the owner
// stores sliValid and then loads reclaim, the stealer stores reclaim and
// then tries the steal again — so a request can not fall between the
// owner's check and its publication with neither side noticing. A
// successful CAS is the stealer's last access to e: its agent may recycle
// the entry as soon as it reads sliStolen.
func (e *sliEntry) stealOrFlag() (stolen bool) {
	if e.state.CompareAndSwap(sliValid, sliStolen) {
		return true
	}
	e.reclaim.Store(true)
	return e.state.CompareAndSwap(sliValid, sliStolen)
}

// acquire is the slow path: take the partition latch, try to grant, and
// otherwise wait in the queue. If convert is true the owner already holds
// the lock and mode is the conversion target. A waiter and its channel
// exist only for a request that actually queues.
func (m *Manager) acquire(owner uint64, key Key, mode Mode, convert bool) error {
	p, hash := m.part(key)
	p.mu.Lock()
	h := p.head(key, hash)

	var own *grant
	if convert {
		// A conversion without a grant is treated as a fresh acquire.
		own = h.findGrant(owner)
	}
	if own != nil {
		if Covers(own.mode, mode) {
			p.mu.Unlock()
			return nil
		}
		m.stats.Upgrades.Inc()
	}
	m.stealCachedConflicts(p, h, mode)
	// A conversion jumps the queue; a fresh request may not overtake
	// anyone already waiting.
	if (own != nil || len(h.queue) == 0) && h.canGrant(mode, own) {
		if own != nil {
			own.mode = mode
		} else {
			p.grant(h, owner, mode)
		}
		p.mu.Unlock()
		return nil
	}
	w := &waiter{owner: owner, mode: mode, upgrade: own != nil, ch: make(chan struct{})}
	pos := len(h.queue)
	if w.upgrade {
		// Queue the conversion ahead of fresh requests.
		pos = 0
		for pos < len(h.queue) && h.queue[pos].upgrade {
			pos++
		}
	}
	h.queue = append(h.queue, nil)
	copy(h.queue[pos+1:], h.queue[pos:])
	h.queue[pos] = w
	p.mu.Unlock()
	return m.wait(p, h, w)
}

// tryAcquire grants owner key in mode if that is possible at once, and
// otherwise refuses: it never queues and never waits. convert is as for
// acquire. Inactive cached grants in the way are taken, as a blocking
// request would take them; one in use by its agent's transaction refuses
// the request like any other conflicting grant, and is not asked back.
func (m *Manager) tryAcquire(owner uint64, key Key, mode Mode, convert bool) bool {
	p, hash := m.part(key)
	p.mu.Lock()
	defer p.mu.Unlock()
	h := p.head(key, hash)
	var own *grant
	if convert {
		own = h.findGrant(owner)
	}
	// As in acquire: a conversion jumps the queue, a fresh request may
	// not overtake anyone already waiting.
	grantable := own != nil || len(h.queue) == 0
	for _, g := range h.grants {
		if g != own && !Compatible(g.mode, mode) && (g.sli == nil || g.sli.state.Load() != sliValid) {
			grantable = false
			break
		}
	}
	for i := 0; grantable && i < len(h.grants); {
		g := h.grants[i]
		if g == own || Compatible(g.mode, mode) {
			i++
			continue
		}
		// An inactive cached grant, unless its agent adopted it since.
		if !g.sli.state.CompareAndSwap(sliValid, sliStolen) {
			grantable = false
			break
		}
		p.ungrant(h, g)
		m.stats.SLISteals.Inc()
	}
	if !grantable {
		p.dropIfIdle(h)
		return false
	}
	if own != nil {
		if !Covers(own.mode, mode) {
			m.stats.Upgrades.Inc()
			own.mode = mode
		}
	} else {
		p.grant(h, owner, mode)
	}
	return true
}

// wait blocks on w until granted or timed out.
func (m *Manager) wait(p *partition, h *lockHead, w *waiter) error {
	m.stats.Blocks.Inc()
	t0 := time.Now()
	timer := time.NewTimer(m.cfg.DeadlockTimeout)
	defer timer.Stop()
	select {
	case <-w.ch:
		m.stats.WaitTime.Observe(time.Since(t0))
		return nil
	case <-timer.C:
		p.mu.Lock()
		if w.granted {
			p.mu.Unlock()
			m.stats.WaitTime.Observe(time.Since(t0))
			return nil
		}
		h.removeWaiter(w)
		// Removing a waiter can unblock those behind it (e.g. a timed-out
		// X request ahead of compatible S requests).
		p.grantWaiters(h)
		p.dropIfIdle(h)
		p.mu.Unlock()
		m.stats.Timeouts.Inc()
		m.stats.WaitTime.Observe(time.Since(t0))
		return ErrLockTimeout
	}
}

// release drops owner's grant on key and wakes eligible waiters.
func (m *Manager) release(owner uint64, key Key) {
	p, hash := m.part(key)
	p.mu.Lock()
	defer p.mu.Unlock()
	h := p.find(key, hash)
	if h == nil {
		return
	}
	if g := h.findGrant(owner); g != nil {
		p.ungrant(h, g)
		p.grantWaiters(h)
	}
	p.dropIfIdle(h)
}

// tryCacheGrant converts owner's grant into an inactive cached grant held
// by the agent cache, if nothing is waiting. Returns the cache entry, or
// nil if the lock was contended (in which case it was released normally).
func (m *Manager) tryCacheGrant(owner uint64, key Key, cache *AgentCache) *sliEntry {
	p, hash := m.part(key)
	p.mu.Lock()
	defer p.mu.Unlock()
	h := p.find(key, hash)
	if h == nil {
		return nil
	}
	g := h.findGrant(owner)
	if g == nil {
		return nil
	}
	if len(h.queue) > 0 {
		// Contended: inheritance would starve the waiters.
		p.ungrant(h, g)
		p.grantWaiters(h)
		p.dropIfIdle(h)
		return nil
	}
	e := cache.newEntry(key, g.mode)
	g.owner = 0
	g.sli = e
	return e
}

// releaseCachedGrant fully releases an inactive cached grant (reclaim or
// eviction path). The caller must have transitioned e out of sliValid.
func (m *Manager) releaseCachedGrant(e *sliEntry) {
	p, hash := m.part(e.key)
	p.mu.Lock()
	defer p.mu.Unlock()
	h := p.find(e.key, hash)
	if h == nil {
		return
	}
	for _, g := range h.grants {
		if g.sli == e {
			p.ungrant(h, g)
			p.grantWaiters(h)
			break
		}
	}
	p.dropIfIdle(h)
}

// adoptCached converts an in-use cached grant into a normal grant for
// owner, optionally upgrading it to target. Returns an error if the
// upgrade had to wait and timed out.
func (m *Manager) adoptCached(owner uint64, e *sliEntry, target Mode) error {
	p, hash := m.part(e.key)
	p.mu.Lock()
	h := p.find(e.key, hash)
	var g *grant
	if h != nil {
		for _, o := range h.grants {
			if o.sli == e {
				g = o
				break
			}
		}
	}
	if g == nil {
		// The grant vanished (should not happen while we hold inuse);
		// fall back to a fresh acquire.
		p.mu.Unlock()
		return m.acquire(owner, e.key, target, false)
	}
	g.owner = owner
	g.sli = nil
	held := g.mode
	p.mu.Unlock()
	if Covers(held, target) {
		return nil
	}
	return m.acquire(owner, e.key, Supremum(held, target), true)
}

// Heads returns how many lock heads the table holds: one per key that is
// granted or waited for. Bulk tools read it to see what a transaction
// pins (Locker's escalation bounds it).
func (m *Manager) Heads() int {
	n := 0
	for i := range m.parts {
		p := &m.parts[i]
		p.mu.Lock()
		n += p.heads
		p.mu.Unlock()
	}
	return n
}

// HeldModes returns the granted modes on key, for tests and invariant
// checks.
func (m *Manager) HeldModes(key Key) []Mode {
	p, hash := m.part(key)
	p.mu.Lock()
	defer p.mu.Unlock()
	h := p.find(key, hash)
	if h == nil {
		return nil
	}
	out := make([]Mode, 0, len(h.grants))
	for _, g := range h.grants {
		out = append(out, g.mode)
	}
	return out
}
