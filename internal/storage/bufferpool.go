package storage

import (
	"fmt"
	"time"

	"aether/internal/lsn"
)

// WAL is the write-ahead-log contract the buffer pool depends on. The
// steal path may write a dirty page image to the backend only after the
// log covering it is durable; the fault path cross-checks every image it
// reads against the durable horizon (a pageLSN beyond it means the
// database file ran ahead of the log — a WAL violation or corruption).
//
// core.LogManager implements it.
type WAL interface {
	// Durable returns the durable horizon: every log record whose end
	// LSN is at or below it has reached stable storage.
	Durable() lsn.LSN
	// Force makes the log durable at least through upTo, blocking until
	// it is (the flush-before-steal hook).
	Force(upTo lsn.LSN) error
}

// CacheStats is a point-in-time snapshot of the buffer pool's counters.
type CacheStats struct {
	// Resident is how many pages are currently in RAM.
	Resident int64
	// Budget is the configured cap on Resident (0 = unbounded).
	Budget int64
	// Misses counts faults that read a page image from the backend
	// (demand paging at work; 0 for a fully resident store).
	Misses int64
	// Evictions counts pages dropped from RAM to stay within Budget.
	Evictions int64
	// StealWrites counts demand steals only: dirty victims a faulting
	// caller had to write back itself (force the log, then the image
	// through the backend) because no clean victim existed when it needed
	// a frame. With the background cleaner keeping ahead of demand this
	// stays near zero; pages pre-cleaned by it are counted in
	// CleanerWrites instead, and their eventual eviction is a plain
	// frame drop.
	StealWrites int64
	// CleanerWrites counts page images written back by background
	// cleaner passes (CleanBatch) — writebacks that happened ahead of
	// demand, off every fault path.
	CleanerWrites int64
	// CleanerPasses counts cleaner passes that wrote at least one page.
	CleanerPasses int64
	// PrefetchReads counts page images the read-ahead pipeline installed
	// ahead of demand (prefetch.go); 0 with prefetch disabled.
	PrefetchReads int64
	// PrefetchHits counts demand accesses served by a prefetched page —
	// faults that never happened. PrefetchReads − PrefetchHits is the
	// wasted-read overshoot (bounded by the window size per stream).
	PrefetchHits int64
}

// SetBackend replaces the store's page archive — an empty in-memory one
// since NewStore — with a, the database's own: pages absent from RAM are
// faulted in from it on demand, and evicted dirty pages are stolen back
// to it. It also advances every space's page allocator past the
// archive's existing IDs, so freshly allocated pages can never collide
// with archived ones that have not been faulted yet. Call it once,
// before the store is shared between goroutines.
func (s *Store) SetBackend(a Archive) error {
	s.backend = a
	pids, err := a.Pages()
	if err != nil {
		return fmt.Errorf("storage: reading backend page ids: %w", err)
	}
	for _, pid := range pids {
		s.advanceSeq(pid)
	}
	return nil
}

// AttachWAL wires the log manager into the buffer pool: dirty
// writebacks (demand steals and cleaner passes) force the log up to the
// victim's pageLSN first, and faulted images are verified against the
// durable horizon. Call it once at setup, before the store is shared
// between goroutines; without it dirty pages are never written back —
// not evictable, not cleanable — and under pressure the pool overshoots
// its budget rather than violate the WAL rule. The overshoot is
// transient: the pages become evictable the moment they are cleaned
// (by a checkpoint sweep), and the budget is enforced again from the
// next fault on.
func (s *Store) AttachWAL(w WAL) { s.wal = w }

// SetCachePages bounds the buffer pool to at most n resident pages
// (0 = unbounded, the fully memory-resident mode). The bound is honored
// whenever an unpinned victim exists; if every resident page is pinned
// or unstealable the pool overshoots — temporarily exceeds the budget,
// recovering as soon as a victim frees up — rather than deadlocks. Call
// it once at setup, before the store is shared between goroutines.
func (s *Store) SetCachePages(n int64) {
	if n < 0 {
		n = 0
	}
	s.budget = n
}

// CacheStats returns the buffer pool counters.
func (s *Store) CacheStats() CacheStats {
	return CacheStats{
		Resident:      s.resident.Load(),
		Budget:        s.budget,
		Misses:        s.misses.Load(),
		Evictions:     s.evictions.Load(),
		StealWrites:   s.steals.Load(),
		CleanerWrites: s.cleanerWrites.Load(),
		CleanerPasses: s.cleanerPasses.Load(),
		PrefetchReads: s.prefetchReads.Load(),
		PrefetchHits:  s.prefetchHits.Load(),
	}
}

// pin returns the page pinned if it is in RAM; nil on a cache miss. The
// pin is taken under the shard lock, which is what excludes it against
// eviction. A demand access touches the page (sets its second-chance
// bit); a write-back pass's lookup must not — reading a page only to
// write it back must not make it look hot to the clock, or cleaning a
// page would shield it from the very eviction the cleaning enables.
// cold reports whether the reference bit was clear at lookup time.
func (s *Store) pin(pid uint64, touch bool) (p *Page, cold bool) {
	sh := s.shard(pid)
	sh.mu.RLock()
	p = sh.pages[pid]
	if p != nil {
		p.pins.Add(1)
		if touch {
			p.ref.Store(true)
		} else {
			cold = !p.ref.Load()
		}
	}
	sh.mu.RUnlock()
	return p, cold
}

// fault returns page pid pinned for a demand access (Get, GetOrCreate):
// resident, or brought into RAM by reserving a frame — stealing a dirty
// victim if it must — and installing the page. With create set, a page
// the backend has never seen materializes empty (redo rebuilding a
// never-archived page).
func (s *Store) fault(pid uint64, create bool) (*Page, error) {
	if p, _ := s.pin(pid, true); p != nil {
		s.notePrefetchHit(p, pid)
		return p, nil
	}
	kind := faultIn
	if create {
		kind = faultOrCreate
	} else if !s.backend.Contains(pid) {
		// Nothing to fault: don't evict a real page to make room for a
		// lookup that was always going to come back empty. (A concurrent
		// materialization of pid is indistinguishable from this lookup
		// having run a moment earlier.)
		return nil, nil
	}
	s.reserveFrame(true)
	return s.install(pid, kind)
}

// installKind says how install fills a frame and hands it out.
type installKind uint8

const (
	// faultIn reads the page's image from the backend; a page the
	// backend does not hold is not installed.
	faultIn installKind = iota
	// faultOrCreate reads the image, or installs an empty page if the
	// backend holds none; the space allocator is advanced past it.
	faultOrCreate
	// allocated installs an empty page without a read: a freshly
	// allocated ID is in no backend.
	allocated
	// readAhead reads the image as faultIn does, but installs the page
	// unpinned, its reference bit clear and prefetched set, and returns
	// nil.
	readAhead
)

// install is the one way a frame enters the pool, for a frame the
// caller has reserved (reserveFrame). Under pid's shard lock it either
// finds the page already resident — a concurrent fault, or read-ahead
// landing this very page — and gives the reservation back, or fills a
// fresh frame (loadFrame: validated by the backend's own read path, then
// cross-checked against the durable log) and makes it visible only after
// every check has passed. A demand install returns the page pinned, its
// reference bit set.
//
// The backend read happens under the shard's exclusive lock. That is
// what makes the read-install pair atomic against a full concurrent
// install → modify → steal → evict cycle of the same page: without it,
// an image read before the cycle could be installed after it, silently
// reviving the pre-steal state. It also serializes concurrent faults of
// the same page (one read, no duplicate-install race). The cost is the
// backend read (directory lookup + pread + CRC, no fsync) blocking the
// shard's other 1/64th of lookups for its duration; eviction I/O, which
// does fsync, runs in reserveFrame, before the lock is taken.
func (s *Store) install(pid uint64, kind installKind) (*Page, error) {
	demand := kind != readAhead
	sh := s.shard(pid)
	sh.mu.Lock()
	if cur := sh.pages[pid]; cur != nil {
		if demand {
			cur.pins.Add(1)
			cur.ref.Store(true)
		}
		sh.mu.Unlock()
		s.releaseFrame()
		if !demand {
			return nil, nil
		}
		s.notePrefetchHit(cur, pid)
		return cur, nil
	}
	p := NewPage(pid)
	found := false
	if kind != allocated {
		var err error
		if found, err = s.loadFrame(pid, p); err != nil || (!found && kind != faultOrCreate) {
			sh.mu.Unlock()
			s.releaseFrame()
			return nil, err
		}
	}
	if demand {
		p.pins.Store(1)
		p.ref.Store(true)
	} else {
		p.prefetched.Store(true)
	}
	sh.pages[pid] = p
	if kind == faultOrCreate && !found {
		s.advanceSeq(pid)
	}
	// noteResident takes evictMu, so it runs after the shard lock drops
	// (lock order is evictMu → shard, never the reverse). The page is
	// findable the moment the lock drops; it merely joins the clock a
	// beat later.
	sh.mu.Unlock()
	s.noteResident(pid)
	switch {
	case !demand:
		s.prefetchReads.Add(1)
		return nil, nil
	case found:
		// A real backend read: feed the stream tracker so a sequential
		// fault pattern opens the read-ahead window (prefetch.go).
		s.misses.Add(1)
		s.noteAccess(pid)
	}
	return p, nil
}

// loadFrame fills p — a fresh frame, not yet visible to anyone — with
// page pid's image from the backend. found is false (and p still the
// empty page) if the backend holds no image. The checks run in this
// order, all before install makes the frame visible: the backend's own
// validation of what it read (the PageFile's slot identity, version
// floor and CRC), then the WAL-horizon check.
func (s *Store) loadFrame(pid uint64, p *Page) (found bool, err error) {
	found, err = s.backend.ReadPage(pid, p)
	if err != nil {
		return false, fmt.Errorf("storage: faulting page %d: %w", pid, err)
	}
	if found && s.wal != nil {
		// The archive-vs-log check, per fault: the sweep and the steal
		// path only write images whose pageLSN is durable, so an image
		// past the durable horizon is a WAL violation or a corrupt
		// database file; redoing on top of it would silently skip
		// updates.
		if pl, durable := p.LSN(), s.wal.Durable(); pl > durable {
			return false, fmt.Errorf(
				"storage: faulted page %d has pageLSN %v beyond the durable log end %v (archive ahead of log: WAL violation or corruption)",
				pid, pl, durable)
		}
	}
	return found, nil
}

// noteResident registers a newly installed page with the clock (its
// frame was already counted by reserveFrame).
func (s *Store) noteResident(pid uint64) {
	s.evictMu.Lock()
	s.clock = append(s.clock, pid)
	s.evictMu.Unlock()
}

// reserveFrame counts an incoming page into the residency total BEFORE
// its install and evicts until the total fits the budget again. Counting
// first is what makes the bound hold under concurrent faults: each
// faulter sees the others' reservations, so two racing misses at
// resident == budget-1 cannot both conclude there is room. A caller
// whose install does not happen (error, lost race) must releaseFrame.
//
// steal says whether the caller may write a dirty victim back. A demand
// fault or Allocate may, and when no unpinned, stealable victim exists
// it keeps its reservation anyway (transient overshoot; the alternative
// would be deadlocking a fault against its own caller's pins).
// Read-ahead may not: it is the one resident-set citizen with no right
// to push out anything that costs I/O, so when no clean victim exists it
// withdraws its reservation and reports false.
func (s *Store) reserveFrame(steal bool) bool {
	s.resident.Add(1)
	for s.budget > 0 && s.resident.Load() > s.budget {
		if !s.evictOne(steal) {
			if steal {
				return true
			}
			s.releaseFrame()
			return false
		}
	}
	return true
}

// releaseFrame returns an unused reservation taken by reserveFrame.
func (s *Store) releaseFrame() {
	s.resident.Add(-1)
}

// cleanWaitTimeout bounds how long an evictor waits for an in-flight
// writeback pass before it falls back to stealing. The signal usually
// arrives in microseconds (the pass was already past its fsyncs); the
// timeout only matters when the cleaner stalls or cannot clean anything,
// where stealing is the correct escape.
const cleanWaitTimeout = 5 * time.Millisecond

// cleanWaiter returns the broadcast channel the next signalCleaned will
// close. Grab it BEFORE poking the cleaner, or the pass could complete
// and signal between the poke and the wait — a missed wakeup.
func (s *Store) cleanWaiter() <-chan struct{} {
	s.cleanWaitMu.Lock()
	if s.cleanWaitCh == nil {
		s.cleanWaitCh = make(chan struct{})
	}
	ch := s.cleanWaitCh
	s.cleanWaitMu.Unlock()
	return ch
}

// signalCleaned wakes every evictor parked in waitForCleaner: a
// writeback pass (cleaner or checkpoint sweep) just marked pages clean.
func (s *Store) signalCleaned() {
	s.cleanWaitMu.Lock()
	if s.cleanWaitCh != nil {
		close(s.cleanWaitCh)
		s.cleanWaitCh = nil
	}
	s.cleanWaitMu.Unlock()
}

// waitForCleaner pokes the armed cleaner and blocks until a writeback
// pass signals (or the timeout elapses). Called by evictOne with evictMu
// released.
func (s *Store) waitForCleaner() {
	ch := s.cleanWaiter()
	s.stealNotify()
	t := time.NewTimer(cleanWaitTimeout)
	defer t.Stop()
	select {
	case <-ch:
	case <-t.C:
	}
}

// evictOne runs the clock hand until it reclaims one frame: referenced
// pages lose their second-chance bit, pinned and writeback-claimed pages
// are skipped, and the first quiet candidate is evicted. A clean victim
// drops inline under evictMu — pure map work, no I/O. A dirty victim is
// claimed via its writeback latch and *stolen outside evictMu*: the lock
// is released across the steal's log force and archive batch,
// so concurrent faults keep finding (and dropping) other victims while
// one steal's fsyncs are in flight, instead of the whole pool queueing
// behind them. Two full rotations without a victim means everything is
// pinned or unstealable; report failure so the caller can overshoot.
//
// When a background cleaner is armed (stealNotify wired), a scan about
// to steal — or one that found every candidate writeback-claimed by an
// in-flight pass — first pokes the cleaner and waits briefly for its
// signal, then rescans: the pass's freshly cleaned pages become free
// frame drops, and the steal (a log force plus an archive batch
// on this fault's critical path) is avoided entirely. One wait per call;
// if the pool is still all-dirty afterwards the steal proceeds, so
// eviction can never hang on a cleaner that has nothing to clean.
//
// Without steal (read-ahead) dirty pages are skipped, not stolen — no
// log force, no archive write, no waiting on the cleaner — and only a
// clean victim is taken.
func (s *Store) evictOne(steal bool) bool {
	waited := false
scan:
	for {
		s.evictMu.Lock()
		limit := 2 * len(s.clock)
		blocked := false // saw a writeback-claimed candidate this scan
		for scanned := 0; scanned <= limit; scanned++ {
			if len(s.clock) == 0 {
				break
			}
			if s.hand >= len(s.clock) {
				s.hand = 0
			}
			pid := s.clock[s.hand]
			sh := s.shard(pid)
			sh.mu.RLock()
			p := sh.pages[pid]
			sh.mu.RUnlock()
			if p == nil {
				// Stale entry (defensive: eviction removes entries in step
				// with frames, but a duplicate could alias a recycled pid).
				s.clockRemoveAtHand()
				continue
			}
			if p.pins.Load() > 0 || p.ref.CompareAndSwap(true, false) {
				s.hand++
				continue
			}
			if p.wb.Load() {
				blocked = true
				s.hand++
				continue
			}
			if !s.isDirty(pid) {
				if s.dropClean(pid, p) {
					s.clockRemoveAtHand()
					s.evictMu.Unlock()
					return true
				}
				s.hand++
				continue
			}
			if !steal || s.wal == nil {
				// The caller may not write back, or without a WAL hook
				// there is no safe way to: dirty pages are not victims
				// (overshoot, or withdraw, over a WAL violation).
				s.hand++
				continue
			}
			if !waited && s.stealNotify != nil {
				// About to pay a steal on this fault's critical path: give
				// the armed cleaner one chance to deliver clean victims
				// first (full rescan below).
				s.evictMu.Unlock()
				s.waitForCleaner()
				waited = true
				continue scan
			}
			if !p.wb.CompareAndSwap(false, true) {
				// The cleaner or a concurrent steal owns the writeback; once
				// it finishes the page is clean and trivially evictable.
				blocked = true
				s.hand++
				continue
			}
			// Steal outside evictMu: the force + archive batch can take
			// milliseconds on a real device, and holding the eviction lock
			// across them would queue every concurrent fault behind this one
			// victim's fsyncs (the PR 4 bottleneck). The writeback latch keeps
			// other evictors and the cleaner off this page meanwhile.
			//
			// The victim leaves the clock HERE, under evictMu, not after the
			// steal: a deferred removal could race a concurrent evictor
			// collecting the stale entry plus a refault re-installing the
			// page, and then delete the refaulted page's fresh entry —
			// leaving a resident page no clock scan would ever visit again.
			// If the steal fails the page rejoins the clock below.
			s.clockRemoveAtHand()
			s.evictMu.Unlock()
			ok := s.stealAndDrop(pid, p)
			p.wb.Store(false)
			if ok {
				return true
			}
			// The frame stayed (pinned mid-steal, I/O error, ...): put the
			// page back on the clock so it remains evictable later.
			s.noteResident(pid)
			s.evictMu.Lock()
		}
		s.evictMu.Unlock()
		if steal && blocked && !waited && s.stealNotify != nil {
			// Every candidate was claimed by an in-flight writeback pass.
			// Waiting for its signal beats overshooting the budget.
			s.waitForCleaner()
			waited = true
			continue scan
		}
		return false
	}
}

// clockRemoveAtHand drops the clock entry under the hand in O(1) by
// swapping the last entry into its place (clock order is approximate
// anyway; an O(resident) splice here would sit on the fault hot path).
// Caller holds evictMu.
func (s *Store) clockRemoveAtHand() {
	last := len(s.clock) - 1
	s.clock[s.hand] = s.clock[last]
	s.clock = s.clock[:last]
}

// dropClean reclaims one clean frame: its current image is either in the
// backend (the cleaner, the sweep or a previous steal wrote it) or
// trivially empty (allocated but never modified — no log record, no
// archived copy, nothing to lose). The read latch excludes writers for
// the duration, so the page cannot be dirtied between the caller's
// dirty-check and the drop; the shard lock's pin check excludes new
// references (pins are taken under it). Caller holds evictMu and has
// verified the page is not in the dirty-page table.
func (s *Store) dropClean(pid uint64, p *Page) bool {
	p.Latch.RLock()
	defer p.Latch.RUnlock()
	if s.isDirty(pid) {
		// Dirtied between the caller's check and our latch acquisition.
		return false
	}
	return s.dropFrame(pid, p, false)
}

// stealAndDrop writes a dirty victim back WAL-correctly and reclaims its
// frame: the log is forced up to its pageLSN (the WAL rule, fsync
// invariant 5a), the image goes to the backend as a batch of one,
// and only then is the frame dropped. The caller owns the page's
// writeback latch and has already left evictMu.
//
// The read latch is held across the whole steal — force, write and drop
// — so the page cannot advance past the state being written (writers
// need the exclusive latch): the stolen image is the page's current
// image when the frame drops, and a steal can never land a stale image
// over a newer one. A pin taken mid-steal (pins need only the shard
// lock) is caught by the final re-validation and the frame stays put;
// the archive write was wasted, not wrong — the image it wrote is the
// page's current, log-covered state.
func (s *Store) stealAndDrop(pid uint64, p *Page) bool {
	p.Latch.RLock()
	defer p.Latch.RUnlock()
	dirty := s.isDirty(pid)
	if dirty {
		if err := s.wal.Force(p.LSN()); err != nil {
			return false
		}
		// The same write-back routine the sweep and the cleaner use, for
		// a batch of one. Its fill copies the frame without latching: the
		// read latch is already held, here, and taking it again could
		// deadlock behind a queued writer.
		durable, wrote := s.wal.Durable(), false
		err := s.backend.WriteBatch([]uint64{pid}, func(_ int, dst []byte) bool {
			_, wrote = p.copyDurable(dst, durable)
			return wrote
		})
		if err != nil || !wrote {
			// The page stays dirty; its recLSN keeps pinning the
			// truncation horizon until a later steal or sweep succeeds.
			return false
		}
		s.steals.Add(1)
		if s.stealNotify != nil {
			// Tell the background cleaner demand outran it (non-blocking
			// on the engine side): the next faults should find pre-cleaned
			// victims instead of stealing too.
			s.stealNotify()
		}
	}
	return s.dropFrame(pid, p, dirty)
}

// dropFrame is the one way a frame leaves the pool, for dropClean and
// stealAndDrop alike. A final re-validation under the shard lock (new
// pins are taken under it, so pins == 0 here means no reference can
// appear before the delete) keeps a frame that was pinned meanwhile. A
// stolen page leaves the DPT in the same critical section as its frame
// leaves RAM, so a dirty page is always resident.
func (s *Store) dropFrame(pid uint64, p *Page, stolen bool) bool {
	sh := s.shard(pid)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.pages[pid] != p || p.pins.Load() > 0 {
		return false
	}
	if stolen {
		s.MarkClean(pid)
	}
	delete(sh.pages, pid)
	s.resident.Add(-1)
	s.evictions.Add(1)
	return true
}

// isDirty reports whether pid is in the dirty-page table.
func (s *Store) isDirty(pid uint64) bool {
	s.dirtyMu.Lock()
	_, ok := s.dirty[pid]
	s.dirtyMu.Unlock()
	return ok
}

// advanceSeq keeps a space's page allocator ahead of an explicitly
// materialized page ID, so Allocate never hands out a colliding ID.
func (s *Store) advanceSeq(pid uint64) {
	c := s.spaceSeq(PageSpace(pid))
	seq := pageSeq(pid)
	for {
		cur := c.Load()
		if cur >= seq || c.CompareAndSwap(cur, seq) {
			return
		}
	}
}

// AllPageIDs returns every page the store knows about — resident pages
// plus everything in the backend — sorted and deduplicated. This is the
// restart path's page universe: with demand paging the resident set
// alone no longer enumerates the database.
func (s *Store) AllPageIDs() ([]uint64, error) {
	ids := s.PageIDs()
	archived, err := s.backend.Pages()
	if err != nil {
		return nil, fmt.Errorf("storage: listing backend pages: %w", err)
	}
	seen := make(map[uint64]struct{}, len(ids)+len(archived))
	out := make([]uint64, 0, len(ids)+len(archived))
	for _, set := range [][]uint64{ids, archived} {
		for _, pid := range set {
			if _, dup := seen[pid]; dup {
				continue
			}
			seen[pid] = struct{}{}
			out = append(out, pid)
		}
	}
	sortPageIDs(out)
	return out, nil
}
