package storage

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"aether/internal/logrec"
	"aether/internal/lsn"
)

// RID identifies a record: page plus slot.
type RID struct {
	// Page is the owning page's ID.
	Page uint64
	// Slot is the record's index in the page's slot directory.
	Slot uint16
}

// Pack encodes the RID into a uint64 (48-bit page, 16-bit slot) for
// storage in index leaves.
func (r RID) Pack() uint64 { return r.Page<<16 | uint64(r.Slot) }

// UnpackRID reverses Pack.
func UnpackRID(v uint64) RID { return RID{Page: v >> 16, Slot: uint16(v & 0xFFFF)} }

// storeShards is the page-map shard count.
const storeShards = 64

// Store is the page store: a demand-paged buffer pool over an optional
// Archive backend. It owns page lookup/creation/fault-in, residency and
// pinning, the clock eviction policy with WAL-correct dirty steal, the
// background-cleaner machinery that writes dirty pages back ahead of
// demand (cleaner.go), the dirty-page table (DPT) used by checkpoints,
// and page-image archival. Without a backend (SetBackend) it
// degenerates to the original fully memory-resident store; without a
// budget (SetCachePages) nothing is ever evicted.
//
// Page IDs encode their owning space (table) in the top 24 bits:
// pid = space<<40 | seq. Recovery relies on this to reattach redo-created
// pages to the right heap without any catalog pages.
type Store struct {
	shards [storeShards]storeShard

	seqMu sync.Mutex
	seq   map[uint32]*atomic.Uint64 // per-space page sequence

	dirtyMu sync.Mutex
	dirty   map[uint64]lsn.LSN // pageID → recLSN (first LSN that dirtied it)

	// Buffer pool state (bufferpool.go, cleaner.go).
	backend     Archive // home of pages; nil = RAM is the only copy
	wal         WAL     // flush-before-steal + fault verification; may be nil
	budget      int64   // max resident pages; 0 = unbounded
	stealNotify func()  // demand-steal pressure callback; may be nil

	// evictMu serializes victim selection and guards clock+hand. It is
	// deliberately NOT held across steal I/O: a dirty victim is claimed
	// through its per-page writeback latch and written back with the
	// lock released, so concurrent faults proceed while a steal's fsyncs
	// are in flight.
	evictMu sync.Mutex
	clock   []uint64 // resident pids in install order (clock order)
	hand    int      // clock hand position

	// cleanWaitMu guards cleanWaitCh, the broadcast channel writeback
	// passes (cleaner, sweep) close after marking pages clean. Evictors
	// that found only dirty victims wait on it — briefly, with the armed
	// cleaner poked — instead of stealing into an in-flight pass whose
	// clean victims are milliseconds away (bufferpool.go).
	cleanWaitMu sync.Mutex
	cleanWaitCh chan struct{}

	// Sequential read-ahead state (prefetch.go). prefetchDepth and
	// prefetchSem are set once at setup (SetPrefetch); pfMu guards the
	// stream tracker.
	prefetchDepth int
	prefetchSem   chan struct{}
	pfMu          sync.Mutex
	pfTick        uint64
	streams       [pfStreams]pfStream

	resident      atomic.Int64
	misses        atomic.Int64
	evictions     atomic.Int64
	steals        atomic.Int64
	cleanerWrites atomic.Int64
	cleanerPasses atomic.Int64
	prefetchReads atomic.Int64
	prefetchHits  atomic.Int64
}

// PageSpace extracts the owning space from a page ID.
func PageSpace(pid uint64) uint32 { return uint32(pid >> 40) }

// pageSeq extracts the per-space sequence number from a page ID.
func pageSeq(pid uint64) uint64 { return pid & ((1 << 40) - 1) }

// MakePageID builds a page ID from space and sequence.
func MakePageID(space uint32, seq uint64) uint64 {
	return uint64(space)<<40 | (seq & ((1 << 40) - 1))
}

type storeShard struct {
	mu    sync.RWMutex
	pages map[uint64]*Page
}

// NewStore returns an empty store. Page sequence numbers start at 1 in
// every space.
func NewStore() *Store {
	s := &Store{
		dirty: make(map[uint64]lsn.LSN),
		seq:   make(map[uint32]*atomic.Uint64),
	}
	for i := range s.shards {
		s.shards[i].pages = make(map[uint64]*Page)
	}
	return s
}

func (s *Store) shard(pid uint64) *storeShard {
	return &s.shards[(pid*0x9E3779B97F4A7C15>>32)%storeShards]
}

func (s *Store) spaceSeq(space uint32) *atomic.Uint64 {
	s.seqMu.Lock()
	defer s.seqMu.Unlock()
	c := s.seq[space]
	if c == nil {
		c = &atomic.Uint64{}
		s.seq[space] = c
	}
	return c
}

// Allocate creates a fresh page in the given space and returns it
// pinned; call Unpin when done. Room is made within the cache budget
// first (best-effort: allocation itself never fails).
func (s *Store) Allocate(space uint32) *Page {
	s.reserveFrame()
	pid := MakePageID(space, s.spaceSeq(space).Add(1))
	p := NewPage(pid)
	p.pins.Store(1)
	p.ref.Store(true)
	sh := s.shard(pid)
	sh.mu.Lock()
	sh.pages[pid] = p
	sh.mu.Unlock()
	s.noteResident(pid)
	return p
}

// Get returns the page with the given ID, pinned — faulting it in from
// the backend on a cache miss — or (nil, nil) if it exists neither in
// RAM nor in the backend. A non-nil error is a failed or rejected fault
// (backend I/O error, checksum failure, image beyond the durable log);
// it must not be treated as "absent". Call Unpin when done.
func (s *Store) Get(pid uint64) (*Page, error) {
	if p := s.getResident(pid); p != nil {
		s.notePrefetchHit(p, pid)
		return p, nil
	}
	if s.backend == nil {
		return nil, nil
	}
	return s.fault(pid, false)
}

// GetOrCreate returns the page pinned, faulting it from the backend or
// creating an empty one if it exists nowhere (redo uses this to rebuild
// pages never archived). Call Unpin when done.
func (s *Store) GetOrCreate(pid uint64) (*Page, error) {
	if p := s.getResident(pid); p != nil {
		s.notePrefetchHit(p, pid)
		return p, nil
	}
	return s.fault(pid, true)
}

// MarkDirty records that pid was modified at recLSN, if it is not
// already dirty: the first registration wins. Callers invoke it with the
// page latch held, before each logged change's record enters the log
// (LogFunc) — once per change.
func (s *Store) MarkDirty(pid uint64, recLSN lsn.LSN) {
	s.dirtyMu.Lock()
	if _, ok := s.dirty[pid]; !ok {
		s.dirty[pid] = recLSN
	}
	s.dirtyMu.Unlock()
}

// MarkClean removes pid from the DPT (after archiving).
func (s *Store) MarkClean(pid uint64) {
	s.dirtyMu.Lock()
	delete(s.dirty, pid)
	s.dirtyMu.Unlock()
}

// DirtyPages snapshots the DPT, sorted by page ID for determinism.
func (s *Store) DirtyPages() []logrec.DirtyPageEntry {
	s.dirtyMu.Lock()
	out := make([]logrec.DirtyPageEntry, 0, len(s.dirty))
	for pid, rec := range s.dirty {
		out = append(out, logrec.DirtyPageEntry{PageID: pid, RecLSN: rec})
	}
	s.dirtyMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].PageID < out[j].PageID })
	return out
}

// MinRecLSN returns the smallest recLSN in the DPT, or lsn.Undefined if
// the DPT is empty. Redo starts here.
func (s *Store) MinRecLSN() lsn.LSN {
	s.dirtyMu.Lock()
	defer s.dirtyMu.Unlock()
	min := lsn.Undefined
	for _, rec := range s.dirty {
		if rec < min {
			min = rec
		}
	}
	return min
}

// PageIDs returns the IDs of the pages currently resident in RAM
// (sorted). With a backend attached this is the cached subset, not the
// database; use AllPageIDs to enumerate everything.
func (s *Store) PageIDs() []uint64 {
	var out []uint64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for pid := range sh.pages {
			out = append(out, pid)
		}
		sh.mu.RUnlock()
	}
	sortPageIDs(out)
	return out
}

// sortPageIDs sorts page IDs ascending.
func sortPageIDs(ids []uint64) { slices.Sort(ids) }

// Archive is the buffer pool's backing home for page images: the
// database file (PageFile), on disk or, for in-memory databases and
// tests, on an in-memory filesystem (NewMemArchive). Writing a page to
// the archive must respect the WAL rule: the caller checks pageLSN ≤ durable LSN, under
// the latch it copies the image under, before handing the image over.
type Archive interface {
	// WriteBatch is the one entry point of every write-back path — the
	// checkpoint sweep, the cleaner, the steal. It stores the pages named
	// by pids: for each, in an order of its choosing, it calls fill(i,
	// dst) once with i the page's index in pids and dst a PageSize buffer;
	// fill copies the page's current image into dst and reports true, or
	// reports false to leave the page out of the batch (it may not be
	// written now — the WAL rule is the caller's to check, under the same
	// latch as the copy). The caller says which pages; the archive asks
	// for each image when it has somewhere to put it, so a batch of any
	// size moves each image exactly once and holds a bounded number of
	// them. A failed WriteBatch installs nothing the caller may rely on —
	// every page stays dirty, so the log behind it cannot be truncated
	// away — and an archive on a device may refuse every later batch
	// until it is reopened (PageFile: a retry is not safe), while reads
	// keep serving what earlier batches installed.
	WriteBatch(pids []uint64, fill func(i int, dst []byte) bool) error
	// ReadPage reads and validates page pid's image into p, the frame
	// the caller is about to install, so a fault allocates that frame and
	// nothing else. found is false, and p untouched, for a page the
	// archive does not hold; after an error p's contents are undefined.
	// An I/O failure or an image that fails validation must be an error,
	// not a silent miss: a missing-but-listed page is lost committed data.
	ReadPage(pid uint64, p *Page) (found bool, err error)
	// Contains reports whether the archive holds an image for pid: the
	// miss path's cheap existence probe, so looking up a page that exists
	// nowhere does not first evict (and possibly steal) an innocent
	// resident page to make room for nothing.
	Contains(pid uint64) bool
	// Pages lists archived page IDs, sorted.
	Pages() ([]uint64, error)
	// Fsyncs returns how many device fsyncs the archive has issued; the
	// checkpointer charges each sweep's delta to its sweep-fsync counter.
	Fsyncs() int64
	// ReadRetries returns how many lock-free reads (validated by
	// checksum) found the copy they looked up replaced and reused by a
	// later write, and looked the page up again.
	ReadRetries() int64
	// Close releases the archive's resources.
	Close() error
}

// PageImage is one page bound for the archive.
type PageImage struct {
	// PID is the page's ID.
	PID uint64
	// Img is the page's snapshotted image.
	Img []byte
}

// wbClaim is one page a write-back pass owns: pinned, and holding its
// writeback latch, from claim to release.
type wbClaim struct {
	page *Page
	// lsn is the pageLSN of the image the archive took, read under the
	// same latch hold as the copy; lsn.Undefined while it has taken none.
	lsn lsn.LSN
}

// releaseClaims surrenders every claim's writeback latch and pin.
func releaseClaims(claims []wbClaim) {
	for _, c := range claims {
		c.page.wb.Store(false)
		c.page.Unpin()
	}
}

// writeBack is the one write-back path under the sweep and the cleaner:
// it hands the claimed pages (claims[i] owns pids[i]) to the archive as
// one batch, then cleans, in the DPT, every page whose image went out
// and which has not moved since, then releases the claims — whatever
// happened, a claimed page must become cleanable and evictable again —
// and wakes evictors waiting for clean frames. It returns how many images
// the archive took and how many pages it cleaned.
//
// The archive copies each image straight out of its frame, under the
// page's read latch, and the write-ahead rule is checked under that same
// latch hold: a page whose pageLSN is beyond durable is left out.
// Nothing is cleaned unless the whole batch succeeded, and then only
// pages whose pageLSN still equals the copied image's: a page re-dirtied
// mid-pass stays in the DPT (under its old, conservative recLSN) so the
// log that rebuilds its newest updates keeps pinning the truncation
// horizon until a later pass archives them.
func (s *Store) writeBack(a Archive, pids []uint64, claims []wbClaim, durable lsn.LSN) (wrote, cleaned int, err error) {
	defer func() {
		// Release the claims BEFORE broadcasting, so an evictor woken by
		// the signal finds the pages unpinned and writeback-free —
		// evictable — rather than still claimed by this pass.
		releaseClaims(claims)
		if err == nil {
			s.signalCleaned()
		}
	}()
	err = a.WriteBatch(pids, func(i int, dst []byte) bool {
		c := &claims[i]
		c.page.Latch.RLock()
		pl, ok := c.page.copyDurable(dst, durable)
		c.page.Latch.RUnlock()
		if ok {
			c.lsn = pl
		}
		return ok
	})
	if err != nil {
		// Every page stays dirty: its recLSN keeps pinning the truncation
		// horizon, so the log that rebuilds it cannot be recycled until
		// a later pass succeeds.
		return 0, 0, err
	}
	for i := range claims {
		c := &claims[i]
		if c.lsn == lsn.Undefined {
			continue
		}
		wrote++
		// Check-and-clean under the page latch: writers bump pageLSN
		// and mark dirty under the exclusive latch, so either we see
		// the bump (page stays dirty) or our clean completes first and
		// their MarkDirty re-adds a fresh entry.
		c.page.Latch.RLock()
		if c.page.LSN() == c.lsn {
			s.MarkClean(pids[i])
			cleaned++
		}
		c.page.Latch.RUnlock()
	}
	return wrote, cleaned, nil
}

// ArchiveDirtyPages writes every dirty page whose pageLSN is at or below
// durable to the archive and cleans it in the DPT (writeBack has the
// rules). It returns how many pages it cleaned. This is the
// checkpointer's page-cleaning sweep; the durable bound is the
// write-ahead rule.
//
// Pages stay pinned from claim to check-and-clean (a concurrent eviction
// must not reclaim a frame the sweep is mid-way through archiving) and
// hold their writeback latch for the same window (so the background
// cleaner and the steal path never have a second write of the same page
// in flight).
func (s *Store) ArchiveDirtyPages(a Archive, durable lsn.LSN) int {
	if a == nil {
		return 0
	}
	dirty := s.dirtyPIDs()
	pids := dirty[:0]
	claims := make([]wbClaim, 0, len(dirty))
	for _, pid := range dirty {
		// Resident-only lookup: a dirty page is always resident (the
		// only way out of RAM is a steal, which cleans it first), so a
		// non-resident entry is stale — faulting it back just to
		// re-archive the image the steal already wrote would waste a
		// read, a cache frame and a write. pinNoRef, not getResident:
		// archiving a page must not make it look hot to the clock.
		p, _ := s.pinNoRef(pid)
		if p == nil {
			if s.isDirty(pid) {
				// Still in the live DPT yet nowhere in RAM or reachable
				// state: a vanished page (legacy stores without a
				// backend). Clean it so it cannot pin the truncation
				// horizon forever.
				s.MarkClean(pid)
			}
			continue
		}
		if !p.wb.CompareAndSwap(false, true) {
			// The cleaner or a steal has this page's writeback in
			// flight; whichever wins cleans it, and if it is re-dirtied
			// the next sweep picks it up.
			p.Unpin()
			continue
		}
		pids = append(pids, pid)
		claims = append(claims, wbClaim{page: p, lsn: lsn.Undefined})
	}
	if len(claims) == 0 {
		return 0
	}
	// A failed batch installs nothing — every page stays dirty and the
	// next sweep retries.
	_, cleaned, _ := s.writeBack(a, pids, claims, durable)
	return cleaned
}

// dirtyPIDs lists the DPT's pages, sorted for determinism.
func (s *Store) dirtyPIDs() []uint64 {
	s.dirtyMu.Lock()
	out := make([]uint64, 0, len(s.dirty))
	for pid := range s.dirty {
		out = append(out, pid)
	}
	s.dirtyMu.Unlock()
	sortPageIDs(out)
	return out
}
