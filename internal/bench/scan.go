package bench

import (
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"aether/internal/storage"
)

// ScanConfig parameterizes the cold-scan microbenchmark: a sequential
// scan over a table several times larger than the page cache, faulting
// every page from the database file — once against a single-mutex
// archive (the pre-concurrency PageFile, where every read serialized
// with every other read and writer), and once against the concurrent
// PageFile with streaming read-ahead.
type ScanConfig struct {
	// Dir is scratch space for the pagefile.
	Dir string
	// Pages is the table size in pages. Must exceed CachePages several
	// times over for the scan to be genuinely cold.
	Pages int
	// CachePages is the buffer-pool budget both phases run under.
	CachePages int
	// PrefetchDepth arms read-ahead; both phases get the same depth, so
	// the serial side's loss is purely its inability to overlap reads.
	PrefetchDepth int
	// ReadDelay is the simulated per-pread device latency (the log
	// devices' methodology applied to page reads). With it the overlap
	// win is deterministic: a serialized scan pays the delay once per
	// page, a pipelined one amortizes it across the read-ahead window.
	// 0 measures the host filesystem alone — noise on a page cache.
	ReadDelay time.Duration
}

// ScanResult reports the cold-scan comparison.
type ScanResult struct {
	// Pages is the scanned table size in pages.
	Pages int `json:"pages"`
	// CachePages is the budget both scans ran under.
	CachePages int `json:"cache_pages"`
	// PrefetchDepth is the configured read-ahead depth.
	PrefetchDepth int `json:"prefetch_depth"`
	// SerialPPS is pages/s through the single-mutex archive.
	SerialPPS float64 `json:"serial_pps"`
	// ConcurrentPPS is pages/s through the concurrent pagefile.
	ConcurrentPPS float64 `json:"concurrent_pps"`
	// PrefetchReads is the concurrent phase's read-ahead volume.
	PrefetchReads int64 `json:"prefetch_reads"`
	// PrefetchHits is how many of the concurrent scan's accesses were
	// served by a prefetched page instead of a demand fault.
	PrefetchHits int64 `json:"prefetch_hits"`
	// HitRate is PrefetchHits over the scan's page accesses.
	HitRate float64 `json:"hit_rate"`
	// ReadRetries counts optimistic pagefile reads that lost a race and
	// retried during the concurrent phase.
	ReadRetries int64 `json:"read_retries"`
	// SerialMaxInflight is the most page reads that were inside the
	// device at once behind the single mutex: exactly 1.
	SerialMaxInflight int64 `json:"serial_max_inflight"`
	// ConcurrentMaxInflight is the same peak for the concurrent phase:
	// more than 1 when read-ahead overlaps reads.
	ConcurrentMaxInflight int64 `json:"concurrent_max_inflight"`
}

// Speedup is concurrent scan throughput over single-mutex throughput.
func (r ScanResult) Speedup() float64 {
	if r.SerialPPS <= 0 {
		return 0
	}
	return r.ConcurrentPPS / r.SerialPPS
}

// String renders the one-line summary the CLI prints.
func (r ScanResult) String() string {
	return fmt.Sprintf("scan %d pages, budget %d, depth %d: %.0f pages/s concurrent vs %.0f serial — %.1fx (%.0f%% prefetch hits)",
		r.Pages, r.CachePages, r.PrefetchDepth, r.ConcurrentPPS, r.SerialPPS, r.Speedup(), 100*r.HitRate)
}

// scanArchive is the scan benchmark's view of the pagefile. With serial
// set it holds one mutex over every operation — the pre-PR-6 PageFile,
// where a reader waited out every other reader and every batch writer's
// fsyncs: the baseline. Either way it records how many reads were
// inside the device at once, which is the mechanism the benchmark
// exists to show (the throughput ratio follows from it, but on a busy
// two-core host only the overlap is a count that repeats).
type scanArchive struct {
	a      *storage.PageFile
	serial bool
	mu     sync.Mutex
	// inGet is the number of Gets currently inside a; maxInGet its peak.
	inGet, maxInGet atomic.Int64
}

func (s *scanArchive) lock() {
	if s.serial {
		s.mu.Lock()
	}
}

func (s *scanArchive) unlock() {
	if s.serial {
		s.mu.Unlock()
	}
}

// Get reads a page, serialized behind the mutex in serial mode.
func (s *scanArchive) Get(pid uint64) ([]byte, error) {
	s.lock()
	defer s.unlock()
	n := s.inGet.Add(1)
	defer s.inGet.Add(-1)
	for m := s.maxInGet.Load(); n > m && !s.maxInGet.CompareAndSwap(m, n); m = s.maxInGet.Load() {
	}
	return s.a.Get(pid)
}

// Put writes a single page.
func (s *scanArchive) Put(pid uint64, img []byte) error {
	s.lock()
	defer s.unlock()
	return s.a.Put(pid, img)
}

// WriteBatch in serial mode holds the mutex across the whole batch —
// journal fsync, in-place writes and pagefile fsync — exactly as the
// old single-mutex pagefile did.
func (s *scanArchive) WriteBatch(pids []uint64, fill func(i int, dst []byte) bool) error {
	s.lock()
	defer s.unlock()
	return s.a.WriteBatch(pids, fill)
}

// Contains forwards the existence probe.
func (s *scanArchive) Contains(pid uint64) bool {
	s.lock()
	defer s.unlock()
	return s.a.Contains(pid)
}

// Pages forwards the ID listing.
func (s *scanArchive) Pages() ([]uint64, error) {
	s.lock()
	defer s.unlock()
	return s.a.Pages()
}

// scanPhase cold-scans every pid through a fresh bounded pool over the
// given backend, returning pages/s and the pool's final counters.
func scanPhase(backend storage.Archive, pids []uint64, cachePages, depth int) (float64, storage.CacheStats, error) {
	st := storage.NewStore()
	if err := st.SetBackend(backend); err != nil {
		return 0, storage.CacheStats{}, err
	}
	st.SetCachePages(int64(cachePages))
	st.SetPrefetch(depth)
	t0 := time.Now()
	for _, pid := range pids {
		p, err := st.Get(pid)
		if err != nil {
			return 0, storage.CacheStats{}, fmt.Errorf("bench scan fault %d: %w", pid, err)
		}
		if p == nil {
			return 0, storage.CacheStats{}, fmt.Errorf("bench scan: page %d missing from the archive", pid)
		}
		p.Unpin()
	}
	elapsed := time.Since(t0)
	cs := st.CacheStats()
	if cs.Resident > int64(cachePages) {
		return 0, cs, fmt.Errorf("bench scan: resident %d exceeds budget %d", cs.Resident, cachePages)
	}
	return float64(len(pids)) / elapsed.Seconds(), cs, nil
}

// newDirtyStore builds a store with n archivable dirty pages.
func newDirtyStore(n int) *storage.Store {
	st := storage.NewStore()
	for i := 0; i < n; i++ {
		p, _ := st.GetOrCreate(storage.MakePageID(1, uint64(i+1)))
		_ = p.Insert(0, []byte(fmt.Sprintf("scan-bench-row-%08d", i)))
		p.SetLSN(1)
		st.MarkDirty(p.ID(), 1)
		p.Unpin()
	}
	return st
}

// RunScan executes the cold-scan microbenchmark: build a table in the
// pagefile, then sequentially fault every page through a cache a
// fraction of its size — once with reads funneled through a single
// mutex (no overlap possible, read-ahead or not), once through the
// concurrent pagefile where the read-ahead pipeline overlaps device
// reads ahead of demand.
func RunScan(cfg ScanConfig) (ScanResult, error) {
	if cfg.Pages <= 0 {
		cfg.Pages = 256
	}
	if cfg.CachePages <= 0 {
		cfg.CachePages = cfg.Pages / 8
	}
	if cfg.PrefetchDepth <= 0 {
		cfg.PrefetchDepth = 16
	}
	res := ScanResult{Pages: cfg.Pages, CachePages: cfg.CachePages, PrefetchDepth: cfg.PrefetchDepth}
	if cfg.Pages < 4*cfg.CachePages {
		return res, fmt.Errorf("bench scan: %d pages over a %d-page cache is not larger-than-memory", cfg.Pages, cfg.CachePages)
	}

	// Build: a contiguous run of archived pages, as a checkpointed table
	// would sit in the database file.
	st := newDirtyStore(cfg.Pages)
	pf, err := storage.OpenPageFile(filepath.Join(cfg.Dir, "scan-pagefile.db"))
	if err != nil {
		return res, err
	}
	defer pf.Close()
	if n := st.ArchiveDirtyPages(pf, 1<<62); n != cfg.Pages {
		return res, fmt.Errorf("bench scan: archived %d pages, want %d", n, cfg.Pages)
	}
	pids, err := pf.Pages()
	if err != nil {
		return res, err
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
	pf.SetReadDelay(cfg.ReadDelay)

	serial := &scanArchive{a: pf, serial: true}
	serialPPS, _, err := scanPhase(serial, pids, cfg.CachePages, cfg.PrefetchDepth)
	if err != nil {
		return res, fmt.Errorf("serial phase: %w", err)
	}
	res.SerialPPS = serialPPS
	res.SerialMaxInflight = serial.maxInGet.Load()

	retries0 := pf.ReadRetries()
	concurrent := &scanArchive{a: pf}
	concurrentPPS, cs, err := scanPhase(concurrent, pids, cfg.CachePages, cfg.PrefetchDepth)
	if err != nil {
		return res, fmt.Errorf("concurrent phase: %w", err)
	}
	res.ConcurrentPPS = concurrentPPS
	res.ConcurrentMaxInflight = concurrent.maxInGet.Load()
	res.PrefetchReads = cs.PrefetchReads
	res.PrefetchHits = cs.PrefetchHits
	res.HitRate = float64(cs.PrefetchHits) / float64(len(pids))
	res.ReadRetries = pf.ReadRetries() - retries0
	if cs.StealWrites != 0 {
		return res, fmt.Errorf("bench scan: read-only scan performed %d demand steals", cs.StealWrites)
	}
	return res, nil
}
