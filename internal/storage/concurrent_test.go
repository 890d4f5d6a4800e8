package storage

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aether/internal/lsn"
)

// These tests pin down PR 6's concurrency contract: pagefile reads are
// lock-free (validated by the slot header and CRC, retried when the slot
// they looked up was reused) and never wait on a batch writer's fsyncs; the buffer pool's fault path
// runs concurrently with the checkpoint sweep and the cleaner over the
// same pages without torn images or lost updates. All of them are built
// to run under -race (make test-race covers every package).

// pfVersionedImage builds a page image whose body encodes its own
// version, so any torn mix of two versions is detectable byte-by-byte
// even before the CRC is consulted.
func pfVersionedImage(pid, version uint64) []byte {
	img := make([]byte, PageSize)
	binary.LittleEndian.PutUint64(img[0:8], pid)
	fill := byte(version)
	if fill == 0 {
		fill = 0xA5
	}
	for i := hdrSize; i < PageSize; i++ {
		img[i] = fill
	}
	return img
}

// TestPageFileConcurrentReadersVsBatchWriters is the Layer 1 race
// stress: readers Get pages lock-free while batch writers rewrite the
// very same pages, into the slots each other's batches keep freeing.
// Every successful read must return a committed image — correct pageID,
// internally consistent body — never a torn mix of two versions. Run
// with -race; retries after a reused slot are expected (and counted),
// torn results are not.
func TestPageFileConcurrentReadersVsBatchWriters(t *testing.T) {
	pf := openPF(t, filepath.Join(t.TempDir(), "pagefile.db"))
	const pages = 48
	seed := make([]PageImage, pages)
	for i := range seed {
		seed[i] = PageImage{PID: uint64(i + 1), Img: pfVersionedImage(uint64(i+1), 1)}
	}
	if err := pf.PutBatch(seed); err != nil {
		t.Fatal(err)
	}

	iters := 60
	if testing.Short() {
		iters = 15
	}
	var stop atomic.Bool
	errs := make(chan error, 16)

	// Writers: overlapping batches over the same slots, each stamping a
	// fresh version into every byte of the body.
	var writers sync.WaitGroup
	for w := 0; w < 3; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for it := 0; it < iters && !stop.Load(); it++ {
				batch := make([]PageImage, 0, pages/2)
				for pid := uint64(1 + w); pid <= pages; pid += 2 { // overlapping stripes
					batch = append(batch, PageImage{PID: pid, Img: pfVersionedImage(pid, uint64(it+2))})
				}
				if err := pf.PutBatch(batch); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	// Readers: hammer every page until the writers are done. A read may
	// observe any committed version; it must never observe a torn one.
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for !stop.Load() {
				pid := uint64(1 + rng.Intn(pages))
				img, err := pf.Get(pid)
				if err != nil {
					errs <- err
					return
				}
				if got := binary.LittleEndian.Uint64(img[0:8]); got != pid {
					errs <- fmt.Errorf("read of page %d returned page %d", pid, got)
					return
				}
				fill := img[hdrSize]
				for i := hdrSize + 1; i < PageSize; i += 512 {
					if img[i] != fill {
						errs <- fmt.Errorf("page %d: torn image survived validation (body mixes %#x and %#x)", pid, fill, img[i])
						return
					}
				}
			}
		}(r)
	}
	writers.Wait()
	stop.Store(true)
	readers.Wait()

	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	t.Logf("read retries under contention: %d", pf.ReadRetries())
}

// TestPageFileReadsNotBlockedByBatchFsyncs is the PR's latency
// acceptance property: a Get concurrent with an in-progress PutBatch
// completes without waiting for the batch's fsyncs. With a simulated
// 40ms device sync, the batch's two fsyncs pin it down for ≥80ms while
// every concurrent read of an unrelated (committed) page must return in
// a small fraction of one sync delay — before this PR both shared one
// mutex and each read ate the full batch latency.
func TestPageFileReadsNotBlockedByBatchFsyncs(t *testing.T) {
	const syncDelay = 40 * time.Millisecond
	pf := openPF(t, filepath.Join(t.TempDir(), "pagefile.db"))
	const resident = 8
	seed := make([]PageImage, resident)
	for i := range seed {
		seed[i] = PageImage{PID: uint64(i + 1), Img: pfVersionedImage(uint64(i+1), 1)}
	}
	if err := pf.PutBatch(seed); err != nil {
		t.Fatal(err)
	}
	pf.SetSyncDelay(syncDelay)

	// A fat batch over different pages: data fsync + commit fsync
	// = 2 × syncDelay of simulated device time.
	batch := make([]PageImage, 64)
	for i := range batch {
		pid := uint64(100 + i)
		batch[i] = PageImage{PID: pid, Img: pfVersionedImage(pid, 2)}
	}
	batchDone := make(chan error, 1)
	start := time.Now()
	go func() { batchDone <- pf.PutBatch(batch) }()

	// Read committed pages for the whole window the batch is in flight.
	var worst time.Duration
	reads := 0
	for {
		select {
		case err := <-batchDone:
			if err != nil {
				t.Fatal(err)
			}
			if reads == 0 {
				t.Skip("batch finished before any concurrent read was timed")
			}
			if elapsed := time.Since(start); elapsed < 2*syncDelay {
				t.Fatalf("batch finished in %v — simulated sync delay not in effect", elapsed)
			}
			// The acceptance bound: no read waited out a device fsync.
			// syncDelay/2 is ~20ms of headroom for a microsecond-scale
			// pread even on a loaded CI machine.
			if worst >= syncDelay/2 {
				t.Fatalf("worst concurrent read took %v against a %v device sync (reads serialized behind the batch)", worst, syncDelay)
			}
			t.Logf("%d reads concurrent with the batch; worst %v vs %v batch window", reads, worst, 2*syncDelay)
			return
		default:
		}
		pid := uint64(1 + reads%resident)
		t0 := time.Now()
		img, err := pf.Get(pid)
		if d := time.Since(t0); d > worst {
			worst = d
		}
		if err != nil || img == nil {
			t.Fatalf("concurrent Get(%d): %v", pid, err)
		}
		reads++
	}
}

// TestStoreConcurrentFaultsVsSweepAndCleaner is the satellite stress
// test over the full pool: concurrent readers fault pages in and out of
// a small cache while a checkpoint sweep and cleaner passes write the
// same pages back through the real pagefile, and a writer keeps
// re-dirtying them. Torn reads, double writebacks and lost pages all
// surface as errors (or as -race reports).
func TestStoreConcurrentFaultsVsSweepAndCleaner(t *testing.T) {
	pf := openPF(t, filepath.Join(t.TempDir(), "pagefile.db"))
	wal := &fakeWAL{}
	st := NewStore()
	sl := &seqLog{st: st}
	if err := st.SetBackend(pf); err != nil {
		t.Fatal(err)
	}
	st.AttachWAL(wal)
	st.SetCachePages(10)
	h := NewHeapFile(st, 1, "t")

	const rows = 60 // ≈ 12+ pages: larger than the 10-frame budget
	for i := 0; i < rows; i++ {
		if _, err := h.Insert(bigRow(i), sl.log); err != nil {
			t.Fatal(err)
		}
	}
	wal.Force(sl.next + 1)
	st.ArchiveDirtyPages(pf, wal.Durable())
	pids, err := st.AllPageIDs()
	if err != nil {
		t.Fatal(err)
	}
	if len(pids) <= 10 {
		t.Fatalf("only %d pages — working set not larger than the cache", len(pids))
	}

	dur := 250 * time.Millisecond
	if testing.Short() {
		dur = 60 * time.Millisecond
	}
	deadline := time.Now().Add(dur)
	var wg sync.WaitGroup
	errs := make(chan error, 16)

	// Readers: fault random pages in (evicting others out) and sanity-
	// check what comes back.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r) + 100))
			for time.Now().Before(deadline) {
				pid := pids[rng.Intn(len(pids))]
				p, err := st.Get(pid)
				if err != nil {
					errs <- err
					return
				}
				if p == nil {
					t.Errorf("page %d vanished under concurrent sweep/cleaner", pid)
					return
				}
				if p.ID() != pid {
					t.Errorf("asked for page %d, got %d", pid, p.ID())
				}
				p.Unpin()
			}
		}(r)
	}
	// Writer: keep re-dirtying pages so the sweep and cleaner always
	// have work racing the readers' faults.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := rows; time.Now().Before(deadline); i++ {
			if _, err := h.Insert(bigRow(i), sl.log); err != nil {
				errs <- err
				return
			}
			wal.Force(sl.next + 1)
		}
	}()
	// Sweeper: checkpoint-style full-DPT writebacks.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for time.Now().Before(deadline) {
			st.ArchiveDirtyPages(pf, wal.Durable())
			time.Sleep(2 * time.Millisecond)
		}
	}()
	// Cleaner: capacity-bounded passes over the same dirty set.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for time.Now().Before(deadline) {
			if _, err := st.CleanBatch(4); err != nil {
				errs <- err
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	// Quiesce and verify every row is still intact end to end.
	wal.Force(sl.next + 1)
	st.ArchiveDirtyPages(pf, wal.Durable())
	for _, pid := range pids {
		p, err := st.Get(pid)
		if err != nil || p == nil {
			t.Fatalf("page %d unreadable after the storm: %v", pid, err)
		}
		p.Unpin()
	}
	t.Logf("stats after storm: %+v, pagefile read retries: %d", st.CacheStats(), pf.ReadRetries())
}

// TestStoreStealsVsStreamedSweepAndCleaner is the lock-order twin of the
// test above (see Page.wb). The streamed batch writer takes page latches
// while it holds the pagefile's writer lock; a steal holds its victim's
// latch and then waits for that lock; updaters queue for exclusive
// latches in between. Only the writeback latch keeps the two orders off
// the same page, so this drives all of them at once over the same pages
// — updates on the swept pages, a 16-page pool over three times as many
// dirty pages so faults steal, the cleaner, and checkpoint sweeps back to
// back — and must finish: a deadlock shows as the deadline, a torn or
// stale write-back as a wrong row afterwards.
func TestStoreStealsVsStreamedSweepAndCleaner(t *testing.T) {
	pf := openPF(t, filepath.Join(t.TempDir(), "pagefile.db"))
	wal := &fakeWAL{}
	sl := &seqLog{}
	logEnd := func() lsn.LSN {
		sl.mu.Lock()
		defer sl.mu.Unlock()
		return sl.next + 1
	}
	st := NewStore()
	if err := st.SetBackend(pf); err != nil {
		t.Fatal(err)
	}
	st.AttachWAL(wal)
	st.SetCachePages(16)
	sl.st = st
	h := NewHeapFile(st, 1, "t")

	const rows, updaters = 240, 2 // ≈ 48 pages
	stamp := func(i int, v uint64) []byte {
		row := bigRow(i)
		binary.LittleEndian.PutUint64(row[len(row)-8:], v)
		return row
	}
	rids := make([]RID, rows)
	last := make([]uint64, rows) // row i's last written value; its updater's alone
	for i := range rids {
		rid, err := h.Insert(stamp(i, 0), sl.log)
		if err != nil {
			t.Fatal(err)
		}
		rids[i] = rid
	}

	dur := 300 * time.Millisecond
	if testing.Short() {
		dur = 80 * time.Millisecond
	}
	stop := time.Now().Add(dur)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	seed := int64(0)
	run := func(fn func(rng *rand.Rand) error) {
		wg.Add(1)
		seed++
		seed := seed
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for time.Now().Before(stop) {
				if err := fn(rng); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	// Updating transactions, each on its own rows of the shared pages:
	// exclusive latches, fresh LSNs, the log made durable a few updates
	// late so every pass meets pages it may not write yet.
	for u := 0; u < updaters; u++ {
		u, n := u, uint64(0)
		run(func(rng *rand.Rand) error {
			i := rng.Intn(rows/updaters)*updaters + u
			n++
			v := n
			err := h.Mutate(rids[i], sl.log, func([]byte) ([]byte, error) { return stamp(i, v), nil })
			if err != nil {
				return err
			}
			last[i] = v
			if n%4 == 0 {
				return wal.Force(logEnd())
			}
			return nil
		})
	}
	// Readers fault pages into the 16 frames; with most pages dirty the
	// clock steals.
	for r := 0; r < 2; r++ {
		run(func(rng *rand.Rand) error {
			_, err := h.Read(rids[rng.Intn(rows)])
			return err
		})
	}
	run(func(*rand.Rand) error { // the cleaner
		_, err := st.CleanBatch(8)
		return err
	})
	var swept atomic.Int64
	run(func(*rand.Rand) error { // checkpoint sweeps, back to back
		swept.Add(int64(st.ArchiveDirtyPages(pf, wal.Durable())))
		return nil
	})

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(dur + 30*time.Second):
		t.Fatal("write-back paths did not finish: deadlock between a steal, the sweep and an updater?")
	}
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	cs := st.CacheStats()
	if cs.StealWrites == 0 || cs.CleanerWrites == 0 || swept.Load() == 0 {
		t.Fatalf("a write-back path never ran: %+v, %d pages swept", cs, swept.Load())
	}

	// Quiesce, write everything back, and read every row through a cold
	// pool: what reached the file is each row's last update.
	if err := wal.Force(logEnd()); err != nil {
		t.Fatal(err)
	}
	st.ArchiveDirtyPages(pf, wal.Durable())
	if d := st.DirtyPages(); len(d) != 0 {
		t.Fatalf("%d pages still dirty after the final sweep", len(d))
	}
	cold := NewStore()
	if err := cold.SetBackend(pf); err != nil {
		t.Fatal(err)
	}
	cold.AttachWAL(wal)
	hc := NewHeapFile(cold, 1, "t")
	for i, rid := range rids {
		row, err := hc.Read(rid)
		if err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		if got := binary.LittleEndian.Uint64(row[len(row)-8:]); got != last[i] {
			t.Fatalf("row %d reads update %d from the file, its last was %d", i, got, last[i])
		}
	}
	t.Logf("%+v, %d pages swept, %d read retries", cs, swept.Load(), pf.ReadRetries())
}

// TestPrefetchSequentialScanHits: a cold sequential scan over an
// archived table triggers read-ahead — the pipeline installs pages
// before demand reaches them, demand accesses count as prefetch hits,
// and residency never exceeds the budget (prefetched frames are charged
// like any other).
func TestPrefetchSequentialScanHits(t *testing.T) {
	pf := openPF(t, filepath.Join(t.TempDir(), "pagefile.db"))
	wal := &fakeWAL{}
	sl := &seqLog{}

	// Build and archive a contiguous run of pages, then start over with
	// an empty pool over the same backend — a cold cache, as a reopen
	// would see it.
	build := NewStore()
	if err := build.SetBackend(pf); err != nil {
		t.Fatal(err)
	}
	build.AttachWAL(wal)
	sl.st = build
	h := NewHeapFile(build, 1, "t")
	const rows = 200
	for i := 0; i < rows; i++ {
		if _, err := h.Insert(bigRow(i), sl.log); err != nil {
			t.Fatal(err)
		}
	}
	wal.Force(sl.next + 1)
	build.ArchiveDirtyPages(pf, wal.Durable())
	pids := build.PageIDs()
	sortPageIDs(pids)
	if len(pids) < 24 {
		t.Fatalf("only %d pages; need a long sequential run", len(pids))
	}

	const budget = 16
	st := NewStore()
	if err := st.SetBackend(pf); err != nil {
		t.Fatal(err)
	}
	st.AttachWAL(wal)
	st.SetCachePages(budget)
	st.SetPrefetch(8)

	for _, pid := range pids {
		p, err := st.Get(pid)
		if err != nil || p == nil {
			t.Fatalf("scan fault %d: %v", pid, err)
		}
		p.Unpin()
		if r := st.CacheStats().Resident; r > budget {
			t.Fatalf("resident %d exceeds budget %d mid-scan", r, budget)
		}
		// A beat of think time per page, as a real scan's per-page work:
		// gives the pipeline its chance to run ahead of demand.
		time.Sleep(200 * time.Microsecond)
	}
	cs := st.CacheStats()
	if cs.PrefetchReads == 0 {
		t.Fatalf("sequential scan never opened the read-ahead window: %+v", cs)
	}
	if cs.PrefetchHits == 0 {
		t.Fatalf("prefetched pages never served demand: %+v", cs)
	}
	if cs.Misses+cs.PrefetchHits < int64(len(pids)) {
		t.Fatalf("scan accesses unaccounted for: %+v over %d pages", cs, len(pids))
	}
	if cs.StealWrites != 0 {
		t.Fatalf("a read-only scan performed %d demand steals: %+v", cs.StealWrites, cs)
	}
	t.Logf("scan of %d pages: %d misses, %d prefetch reads, %d hits", len(pids), cs.Misses, cs.PrefetchReads, cs.PrefetchHits)
}

// TestPrefetchNeverStealsDirtyPages: frame reservation for read-ahead
// performs clean-only eviction — with every resident frame dirty it
// gives up (and withdraws its residency charge) rather than force the
// log and steal on behalf of a page nobody asked for.
func TestPrefetchNeverStealsDirtyPages(t *testing.T) {
	const budget = 4
	st, h, arch, wal, sl := cleanerHarness(t, budget)
	st.SetPrefetch(4)
	// Fill well past the budget: the pool settles at `budget` resident
	// frames, every one of them dirty.
	for i := 0; i < 30; i++ {
		if _, err := h.Insert(bigRow(i), sl.log); err != nil {
			t.Fatal(err)
		}
	}
	wal.Force(sl.next + 1)
	before := st.CacheStats()
	if dirty := len(st.DirtyPages()); int64(dirty) < before.Resident || before.Resident < budget {
		t.Fatalf("setup: want a full, all-dirty pool; resident=%d dirty=%d", before.Resident, dirty)
	}

	// Every frame dirty: a prefetch reservation must fail clean.
	if st.reservePrefetchFrame() {
		t.Fatal("prefetch reserved a frame out of an all-dirty pool")
	}
	after := st.CacheStats()
	if after.Resident != before.Resident {
		t.Fatalf("failed reservation leaked residency: %d → %d", before.Resident, after.Resident)
	}
	if after.StealWrites != before.StealWrites || after.Evictions != before.Evictions {
		t.Fatalf("clean-only eviction stole or evicted: %+v → %+v", before, after)
	}

	// After a cleaner pass the same reservation succeeds by dropping a
	// clean frame — still zero steals.
	if n, err := st.CleanBatch(budget); err != nil || n == 0 {
		t.Fatalf("CleanBatch: n=%d err=%v", n, err)
	}
	if !st.reservePrefetchFrame() {
		t.Fatal("prefetch could not reserve a frame from a cleaned pool")
	}
	st.releaseFrame()
	if cs := st.CacheStats(); cs.StealWrites != before.StealWrites {
		t.Fatalf("prefetch reservation performed a steal: %+v", cs)
	}
	_ = arch
}

// TestPrefetchedPageIsColdAndConsumable: a page installed by the
// read-ahead pipeline arrives unpinned with the reference bit clear (an
// unconsumed prefetch is the clock's first victim), and its first
// demand access consumes the prefetched flag exactly once.
func TestPrefetchedPageIsColdAndConsumable(t *testing.T) {
	pf := openPF(t, filepath.Join(t.TempDir(), "pagefile.db"))
	wal := &fakeWAL{}
	st := NewStore()
	if err := st.SetBackend(pf); err != nil {
		t.Fatal(err)
	}
	st.AttachWAL(wal)
	st.SetCachePages(8)
	st.SetPrefetch(4)

	pid := MakePageID(1, 1)
	img := make([]byte, PageSize)
	binary.LittleEndian.PutUint64(img[0:8], pid)
	if err := pf.Put(pid, img); err != nil {
		t.Fatal(err)
	}

	// Drive prefetchOne directly (taking its semaphore slot as noteAccess
	// would): the page must land cold.
	st.prefetchSem <- struct{}{}
	st.prefetchOne(pid)
	sh := st.shard(pid)
	sh.mu.RLock()
	p := sh.pages[pid]
	sh.mu.RUnlock()
	if p == nil {
		t.Fatal("prefetchOne installed nothing")
	}
	if p.pins.Load() != 0 || p.ref.Load() {
		t.Fatalf("prefetched page installed hot: pins=%d ref=%v", p.pins.Load(), p.ref.Load())
	}
	if !p.prefetched.Load() {
		t.Fatal("prefetched flag not set")
	}
	if st.CacheStats().PrefetchReads != 1 {
		t.Fatalf("stats: %+v", st.CacheStats())
	}

	// First demand access consumes the flag; the second is a plain hit.
	for i := 0; i < 2; i++ {
		q, err := st.Get(pid)
		if err != nil || q == nil {
			t.Fatalf("demand access %d: %v", i, err)
		}
		q.Unpin()
	}
	cs := st.CacheStats()
	if cs.PrefetchHits != 1 {
		t.Fatalf("prefetched flag consumed %d times, want exactly once: %+v", cs.PrefetchHits, cs)
	}
	if cs.Misses != 0 {
		t.Fatalf("demand access of a prefetched page counted as a miss: %+v", cs)
	}
}

// inflightArchive is the foil for TestReadAheadOverlapsPageReads: it
// reads through the archive it wraps — every fault and every read-ahead
// comes through ReadPage — holds each read for delay as a device would,
// and records how many were inside at once. With serial set every read
// first takes one mutex — the pre-PR-6 pagefile, where no two reads could
// overlap whatever the pool asked for.
type inflightArchive struct {
	Archive
	delay  time.Duration
	serial bool
	mu     sync.Mutex
	// in is the number of reads currently inside; peak its maximum.
	in, peak atomic.Int64
}

func (a *inflightArchive) ReadPage(pid uint64, p *Page) (bool, error) {
	if a.serial {
		a.mu.Lock()
		defer a.mu.Unlock()
	}
	n := a.in.Add(1)
	defer a.in.Add(-1)
	for m := a.peak.Load(); n > m && !a.peak.CompareAndSwap(m, n); m = a.peak.Load() {
	}
	time.Sleep(a.delay)
	return a.Archive.ReadPage(pid, p)
}

// TestReadAheadOverlapsPageReads pins the mechanism behind the cold-scan
// numbers as counts, not a throughput ratio: a sequential scan of a
// table eight times the pool's budget, over a device where a page read
// costs 200µs, issues read-ahead and is served by it, and has at least
// two reads inside the pagefile at once — and exactly one when the same
// scan, with the same depth, reads through a single mutex. With
// SetPrefetch(0) the first half fails: nothing is issued and one demand
// read is all that is ever in flight.
func TestReadAheadOverlapsPageReads(t *testing.T) {
	const (
		pages  = 128
		budget = pages / 8
		depth  = 16
	)
	pf := openPF(t, filepath.Join(t.TempDir(), "pagefile.db"))
	build := NewStore()
	for i := 0; i < pages; i++ {
		p, _ := build.GetOrCreate(MakePageID(1, uint64(i+1)))
		if err := p.Insert(0, []byte(fmt.Sprintf("scan-row-%08d", i))); err != nil {
			t.Fatal(err)
		}
		p.SetLSN(1)
		build.MarkDirty(p.ID(), 1)
		p.Unpin()
	}
	if n := build.ArchiveDirtyPages(pf, 1<<62); n != pages {
		t.Fatalf("archived %d pages, want %d", n, pages)
	}
	pids := build.PageIDs()
	sortPageIDs(pids)

	scan := func(serial bool) (CacheStats, int64) {
		a := &inflightArchive{Archive: pf, delay: 200 * time.Microsecond, serial: serial}
		st := NewStore()
		if err := st.SetBackend(a); err != nil {
			t.Fatal(err)
		}
		st.SetCachePages(budget)
		st.SetPrefetch(depth)
		for _, pid := range pids {
			p, err := st.Get(pid)
			if err != nil || p == nil {
				t.Fatalf("scan fault %d: page %v, err %v", pid, p, err)
			}
			p.Unpin()
		}
		// Read-ahead still in flight holds a semaphore slot each; filling
		// the semaphore waits them out, so the peak below is final.
		for i := 0; i < depth; i++ {
			st.prefetchSem <- struct{}{}
		}
		return st.CacheStats(), a.peak.Load()
	}

	cs, peak := scan(false)
	t.Logf("concurrent: %d reads in flight at peak; %+v", peak, cs)
	if cs.PrefetchReads == 0 || cs.PrefetchHits == 0 {
		t.Fatalf("read-ahead never engaged: %d issued, %d hit", cs.PrefetchReads, cs.PrefetchHits)
	}
	if peak < 2 {
		t.Fatalf("the scan never overlapped two page reads (peak %d in flight)", peak)
	}
	if cs.Resident > budget || cs.StealWrites != 0 {
		t.Fatalf("read-only scan: resident %d over a budget of %d, %d demand steals", cs.Resident, budget, cs.StealWrites)
	}

	cs, peak = scan(true)
	t.Logf("serialized: %d reads in flight at peak; %+v", peak, cs)
	if peak != 1 {
		t.Fatalf("behind one mutex %d reads were in flight, want exactly 1", peak)
	}
}
