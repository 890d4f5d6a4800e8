package storage

import (
	"sync"
	"testing"
)

// countingArchive wraps an in-memory PageFile counting image writes per page, with
// an optional one-shot gate that parks the next write-back call *after*
// its images have landed — the "cleaner wrote, but has not marked clean /
// released the page yet" window the writeback-latch protocol is about.
// Every write-back path (sweep, cleaner, steal) arrives through
// WriteBatch, so the gate is one-shot: the caller the test aimed at
// parks, and whoever comes next (a steal racing a parked cleaner) passes.
type countingArchive struct {
	*PageFile
	mu   sync.Mutex
	puts map[uint64]int

	gateMu  sync.Mutex
	gated   bool          // park the next write-back call after the write
	entered chan struct{} // signaled by the parked call, post-write
	release chan struct{}
}

func newCountingArchive() *countingArchive {
	return &countingArchive{
		PageFile: NewMemArchive(),
		puts:     make(map[uint64]int),
		entered:  make(chan struct{}, 1),
		release:  make(chan struct{}),
	}
}

func (a *countingArchive) count(pid uint64) {
	a.mu.Lock()
	a.puts[pid]++
	a.mu.Unlock()
}

func (a *countingArchive) putsFor(pid uint64) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.puts[pid]
}

func (a *countingArchive) WriteBatch(pids []uint64, fill func(i int, dst []byte) bool) error {
	err := a.PageFile.WriteBatch(pids, func(i int, dst []byte) bool {
		if !fill(i, dst) {
			return false
		}
		a.count(pids[i])
		return true
	})
	if err != nil {
		return err
	}
	a.gateMu.Lock()
	gated := a.gated
	a.gated = false
	a.gateMu.Unlock()
	if gated {
		a.entered <- struct{}{}
		<-a.release
	}
	return nil
}

func (a *countingArchive) gate() {
	a.gateMu.Lock()
	a.gated = true
	a.gateMu.Unlock()
}

// cleanerHarness is poolHarness over a countingArchive.
func cleanerHarness(t *testing.T, budget int64) (*Store, *HeapFile, *countingArchive, *fakeWAL, *seqLog) {
	t.Helper()
	wal := &fakeWAL{}
	arch := newCountingArchive()
	st := NewStore()
	if err := st.SetBackend(arch); err != nil {
		t.Fatal(err)
	}
	st.AttachWAL(wal)
	st.SetCachePages(budget)
	return st, NewHeapFile(st, 1, "t"), arch, wal, &seqLog{st: st}
}

func TestCleanerPreCleansDirtyPages(t *testing.T) {
	const budget = 8
	st, h, arch, wal, sl := cleanerHarness(t, budget)

	// Fill to (but not past) the budget: every resident page dirty, no
	// eviction pressure yet.
	for i := 0; i < 30; i++ {
		if _, err := h.Insert(bigRow(i), sl.log); err != nil {
			t.Fatal(err)
		}
	}
	dirty := len(st.DirtyPages())
	if dirty == 0 {
		t.Fatal("nothing dirty to clean")
	}
	if !st.NeedClean(budget) {
		t.Fatal("NeedClean false with every frame dirty")
	}
	// Commits force the log in real life; the cleaner prefers pages the
	// durable horizon already covers.
	wal.Force(sl.next + 1)

	n, err := st.CleanBatch(budget)
	if err != nil {
		t.Fatalf("CleanBatch: %v", err)
	}
	if n == 0 {
		t.Fatal("cleaner wrote nothing")
	}
	cs := st.CacheStats()
	if cs.CleanerWrites != int64(n) || cs.CleanerPasses != 1 {
		t.Fatalf("cleaner counters off: %+v (wrote %d)", cs, n)
	}
	if cs.StealWrites != 0 {
		t.Fatalf("pre-cleaning performed %d demand steals", cs.StealWrites)
	}
	if got := len(st.DirtyPages()); got != dirty-n {
		t.Fatalf("%d pages still dirty, want %d", got, dirty-n)
	}
	// The WAL rule held as one batch: a force covering the highest
	// cleaned pageLSN before any image landed (a no-op here, since the
	// cleaner prefers durably covered victims).
	if len(wal.forced) == 0 {
		t.Fatal("cleaner never forced the log")
	}
	pids, _ := arch.Pages()
	if len(pids) != n {
		t.Fatalf("archive holds %d images, cleaner wrote %d", len(pids), n)
	}

	// Eviction after pre-cleaning is pure frame dropping: pressure the
	// pool well past the budget with a second space and watch the
	// cleaned pages leave without a single demand steal... of themselves.
	h2 := NewHeapFile(st, 2, "u")
	for i := 0; i < 30; i++ {
		if _, err := h2.Insert(bigRow(i), sl.log); err != nil {
			t.Fatal(err)
		}
	}
	for _, pid := range pids {
		if got := arch.putsFor(pid); got != 1 {
			t.Fatalf("cleaned page %d written %d times, want exactly 1", pid, got)
		}
	}
}

func TestCleanerSkipsPinnedAndClaimedPages(t *testing.T) {
	const budget = 8
	st, h, _, wal, sl := cleanerHarness(t, budget)
	rid, err := h.Insert(bigRow(0), sl.log)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 20; i++ {
		if _, err := h.Insert(bigRow(i), sl.log); err != nil {
			t.Fatal(err)
		}
	}
	wal.Force(sl.next + 1)

	// A page pinned by a reader is in active use: the cleaner must not
	// waste a writeback on it.
	pinned, err := st.Get(rid.Page)
	if err != nil || pinned == nil {
		t.Fatalf("pin: %v", err)
	}
	// A page whose writeback latch is already claimed (a steal or sweep
	// in flight) must be skipped, not written a second time.
	var claimed *Page
	for _, pid := range st.PageIDs() {
		if pid != rid.Page && st.isDirty(pid) {
			p, _ := st.pin(pid, false)
			if p == nil {
				continue
			}
			p.Unpin()
			if p.wb.CompareAndSwap(false, true) {
				claimed = p
				break
			}
		}
	}
	if claimed == nil {
		t.Fatal("no dirty page to claim")
	}
	if _, err := st.CleanBatch(budget); err != nil {
		t.Fatal(err)
	}
	if !st.isDirty(rid.Page) {
		t.Fatal("cleaner wrote back a pinned, in-use page")
	}
	if !st.isDirty(claimed.ID()) {
		t.Fatal("cleaner wrote back a page whose writeback latch was held")
	}
	claimed.wb.Store(false)
	pinned.Unpin()
}

// TestCleanerStealRaceWritesImageOnce pins down the PR's two core
// claims at once: (1) a page the cleaner has in flight is never also
// written by a demand steal — the writeback latch makes the image land
// exactly once; (2) faults (and their evictions) proceed while the
// cleaner's archive write is still blocked on "I/O", because eviction
// no longer serializes writebacks under evictMu.
func TestCleanerStealRaceWritesImageOnce(t *testing.T) {
	const budget = 6
	st, h, arch, wal, sl := cleanerHarness(t, budget)

	// Dirty a handful of pages, make them durably covered (as committed
	// work would be), then let the cleaner claim them all and block
	// inside the archive write.
	for i := 0; i < 20; i++ {
		if _, err := h.Insert(bigRow(i), sl.log); err != nil {
			t.Fatal(err)
		}
	}
	wal.Force(sl.next + 1)
	inFlight := st.DirtyPages()
	if len(inFlight) == 0 {
		t.Fatal("nothing dirty")
	}
	arch.gate()
	cleanErr := make(chan error, 1)
	go func() {
		_, err := st.CleanBatch(budget)
		cleanErr <- err
	}()
	<-arch.entered // images written; mark-clean and release still pending

	// Memory pressure from another space while the cleaner is "mid-I/O":
	// these faults must complete — finding victims or overshooting — not
	// queue behind the blocked writeback. Before this PR the eviction
	// lock was held across steal I/O and this would stall.
	h2 := NewHeapFile(st, 2, "u")
	for i := 0; i < 20; i++ {
		if _, err := h2.Insert(bigRow(i), sl.log); err != nil {
			t.Fatal(err)
		}
	}

	arch.release <- struct{}{}
	if err := <-cleanErr; err != nil {
		t.Fatalf("CleanBatch: %v", err)
	}
	// Every page the cleaner had in flight was written exactly once: the
	// concurrent eviction storm could not double-write (steal) any of
	// them while the writeback latch was held.
	for _, e := range inFlight {
		if got := arch.putsFor(e.PageID); got > 1 {
			t.Fatalf("page %d written %d times during cleaner/steal race", e.PageID, got)
		}
		if st.isDirty(e.PageID) {
			continue // claimed by nobody this pass (e.g. was pinned); fine
		}
	}
	if cs := st.CacheStats(); cs.CleanerWrites == 0 {
		t.Fatalf("cleaner recorded no writes: %+v", cs)
	}
}

// TestFailedStealKeepsPageEvictable covers the clock bookkeeping of the
// out-of-lock steal path: a victim leaves the clock before its steal
// I/O starts, so a steal that fails (here: the page gets pinned
// mid-steal) must put it back — otherwise the page would stay resident
// with no clock entry and never be visited by eviction again, silently
// burning a frame of the budget.
func TestFailedStealKeepsPageEvictable(t *testing.T) {
	const budget = 4
	st, h, arch, wal, sl := cleanerHarness(t, budget)
	rid, err := h.Insert(bigRow(0), sl.log)
	if err != nil {
		t.Fatal(err)
	}
	wal.Force(sl.next + 1)

	// Block the steal's write after the image lands, pin the victim while
	// the steal is parked, then let it finish: the final revalidation
	// sees the pin and the frame stays.
	arch.gate()
	victim, err := st.Get(rid.Page)
	if err != nil || victim == nil {
		t.Fatalf("victim lookup: %v", err)
	}
	victim.Unpin()
	done := make(chan bool, 1)
	go func() { done <- st.evictOne(true) }()
	select {
	case <-arch.entered:
	case ok := <-done:
		t.Fatalf("evictOne returned %v without entering the archive gate", ok)
	}
	pinned, err := st.Get(rid.Page) // pin mid-steal → steal must fail
	if err != nil || pinned == nil {
		t.Fatalf("mid-steal pin: %v", err)
	}
	arch.release <- struct{}{}
	if <-done {
		t.Fatal("steal claimed success against a pinned page")
	}
	if p, _ := st.Get(rid.Page); p == nil {
		t.Fatal("page vanished despite the failed steal")
	} else {
		p.Unpin()
	}
	pinned.Unpin()

	// The page must still be reachable by the clock: with the pin gone
	// (and the page now clean in the archive's eyes — the steal wrote
	// it, but it stayed dirty in the DPT), eviction pressure must be
	// able to reclaim it rather than skip it forever.
	evicted := false
	for i := 0; i < 8 && !evicted; i++ {
		evicted = st.evictOne(true)
	}
	if !evicted {
		t.Fatal("no frame reclaimable after the failed steal — victim lost its clock entry")
	}
}

func TestNeedCleanSemantics(t *testing.T) {
	st, h, _, wal, sl := cleanerHarness(t, 8)
	if st.NeedClean(0) {
		t.Fatal("target 0 can never need cleaning")
	}
	// Empty pool: everything free.
	if st.NeedClean(8) {
		t.Fatal("empty pool needs no cleaning")
	}
	for i := 0; i < 30; i++ {
		if _, err := h.Insert(bigRow(i), sl.log); err != nil {
			t.Fatal(err)
		}
	}
	if !st.NeedClean(4) {
		t.Fatal("full dirty pool reported no need to clean")
	}
	wal.Force(sl.next + 1)
	if n, err := st.CleanBatch(8); err != nil || n == 0 {
		t.Fatalf("CleanBatch: n=%d err=%v", n, err)
	}
	if st.NeedClean(4) {
		t.Fatal("still needs cleaning after a full pass")
	}

	// Unbounded pools and stores without a WAL never clean.
	st2 := NewStore()
	if err := st2.SetBackend(NewMemArchive()); err != nil {
		t.Fatal(err)
	}
	if st2.NeedClean(4) {
		t.Fatal("unbounded store reported cleaning need")
	}
	if n, err := st2.CleanBatch(4); err != nil || n != 0 {
		t.Fatalf("unbounded CleanBatch: n=%d err=%v", n, err)
	}
}
