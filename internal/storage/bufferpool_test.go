package storage

import (
	"encoding/binary"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"aether/internal/logrec"
	"aether/internal/lsn"
)

// fakeWAL is a WAL stub: Force "flushes" by advancing the durable
// horizon, recording every call.
type fakeWAL struct {
	mu      sync.Mutex
	durable lsn.LSN
	forced  []lsn.LSN
}

func (w *fakeWAL) Durable() lsn.LSN {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.durable
}

func (w *fakeWAL) Force(upTo lsn.LSN) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.forced = append(w.forced, upTo)
	if upTo > w.durable {
		w.durable = upTo
	}
	return nil
}

// seqLog is a LogFunc handing out monotonically increasing LSNs, as the
// real appender would, registering each page in st's dirty-page table
// at its record's LSN first, as the LogFunc contract asks.
type seqLog struct {
	mu   sync.Mutex
	next lsn.LSN
	st   *Store
}

func (l *seqLog) log(pageID uint64, up logrec.UpdatePayload) (lsn.LSN, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next++
	l.st.MarkDirty(pageID, l.next)
	return l.next + 1, nil
}

// walCheckingArchive wraps an in-memory PageFile and fails the test if a page image
// lands in the archive before the log covering it is durable — the WAL
// rule the steal path must uphold.
type walCheckingArchive struct {
	*PageFile
	wal *fakeWAL
	t   *testing.T
}

func (a *walCheckingArchive) check(pid uint64, img []byte) {
	if pl := lsn.LSN(binary.LittleEndian.Uint64(img[8:16])); pl > a.wal.Durable() {
		a.t.Errorf("WAL violation: page %d written back at pageLSN %v with durable horizon %v", pid, pl, a.wal.Durable())
	}
}

// WriteBatch checks every image the steal, cleaner and sweep paths hand
// over, as it is handed over.
func (a *walCheckingArchive) WriteBatch(pids []uint64, fill func(i int, dst []byte) bool) error {
	return a.PageFile.WriteBatch(pids, func(i int, dst []byte) bool {
		if !fill(i, dst) {
			return false
		}
		a.check(pids[i], dst)
		return true
	})
}

// poolHarness builds a bounded store over a WAL-checked in-memory PageFile with
// one heap on it.
func poolHarness(t *testing.T, budget int64) (*Store, *HeapFile, *walCheckingArchive, *fakeWAL, *seqLog) {
	t.Helper()
	wal := &fakeWAL{}
	arch := &walCheckingArchive{PageFile: NewMemArchive(), wal: wal, t: t}
	st := NewStore()
	if err := st.SetBackend(arch); err != nil {
		t.Fatal(err)
	}
	st.AttachWAL(wal)
	st.SetCachePages(budget)
	return st, NewHeapFile(st, 1, "t"), arch, wal, &seqLog{st: st}
}

// bigRow builds a row large enough that few fit per page, so small
// insert counts span many pages.
func bigRow(i int) []byte {
	return []byte(fmt.Sprintf("row-%06d-%s", i, string(make([]byte, 1500))))
}

func TestBufferPoolBoundedResidency(t *testing.T) {
	const budget = 4
	st, h, arch, _, sl := poolHarness(t, budget)

	const rows = 120 // ≈ 24 pages at ~5 rows/page: 6× the budget
	rids := make([]RID, rows)
	for i := 0; i < rows; i++ {
		rid, err := h.Insert(bigRow(i), sl.log)
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		rids[i] = rid
		if r := st.CacheStats().Resident; r > budget {
			t.Fatalf("insert %d: resident %d exceeds budget %d", i, r, budget)
		}
	}
	cs := st.CacheStats()
	if cs.Evictions == 0 || cs.StealWrites == 0 {
		t.Fatalf("no eviction pressure: %+v", cs)
	}
	if got := len(st.PageIDs()); int64(got) > budget {
		t.Fatalf("%d resident pages, budget %d", got, budget)
	}

	// Every row reads back exactly, faulting evicted pages from the
	// archive (a page may be resident or stolen — both must serve).
	misses0 := cs.Misses
	for i, rid := range rids {
		got, err := h.Read(rid)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if want := bigRow(i); string(got) != string(want) {
			t.Fatalf("row %d corrupted after paging", i)
		}
		if r := st.CacheStats().Resident; r > budget {
			t.Fatalf("read %d: resident %d exceeds budget %d", i, r, budget)
		}
	}
	if st.CacheStats().Misses == misses0 {
		t.Fatal("reads of evicted pages recorded no misses")
	}

	// The archive holds the stolen images even though no checkpoint ran.
	pids, err := arch.Pages()
	if err != nil || len(pids) == 0 {
		t.Fatalf("no stolen images in the archive: %d (%v)", len(pids), err)
	}
}

// TestStorePagesToItsOwnPageFile: a store with no backend attached still
// has a page file, an in-memory one, so a bounded pool with a WAL hook
// steals its dirty victims into it, faults them back and stays within
// its budget.
func TestStorePagesToItsOwnPageFile(t *testing.T) {
	const budget = 4
	wal := &fakeWAL{}
	st := NewStore()
	st.AttachWAL(wal)
	st.SetCachePages(budget)
	h := NewHeapFile(st, 1, "t")
	sl := &seqLog{st: st}
	const rows = 60 // ≈ 12 pages: three times the budget
	rids := make([]RID, rows)
	for i := range rids {
		rid, err := h.Insert(bigRow(i), sl.log)
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		rids[i] = rid
		if r := st.CacheStats().Resident; r > budget {
			t.Fatalf("insert %d: resident %d exceeds budget %d", i, r, budget)
		}
	}
	if cs := st.CacheStats(); cs.StealWrites == 0 {
		t.Fatalf("no dirty victim was written back: %+v", cs)
	}
	misses0 := st.CacheStats().Misses
	for i, rid := range rids {
		got, err := h.Read(rid)
		if err != nil || string(got) != string(bigRow(i)) {
			t.Fatalf("row %d after paging: %v", i, err)
		}
		if r := st.CacheStats().Resident; r > budget {
			t.Fatalf("read %d: resident %d exceeds budget %d", i, r, budget)
		}
	}
	if st.CacheStats().Misses == misses0 {
		t.Fatal("reads of stolen pages faulted nothing back")
	}
}

func TestBufferPoolPinBlocksEviction(t *testing.T) {
	const budget = 2
	st, h, _, _, sl := poolHarness(t, budget)

	rid, err := h.Insert(bigRow(0), sl.log)
	if err != nil {
		t.Fatal(err)
	}
	pinned, err := st.Get(rid.Page)
	if err != nil || pinned == nil {
		t.Fatalf("pin target: %v", err)
	}
	// Pressure the pool far past the budget; the pinned page must never
	// be reclaimed while the pin is held.
	for i := 1; i < 60; i++ {
		if _, err := h.Insert(bigRow(i), sl.log); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	found := false
	for _, pid := range st.PageIDs() {
		if pid == rid.Page {
			found = true
		}
	}
	if !found {
		t.Fatal("pinned page was evicted")
	}
	pinned.Unpin()
}

func TestBufferPoolNoWALRefusesDirtySteal(t *testing.T) {
	// Without a WAL hook the pool cannot order the steal after the log,
	// so dirty pages must stay resident (overshoot) rather than reach
	// the archive unprotected.
	arch := NewMemArchive()
	st := NewStore()
	if err := st.SetBackend(arch); err != nil {
		t.Fatal(err)
	}
	st.SetCachePages(2)
	h := NewHeapFile(st, 1, "t")
	sl := &seqLog{st: st}
	for i := 0; i < 40; i++ {
		if _, err := h.Insert(bigRow(i), sl.log); err != nil {
			t.Fatal(err)
		}
	}
	cs := st.CacheStats()
	if cs.StealWrites != 0 {
		t.Fatalf("%d steals without a WAL", cs.StealWrites)
	}
	if pids, _ := arch.Pages(); len(pids) != 0 {
		t.Fatalf("%d dirty images reached the archive without a WAL", len(pids))
	}
	if cs.Resident <= 2 {
		t.Fatalf("expected overshoot with unstealable dirty pages, resident=%d", cs.Resident)
	}
}

func TestBufferPoolCleanEvictionNeedsNoSteal(t *testing.T) {
	const budget = 4
	st, h, _, wal, sl := poolHarness(t, budget)
	const rows = 60
	rids := make([]RID, rows)
	for i := 0; i < rows; i++ {
		rid, err := h.Insert(bigRow(i), sl.log)
		if err != nil {
			t.Fatal(err)
		}
		rids[i] = rid
	}
	// Sweep everything clean, then fault pages back in read-only: the
	// evictions that follow must be free (no new steal writes).
	wal.Force(sl.next + 1)
	if n := st.ArchiveDirtyPages(st.backend, wal.Durable()); n == 0 {
		t.Fatal("sweep archived nothing")
	}
	steals0 := st.CacheStats().StealWrites
	for i, rid := range rids {
		if _, err := h.Read(rid); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
	}
	if got := st.CacheStats().StealWrites; got != steals0 {
		t.Fatalf("read-only paging performed %d steal writes", got-steals0)
	}
}

func TestBufferPoolFaultRejectsImageBeyondDurable(t *testing.T) {
	wal := &fakeWAL{durable: 10}
	arch := NewMemArchive()
	// An image claiming pageLSN 100 with the log durable only to 10:
	// the database file ran ahead of the log.
	pid := MakePageID(1, 1)
	img := NewPage(pid)
	img.SetLSN(100)
	if err := arch.Put(pid, img.Snapshot()); err != nil {
		t.Fatal(err)
	}
	st := NewStore()
	if err := st.SetBackend(arch); err != nil {
		t.Fatal(err)
	}
	st.AttachWAL(wal)
	if _, err := st.Get(pid); err == nil {
		t.Fatal("fault accepted an image beyond the durable log end")
	}
	// Once the log catches up the fault succeeds.
	wal.Force(100)
	p, err := st.Get(pid)
	if err != nil || p == nil {
		t.Fatalf("fault after catch-up: %v", err)
	}
	p.Unpin()
}

// TestBufferPoolFaultRejectsShortImage: an archived image of the wrong
// length — a torn or truncated write to the database file — fails the
// fault loudly and installs nothing; it is never read as a page, nor
// taken for a page that does not exist.
func TestBufferPoolFaultRejectsShortImage(t *testing.T) {
	arch := shortImageArchive{NewMemArchive()}
	pid := MakePageID(1, 1)
	if err := arch.Put(pid, NewPage(pid).Snapshot()); err != nil {
		t.Fatal(err)
	}
	st := NewStore()
	if err := st.SetBackend(arch); err != nil {
		t.Fatal(err)
	}
	for _, get := range []func(uint64) (*Page, error){st.Get, st.GetOrCreate} {
		if p, err := get(pid); err == nil || p != nil {
			t.Fatalf("fault of a %d-byte image = (%v, %v), want an error", PageSize/2, p, err)
		}
	}
	if cs := st.CacheStats(); cs.Resident != 0 || cs.Misses != 0 || len(st.PageIDs()) != 0 {
		t.Fatalf("failed fault installed a frame: %+v, resident pages %v", cs, st.PageIDs())
	}
}

// shortImageArchive serves every stored image cut to half its length.
type shortImageArchive struct{ *PageFile }

func (a shortImageArchive) ReadPage(pid uint64, p *Page) (bool, error) {
	img, err := a.Get(pid)
	if err != nil {
		return false, err
	}
	return true, p.LoadSnapshot(img[:PageSize/2])
}

func TestBufferPoolConcurrentPaging(t *testing.T) {
	// Race-detector fodder: concurrent inserts and reads over a pool
	// far smaller than the working set.
	const budget = 8
	st, h, _, _, sl := poolHarness(t, budget)
	const perG, goroutines = 40, 4

	rids := make([][]RID, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		rids[g] = make([]RID, perG)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				rid, err := h.Insert(bigRow(g*perG+i), sl.log)
				if err != nil {
					t.Errorf("insert: %v", err)
					return
				}
				rids[g][i] = rid
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				got, err := h.Read(rids[g][i])
				if err != nil {
					t.Errorf("read: %v", err)
					return
				}
				if want := bigRow(g*perG + i); string(got) != string(want) {
					t.Errorf("row %d/%d corrupted", g, i)
					return
				}
			}
		}()
	}
	wg.Wait()
	cs := st.CacheStats()
	if cs.Evictions == 0 || cs.Misses == 0 {
		t.Fatalf("no paging under pressure: %+v", cs)
	}
}

// TestFaultAllocatesTheFrameOnly: a page fault from a PageFile backend —
// demand or read-ahead — allocates the frame it installs and nothing
// else: one object, of a Page's size class. The slot is read straight
// into that frame (no slot-sized staging buffer, which doubled a fault's
// bytes), and its checksum is computed where the bytes lie.
func TestFaultAllocatesTheFrameOnly(t *testing.T) {
	pf := openPF(t, filepath.Join(t.TempDir(), "pagefile.db"))
	const pages = 512 // more than one measurement touches: every access is to a page not in the pool
	batch := make([]PageImage, pages)
	for i := range batch {
		pid := MakePageID(1, uint64(i+1))
		batch[i] = PageImage{PID: pid, Img: pfTestImage(pid, byte(i))}
	}
	if err := pf.PutBatch(batch); err != nil {
		t.Fatal(err)
	}

	// measure runs fn n times after a warm-up and returns what one call
	// allocates, in objects and in bytes.
	measure := func(n int, fn func()) (objects float64, bytes uint64) {
		for i := 0; i < 64; i++ {
			fn() // the shard maps and the clock grow to their working size
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		objects = testing.AllocsPerRun(n, fn)
		runtime.ReadMemStats(&after)
		// AllocsPerRun calls fn once more than n, to warm up.
		return objects, (after.TotalAlloc - before.TotalAlloc) / uint64(n+1)
	}
	var sink *Page
	_, frame := measure(256, func() { sink = NewPage(1) })
	_ = sink
	if frame < uint64(unsafe.Sizeof(Page{})) || frame > uint64(unsafe.Sizeof(Page{}))*5/4 {
		t.Fatalf("a frame measures %d bytes for a %d-byte Page", frame, unsafe.Sizeof(Page{}))
	}
	// The byte counts are of the whole process and carry a few bytes of
	// the measurement's own; a second object of any size that matters —
	// the staging buffer was a frame's worth — does not hide in 64.
	const slack = 64

	newPool := func() *Store {
		st := NewStore()
		if err := st.SetBackend(pf); err != nil {
			t.Fatal(err)
		}
		st.AttachWAL(&fakeWAL{})
		st.SetCachePages(8)
		return st
	}
	st, next := newPool(), 0
	objects, bytes := measure(256, func() {
		p, err := st.Get(batch[next].PID)
		if err != nil || p == nil {
			t.Fatalf("fault: %v", err)
		}
		p.Unpin()
		next++
	})
	if cs := st.CacheStats(); cs.Misses != int64(next) {
		t.Fatalf("%d of %d accesses faulted; the measurement is of faults", cs.Misses, next)
	}
	if objects != 1 || bytes > frame+slack {
		t.Errorf("a demand fault allocates %v objects, %d bytes; want 1 object, the %d-byte frame", objects, bytes, frame)
	}

	st, next = newPool(), 0
	st.SetPrefetch(4)
	objects, bytes = measure(256, func() {
		st.prefetchSem <- struct{}{} // the slot noteAccess would have taken
		st.prefetchOne(batch[next].PID)
		next++
	})
	if cs := st.CacheStats(); cs.PrefetchReads != int64(next) {
		t.Fatalf("%d of %d prefetches installed a page", cs.PrefetchReads, next)
	}
	if objects != 1 || bytes > frame+slack {
		t.Errorf("a prefetch allocates %v objects, %d bytes; want 1 object, the %d-byte frame", objects, bytes, frame)
	}
}
