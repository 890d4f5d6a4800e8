package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"aether/internal/lsn"
	"aether/internal/vfs"
)

// pfTestImage builds a valid, distinctive page image for pid.
func pfTestImage(pid uint64, fill byte) []byte {
	img := make([]byte, PageSize)
	binary.LittleEndian.PutUint64(img[0:8], pid)
	for i := hdrSize; i < PageSize; i++ {
		img[i] = fill
	}
	return img
}

func openPF(t *testing.T, path string) *PageFile {
	t.Helper()
	pf, err := OpenPageFile(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pf.Close() })
	return pf
}

func TestPageFileRoundTripAndReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pagefile.db")
	pf := openPF(t, path)

	if img, err := pf.Get(42); img != nil || err != nil {
		t.Fatalf("Get on empty pagefile = %v, %v", img, err)
	}
	batch := []PageImage{
		{PID: 42, Img: pfTestImage(42, 0xAA)},
		{PID: 7, Img: pfTestImage(7, 0xBB)},
		{PID: 99, Img: pfTestImage(99, 0xCC)},
	}
	if err := pf.PutBatch(batch); err != nil {
		t.Fatal(err)
	}
	// Overwrite in a second batch: same slot, new version.
	v2 := pfTestImage(42, 0xAD)
	if err := pf.Put(42, v2); err != nil {
		t.Fatal(err)
	}
	if got, err := pf.Get(42); err != nil || !bytes.Equal(got, v2) {
		t.Fatalf("Get(42) after overwrite: err=%v match=%v", err, bytes.Equal(got, v2))
	}
	pages, err := pf.Pages()
	if err != nil || len(pages) != 3 || pages[0] != 7 || pages[1] != 42 || pages[2] != 99 {
		t.Fatalf("Pages = %v (%v), want [7 42 99]", pages, err)
	}
	if err := pf.Close(); err != nil {
		t.Fatal(err)
	}
	if err := pf.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	// Reopen: directory rebuilt from slot headers, images verified on read.
	pf2 := openPF(t, path)
	if pf2.JournalReplayed() != 0 {
		t.Fatalf("clean reopen replayed %d journal pages", pf2.JournalReplayed())
	}
	if got, err := pf2.Get(42); err != nil || !bytes.Equal(got, v2) {
		t.Fatalf("reopened Get(42): err=%v match=%v", err, bytes.Equal(got, v2))
	}
	if got, err := pf2.Get(7); err != nil || !bytes.Equal(got, pfTestImage(7, 0xBB)) {
		t.Fatalf("reopened Get(7): err=%v", err)
	}
	// A page written twice keeps one slot: 3 pages, 3 slots.
	if slots := pf2.Slots(); len(slots) != 3 {
		t.Fatalf("slots = %v, want 3 entries", slots)
	}
}

// TestPageFileCrashBetweenJournalAndInPlace is the satellite crash test:
// the process dies after the journal fsync but before any in-place
// write; reopening must replay the journal and restore every image with
// passing checksums.
func TestPageFileCrashBetweenJournalAndInPlace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pagefile.db")
	pf := openPF(t, path)
	// An initial durable batch the crash must not disturb.
	if err := pf.Put(1, pfTestImage(1, 0x11)); err != nil {
		t.Fatal(err)
	}
	pf.crashAfterJournal = true
	batch := []PageImage{
		{PID: 1, Img: pfTestImage(1, 0x12)}, // overwrite
		{PID: 2, Img: pfTestImage(2, 0x22)}, // new page
		{PID: 3, Img: pfTestImage(3, 0x33)}, // new page
	}
	if err := pf.PutBatch(batch); err != ErrSimulatedCrash {
		t.Fatalf("PutBatch with crash point = %v, want ErrSimulatedCrash", err)
	}

	pf2 := openPF(t, path)
	if pf2.JournalReplayed() != 3 {
		t.Fatalf("reopen replayed %d pages, want 3", pf2.JournalReplayed())
	}
	want := map[uint64]byte{1: 0x12, 2: 0x22, 3: 0x33}
	for pid, fill := range want {
		got, err := pf2.Get(pid)
		if err != nil {
			t.Fatalf("Get(%d) after replay: %v", pid, err)
		}
		if !bytes.Equal(got, pfTestImage(pid, fill)) {
			t.Fatalf("page %d image wrong after journal replay", pid)
		}
	}
	// A second reopen must not replay again (journal was cleared).
	pf2.Close()
	pf3 := openPF(t, path)
	if pf3.JournalReplayed() != 0 {
		t.Fatalf("journal survived its replay: %d pages replayed again", pf3.JournalReplayed())
	}
}

// TestPageFileTornInitialHeaderRecovered: power loss during the very
// first header write leaves a short/garbage header; since no slot can
// exist before the header fsync returns, Open must rewrite it instead
// of bricking the database.
func TestPageFileTornInitialHeaderRecovered(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pagefile.db")
	if err := os.WriteFile(path, []byte("torn-partial-head"), 0o644); err != nil {
		t.Fatal(err)
	}
	pf := openPF(t, path)
	if err := pf.Put(1, pfTestImage(1, 0x10)); err != nil {
		t.Fatal(err)
	}
	pf.Close()
	pf2 := openPF(t, path)
	if got, err := pf2.Get(1); err != nil || !bytes.Equal(got, pfTestImage(1, 0x10)) {
		t.Fatalf("pagefile unusable after torn-header recovery: %v", err)
	}
}

// TestPageFileTornJournalDiscarded: a crash mid-journal-write (before the
// journal fsync returned) leaves a checksum-invalid journal; Open must
// discard it and keep the previous batch intact.
func TestPageFileTornJournalDiscarded(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pagefile.db")
	pf := openPF(t, path)
	if err := pf.Put(5, pfTestImage(5, 0x55)); err != nil {
		t.Fatal(err)
	}
	pf.Close()

	// Hand-craft a torn journal: valid header shape, corrupt entry bytes.
	jnl := make([]byte, pfJnlHdrSize+pfJnlEntrySize)
	binary.LittleEndian.PutUint32(jnl[0:4], pfJournalMagic)
	binary.LittleEndian.PutUint32(jnl[4:8], pfVersion)
	binary.LittleEndian.PutUint32(jnl[8:12], 1)
	binary.LittleEndian.PutUint32(jnl[12:16], PageSize)
	binary.LittleEndian.PutUint32(jnl[16:20], 0xDEADBEEF) // wrong batch CRC
	if err := os.WriteFile(path+".journal", jnl, 0o644); err != nil {
		t.Fatal(err)
	}

	pf2 := openPF(t, path)
	if pf2.JournalReplayed() != 0 {
		t.Fatal("torn journal was replayed")
	}
	if got, err := pf2.Get(5); err != nil || !bytes.Equal(got, pfTestImage(5, 0x55)) {
		t.Fatalf("previous batch damaged by torn journal: err=%v", err)
	}
	if st, err := os.Stat(path + ".journal"); err != nil || st.Size() != 0 {
		t.Fatalf("torn journal not cleared: %v, %v", st, err)
	}
}

// TestPageFileRetryAfterFailedBatchReusesSlot: a batch that fails after
// slot assignment (transient I/O error) must not strand its slots — the
// retry has to land the same pages in the same slots, or the file would
// hold one page in two used slots and never reopen.
func TestPageFileRetryAfterFailedBatchReusesSlot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pagefile.db")
	pf := openPF(t, path)
	if err := pf.Put(1, pfTestImage(1, 0x01)); err != nil {
		t.Fatal(err)
	}
	simErr := errors.New("simulated transient write failure")
	pf.failApply = simErr
	batch := []PageImage{
		{PID: 2, Img: pfTestImage(2, 0x02)},
		{PID: 3, Img: pfTestImage(3, 0x03)},
	}
	if err := pf.PutBatch(batch); err != simErr {
		t.Fatalf("PutBatch = %v, want the injected failure", err)
	}
	// A *different* later batch must first re-apply the stranded journal
	// (the failed batch's only intact copy) instead of overwriting it:
	// pages 2 and 3 have to surface even though no retry included them.
	if err := pf.PutBatch([]PageImage{{PID: 4, Img: pfTestImage(4, 0x04)}}); err != nil {
		t.Fatal(err)
	}
	for pid, fill := range map[uint64]byte{2: 0x02, 3: 0x03, 4: 0x04} {
		if got, err := pf.Get(pid); err != nil || !bytes.Equal(got, pfTestImage(pid, fill)) {
			t.Fatalf("page %d lost after stranded-journal re-apply: %v", pid, err)
		}
	}
	// Re-putting the once-failed pages reuses their reserved slots.
	if err := pf.PutBatch(batch); err != nil {
		t.Fatal(err)
	}
	slots := pf.Slots()
	if len(slots) != 4 {
		t.Fatalf("slots after retry = %v, want exactly 4", slots)
	}
	if pf.nextSlot != 4 {
		t.Fatalf("nextSlot = %d after retry, want 4 (no slot leaked)", pf.nextSlot)
	}
	pf.Close()
	// The file must reopen cleanly: no page in two slots.
	pf2 := openPF(t, path)
	if pages, err := pf2.Pages(); err != nil || len(pages) != 4 {
		t.Fatalf("reopen after retried batch: %v, %v", pages, err)
	}
	if got, err := pf2.Get(3); err != nil || !bytes.Equal(got, pfTestImage(3, 0x03)) {
		t.Fatalf("retried page unreadable: %v", err)
	}
}

func TestPageFileChecksumCatchesCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pagefile.db")
	pf := openPF(t, path)
	if err := pf.Put(9, pfTestImage(9, 0x99)); err != nil {
		t.Fatal(err)
	}
	pf.Close()

	// Flip a byte in the page body on disk.
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xFF}, pfHeaderSize+pfSlotHdr+100); err != nil {
		t.Fatal(err)
	}
	f.Close()

	pf2 := openPF(t, path)
	if _, err := pf2.Get(9); err == nil {
		t.Fatal("corrupted page image passed its checksum")
	}
}

// TestSweepFsyncsO1 counts what a sweep asks of the filesystem, on the
// fault filesystem's own op counters rather than the pagefile's: one
// WriteBatch is two file fsyncs — the journal's commit point, the
// pagefile's in-place writes — whether it carries 1 page, 32 or 200, and
// the pagefile's Fsyncs counter says the same.
func TestSweepFsyncsO1(t *testing.T) {
	for _, pages := range []int{1, 32, 200} {
		t.Run(fmt.Sprintf("pages=%d", pages), func(t *testing.T) {
			fs := vfs.NewFaultFS(1)
			if err := fs.MkdirAll("/db", 0o755); err != nil {
				t.Fatal(err)
			}
			pf, err := OpenPageFileFS(fs, "/db/pagefile.db")
			if err != nil {
				t.Fatal(err)
			}
			defer pf.Close()
			st := NewStore()
			for i := 1; i <= pages; i++ {
				p, _ := st.GetOrCreate(MakePageID(1, uint64(i)))
				p.SetLSN(1)
				st.MarkDirty(p.ID(), 1)
				p.Unpin()
			}

			ops, counted := fs.OpCounts(), pf.Fsyncs()
			if n := st.ArchiveDirtyPages(pf, lsn.LSN(1)); n != pages {
				t.Fatalf("sweep archived %d pages, want %d", n, pages)
			}
			after := fs.OpCounts()
			if got := after[vfs.OpSync] - ops[vfs.OpSync]; got != 2 {
				t.Fatalf("sweep of %d pages issued %d file fsyncs, want exactly 2", pages, got)
			}
			if got := after[vfs.OpSyncDir] - ops[vfs.OpSyncDir]; got != 0 {
				t.Fatalf("sweep of %d pages issued %d directory fsyncs, want none", pages, got)
			}
			if got := pf.Fsyncs() - counted; got != 2 {
				t.Fatalf("pagefile counted %d fsyncs for the sweep, the filesystem saw 2", got)
			}
			if len(st.DirtyPages()) != 0 {
				t.Fatal("sweep left pages dirty")
			}
			// And everything is readable back with passing checksums.
			pids, err := pf.Pages()
			if err != nil || len(pids) != pages {
				t.Fatalf("Pages = %d entries (%v), want %d", len(pids), err, pages)
			}
			for _, pid := range []uint64{pids[0], pids[pages/2], pids[pages-1]} {
				if _, err := pf.Get(pid); err != nil {
					t.Fatalf("Get(%d) after sweep: %v", pid, err)
				}
			}
		})
	}
}

// TestStoreFaultsFromReopenedPageFile: a page the sweep archived faults
// back, record and pageLSN intact, into a fresh store over the reopened
// database file.
func TestStoreFaultsFromReopenedPageFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pagefile.db")
	pf := openPF(t, path)

	st := NewStore()
	p, _ := st.GetOrCreate(MakePageID(2, 1))
	defer p.Unpin()
	if err := p.Insert(0, []byte("hello-pagefile")); err != nil {
		t.Fatal(err)
	}
	p.SetLSN(7)
	st.MarkDirty(p.ID(), 7)
	if n := st.ArchiveDirtyPages(pf, lsn.LSN(7)); n != 1 {
		t.Fatalf("sweep archived %d pages, want 1", n)
	}
	pf.Close()

	pf2 := openPF(t, path)
	st2 := NewStore()
	if err := st2.SetBackend(pf2); err != nil {
		t.Fatal(err)
	}
	p2, err := st2.Get(MakePageID(2, 1))
	if err != nil || p2 == nil {
		t.Fatalf("archived page not restored: %v", err)
	}
	defer p2.Unpin()
	if got, err := p2.Get(0); err != nil || string(got) != "hello-pagefile" {
		t.Fatalf("restored record = %q, %v", got, err)
	}
	if p2.LSN() != 7 {
		t.Fatalf("restored pageLSN = %v, want 7", p2.LSN())
	}
}

// TestSweepMemoryBounded is the streamed write-back's deterministic
// evidence: what a checkpoint sweep allocates does not grow with the
// images it moves. A 2 000-page (16 MB) sweep into a pagefile on the
// real filesystem allocates under 1 MiB in all — the 263 KB scratch, the
// pagefile's directory growing by 2 000 entries, 56 bytes of bookkeeping
// a page — where copying every image three times (snapshot, journal,
// coalesced run) took about 50 MB; a second sweep of the same pages
// reuses the scratch and the lists and allocates under 64 KiB. Each costs
// exactly two fsyncs.
func TestSweepMemoryBounded(t *testing.T) {
	const pages = 2000
	st := NewStore()
	dirtyAll := func(at lsn.LSN) {
		for i := 1; i <= pages; i++ {
			p, err := st.GetOrCreate(MakePageID(1, uint64(i)))
			if err != nil {
				t.Fatal(err)
			}
			p.SetLSN(at)
			st.MarkDirty(p.ID(), at)
			p.Unpin()
		}
	}
	pf := openPF(t, filepath.Join(t.TempDir(), "pagefile.db"))
	sweep := func(durable lsn.LSN) (allocated uint64, fsyncs int64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f0 := pf.Fsyncs()
		n := st.ArchiveDirtyPages(pf, durable)
		fsyncs = pf.Fsyncs() - f0
		runtime.ReadMemStats(&after)
		if n != pages {
			t.Fatalf("sweep cleaned %d pages, want %d", n, pages)
		}
		return after.TotalAlloc - before.TotalAlloc, fsyncs
	}
	dirtyAll(1)
	first, fsyncs := sweep(1)
	if first > 1<<20 || fsyncs != 2 {
		t.Errorf("first sweep of %d pages: allocated %d bytes with %d fsyncs, want ≤ 1 MiB and exactly 2", pages, first, fsyncs)
	}
	dirtyAll(2)
	second, fsyncs := sweep(2)
	if second > 64<<10 || fsyncs != 2 {
		t.Errorf("second sweep of %d pages: allocated %d bytes with %d fsyncs, want ≤ 64 KiB and exactly 2", pages, second, fsyncs)
	}
	t.Logf("allocated: first sweep %d bytes, second %d", first, second)
	if img, err := pf.Get(MakePageID(1, pages)); err != nil || lsn.LSN(binary.LittleEndian.Uint64(img[8:16])) != 2 {
		t.Fatalf("last page after the second sweep: %v", err)
	}
}
