package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

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
	// Overwrite in a second batch: a new slot, a new version.
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
	if pf2.Cleared() != 0 {
		t.Fatalf("clean reopen cleared %d slots", pf2.Cleared())
	}
	if got, err := pf2.Get(42); err != nil || !bytes.Equal(got, v2) {
		t.Fatalf("reopened Get(42): err=%v match=%v", err, bytes.Equal(got, v2))
	}
	if got, err := pf2.Get(7); err != nil || !bytes.Equal(got, pfTestImage(7, 0xBB)) {
		t.Fatalf("reopened Get(7): err=%v", err)
	}
	// A page written twice has one live slot: 3 pages, 3 live slots.
	if slots := pf2.Slots(); len(slots) != 3 {
		t.Fatalf("slots = %v, want 3 entries", slots)
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
// fault filesystem's own op counters and trace rather than the
// pagefile's: one WriteBatch is two file fsyncs — the images', then the
// commit record's — whether it carries 1 page, 32 or 200, and the
// pagefile's Fsyncs counter says the same. Each image's bytes are written
// once: the writes to the database file and anything beside it add up to
// the pages' slots plus one sector for the commit record, and no second
// file ever exists beside it.
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

			tr := fs.Trace()
			ops, counted, seq := fs.OpCounts(), pf.Fsyncs(), tr[len(tr)-1].Seq
			if n := st.ArchiveDirtyPages(pf, lsn.LSN(1)); n != pages {
				t.Fatalf("sweep archived %d pages, want %d", n, pages)
			}
			after := fs.OpCounts()
			written := 0
			for _, e := range fs.Trace() {
				if e.Seq > seq && e.Op == vfs.OpWrite && strings.HasPrefix(e.Path, "/db/pagefile.db") {
					written += e.Len
				}
			}
			if limit := pages*pfSlotSize + pfSectorSize; written > limit {
				t.Fatalf("sweep of %d pages wrote %d bytes, want at most %d (each image once, one commit sector)", pages, written, limit)
			}
			if ents, err := fs.ReadDir("/db"); err != nil || len(ents) != 1 {
				t.Fatalf("the database directory holds %d files (%v), want the pagefile alone", len(ents), err)
			}
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

// TestPageFileReclaimsReplacedSlots: a batch frees the slots its pages
// leave once it commits, and the next batch takes the lowest free ones.
// Rewriting the same 64 pages in 500 batches of 8 therefore keeps the
// file within the live pages plus one batch — 72 slots — and every page
// reopens at its last image.
func TestPageFileReclaimsReplacedSlots(t *testing.T) {
	const pages, batch, rounds = 64, 8, 500
	fs := vfs.NewFaultFS(1)
	pf := openPFFault(t, fs)
	last := make(map[uint64][]byte)
	put := func(from, n int, fill byte) {
		var b []PageImage
		for i := from; i < from+n; i++ {
			pid := uint64(i%pages + 1)
			last[pid] = pfTestImage(pid, fill)
			b = append(b, PageImage{PID: pid, Img: last[pid]})
		}
		if err := pf.PutBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	put(0, pages, 0)
	for r := 0; r < rounds; r++ {
		put(r*batch, batch, byte(r+1))
	}
	st, err := fs.Stat("/db/pagefile.db")
	if err != nil {
		t.Fatal(err)
	}
	if limit := int64(pfHeaderSize + (pages+batch)*pfSlotSize); st.Size() > limit {
		t.Fatalf("file is %d bytes (%d slots) after %d rewrites, want at most %d slots",
			st.Size(), (st.Size()-pfHeaderSize)/pfSlotSize, rounds, pages+batch)
	}
	pf.Close()
	pf2 := openPFFault(t, fs)
	defer pf2.Close()
	for pid, img := range last {
		if got, err := pf2.Get(pid); err != nil || !bytes.Equal(got, img) {
			t.Fatalf("page %d after reopen: not its last image (err=%v)", pid, err)
		}
	}
}

// TestPageFileReadRetriesReusedSlot: a reader that looked a page up,
// then lost the race with two batches — the first moved the page to a
// new slot, the second reused its old one for another page — finds the
// other page there, looks the page up again, and returns its current
// image, counting one retry.
func TestPageFileReadRetriesReusedSlot(t *testing.T) {
	pf := openPF(t, filepath.Join(t.TempDir(), "pagefile.db"))
	if err := pf.Put(1, pfTestImage(1, 0x01)); err != nil {
		t.Fatal(err)
	}
	stale, _, _ := pf.lookup(1)
	current := pfTestImage(1, 0x02)
	if err := pf.Put(1, current); err != nil {
		t.Fatal(err)
	}
	if err := pf.Put(2, pfTestImage(2, 0x22)); err != nil {
		t.Fatal(err)
	}
	if other, _, _ := pf.lookup(2); other.slot != stale.slot {
		t.Fatalf("page 2 went to slot %d, not the freed slot %d", other.slot, stale.slot)
	}
	retries := pf.ReadRetries()
	buf := make([]byte, pfSlotSize)
	if err := pf.readSlot(1, stale, buf); err != nil {
		t.Fatalf("read through the stale entry: %v", err)
	}
	if !bytes.Equal(buf[pfSlotHdr:], current) {
		t.Fatal("read through the stale entry did not return the current image")
	}
	if got := pf.ReadRetries() - retries; got != 1 {
		t.Fatalf("%d retries, want 1", got)
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
// pagefile's directory growing by 2 000 entries, the per-page lists —
// where copying every image into a batch first would take 16 MB; a
// second sweep of the same pages, into new slots, reuses the scratch and
// the lists and allocates under 64 KiB. Each costs exactly two fsyncs.
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

// TestHoldBatchesHoldsOffWriters: while HoldBatches runs its function no
// batch writes, so the slots and images it reads stay one committed
// state of the file — a snapshot's copy; the batch that waited behind it
// lands once it returns.
func TestHoldBatchesHoldsOffWriters(t *testing.T) {
	pf := NewMemArchive()
	defer pf.Close()
	if err := pf.Put(1, pfTestImage(1, 'a')); err != nil {
		t.Fatal(err)
	}
	before := pf.Slots()
	done := make(chan error, 1)
	err := pf.HoldBatches(func() error {
		go func() { done <- pf.Put(1, pfTestImage(1, 'b')) }()
		select {
		case err := <-done:
			return fmt.Errorf("a batch finished (%v) while batches were held off", err)
		case <-time.After(50 * time.Millisecond):
		}
		if got, err := pf.Get(1); err != nil || !bytes.Equal(got, pfTestImage(1, 'a')) {
			return fmt.Errorf("page 1 changed under the hold (%v)", err)
		}
		if got := pf.Slots(); !slices.Equal(got, before) {
			return fmt.Errorf("slots moved under the hold: %v → %v", before, got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got, err := pf.Get(1); err != nil || !bytes.Equal(got, pfTestImage(1, 'b')) {
		t.Fatalf("the held batch did not land after the hold (%v)", err)
	}
}
