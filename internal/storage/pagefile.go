package storage

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"aether/internal/vfs"
)

// PageFile is the real database file: a single, page-slotted, checksummed
// file. Pages live in fixed slots addressed by file offset; each slot
// carries a header (pageID, version, checksum) verified on every read.
// Every write-back — the
// checkpoint sweep's whole dirty set, a cleaner pass, a single steal —
// is one WriteBatch, which costs O(1) device fsyncs regardless of batch
// size and holds O(1) page images however many pages it moves — the
// double-write journal protocol, streamed:
//
//  1. each page's image is copied once, out of its frame, into a bounded
//     reused scratch (pfScratchEntries entries) that goes to a side
//     journal chunk by chunk in slot order, the batch CRC kept running;
//     the 32-byte journal header (entry count, batch CRC) is written
//     last and the journal is fsynced once — the batch's atomic commit
//     point;
//  2. the committed journal is read back chunk by chunk, every entry
//     re-verified, its 32-byte entry header rewritten in place as the
//     32-byte slot header — so consecutive entries of consecutive slots
//     already are one contiguous run — the runs are written in place and
//     the pagefile is fsynced once. This step is also, to the letter,
//     what Open's journal replay does: applyJournal serves both.
//
// A crash between (1) and (2) tears nothing: Open finds a journal with a
// valid batch checksum and replays it (idempotent — it holds the newest
// image of every slot it mentions). A crash during (1) leaves a journal
// that fails its checksum — header missing, stale, or over a body that
// mixes two batches — which Open discards: the in-place writes never
// started, so the pagefile still holds the previous, fully-applied batch.
// The one journal that can verify after such a crash besides the new
// batch's own (every byte of which must then have persisted) is the
// previous batch's, resurfacing whole because its unsynced truncation
// was lost; replaying it rewrites what the pagefile already holds.
//
// On-disk layout (little-endian):
//
//	file header (4096 B): magic "AEPF", format version, page size
//	slot i at 4096 + i*(32+PageSize):
//	  0  pageID   uint64
//	  8  version  uint64  (monotonic write sequence, debugging aid)
//	 16  checksum uint32  (CRC-32C over pageID ‖ version ‖ image)
//	 20  flags    uint32  (1 = in use)
//	 24  reserved 8 B
//	 32  page image (PageSize B)
//
// Journal file (path + ".journal"):
//
//	header (32 B): magic "AEPJ", version, entry count, page size,
//	               CRC-32C over the entry region
//	entry: slot uint64, pageID uint64, version uint64, checksum uint32,
//	       pad 4 B, then the page image
//
// # Concurrency
//
// Reads never wait on batch I/O. The single pagefile mutex of earlier
// versions — under which a page fault could stall behind a checkpoint
// sweep or cleaner pass holding it across two fsyncs — is decomposed:
//
//   - dir (RWMutex) protects only the in-memory slot directory
//     (slots/assigned/nextSlot/seq): microsecond map work, never I/O.
//   - wmu serializes batch writers (WriteBatch, journal replay): the
//     double-write journal holds exactly one committed batch, so two
//     batches can never interleave their journal phases. Concurrent
//     callers (sweep, cleaner, steals) queue here — but readers never
//     touch wmu. A batch calls its caller's fill under wmu, and the
//     store's fill takes a page latch: see Page.wb for the lock order
//     that makes that safe.
//   - latches is a sharded array of per-slot RWMutexes (slot index mod
//     pfLatchShards). A batch writer holds the shards covering a
//     coalesced run only for the pwrite itself — NOT across fsyncs.
//
// Get is lock-free against writers: directory lookup under dir.RLock,
// then an optimistic pread validated by the slot header (pageID match,
// version ≥ directory version, CRC-32C over identity+image). A reader
// racing an in-place write of the same slot sees a torn image, fails
// validation and retries (ReadRetries counts these); after a few
// optimistic attempts it takes the slot's latch shard — excluding only
// that pwrite, never a fsync — and reads once more. Any image that
// passes validation is safe to serve: in-place bytes change only after
// the batch's journal fsync returned, so even a mid-batch image is a
// committed one.
type PageFile struct {
	fs   vfs.FS
	path string
	f    vfs.File
	jf   vfs.File

	// dir guards the in-memory slot directory below — map work only,
	// never held across I/O.
	dir   sync.RWMutex
	slots map[uint64]pfSlot // pageID → slot (installed pages only)
	// assigned reserves the slots of new pages from the moment a batch
	// stages them until it installs them. A batch that fails before its
	// journal commits gives them back (releaseSlots: nothing was written
	// in place); one that fails after keeps them — the page may already
	// be flagged used at that slot on disk, so whoever writes it next
	// must come back to it, or the page would end up in two slots and
	// the file would never reopen.
	assigned map[uint64]uint64 // pageID → reserved slot
	nextSlot uint64
	seq      uint64 // version sequence (max seen at open)

	// wmu serializes batch writers; see the concurrency note above. The
	// scratch, the two lists, the failpoints and applyFailed below are
	// writer state, touched only under it (or by Open, before the file
	// is shared).
	wmu sync.Mutex
	// scratch stages pfScratchEntries journal entries at a time, on the
	// way out (frame → journal) and on the way back (journal → slots).
	// Allocated by the first batch, reused by every later one.
	scratch []byte
	// visits is the current batch's pages in the order it stages them;
	// applied lists what applyJournal last wrote in place. Both are
	// reused between batches up to pfKeepEntries.
	visits  []pfVisit
	applied []jnlEntry
	// latches shards the per-slot write-exclusion latches readers fall
	// back to when optimistic validation keeps failing.
	latches [pfLatchShards]sync.RWMutex

	journalReplayed int // pages restored from the journal at Open

	closed atomic.Bool
	// crashAfterJournal simulates a process kill between the journal
	// fsync and the in-place writes (crash tests).
	crashAfterJournal bool
	// applyFailed is set when a batch failed after its journal committed:
	// the journal on disk is that batch's only intact copy (its in-place
	// writes may be partial and unsynced), so the next batch must
	// re-apply it before overwriting the journal with its own.
	applyFailed bool
	// failApply, if non-nil, makes a batch return this error after the
	// journal phase without applying — a transient in-place I/O failure
	// the caller will retry (tests the stable-slot-reservation rule).
	failApply error

	syncDelay atomic.Int64 // simulated device sync latency, ns (benchmarks)
	readDelay atomic.Int64 // simulated per-pread device latency, ns (benchmarks)

	fsyncs      atomic.Int64
	batchPuts   atomic.Int64
	slotWrites  atomic.Int64 // coalesced in-place writes issued
	readRetries atomic.Int64 // optimistic reads that failed validation and retried
}

// pfSlot is the in-memory directory entry for one page.
type pfSlot struct {
	slot    uint64
	version uint64
}

// pfVisit is one page of a batch being staged: its slot (pfNoSlot until
// the page is accepted and given one) and its index in the caller's
// list.
type pfVisit struct {
	slot uint64
	idx  int
}

const (
	pfMagic      = 0x41455046 // "AEPF"
	pfVersion    = 1
	pfHeaderSize = 4096
	pfSlotHdr    = 32
	pfSlotSize   = pfSlotHdr + PageSize

	pfJournalMagic = 0x4145504A // "AEPJ"
	pfJnlHdrSize   = 32
	pfJnlEntryHdr  = 32
	pfJnlEntrySize = pfJnlEntryHdr + PageSize

	pfFlagUsed = 1

	// pfScratchEntries sizes the batch writer's staging buffer: 32
	// entries (≈ 263 KB) make every journal write, read-back and
	// coalesced run large enough to amortise its syscall, and are all a
	// batch of any size ever holds of its images.
	pfScratchEntries = 32

	// pfKeepEntries caps the per-page bookkeeping kept between batches
	// (40 B a page): 8192 pages ≈ 320 KB covers a sweep of a 64 MB dirty
	// set without reallocating; a larger batch's lists are dropped.
	pfKeepEntries = 8192

	// pfNoSlot marks a batch page that has no slot yet; it sorts after
	// every real slot, so new pages are staged last, in caller order.
	pfNoSlot = ^uint64(0)

	// pfLatchShards sizes the per-slot latch array (slot index mod
	// pfLatchShards). 64 shards keep false sharing between unrelated
	// slots rare while bounding the array a batch writer may have to
	// sweep for a very long coalesced run — and let a run's shards be one
	// uint64 bit set.
	pfLatchShards = 64

	// pfOptimisticReads is how many unlatched validated reads Get
	// attempts before falling back to the slot latch. A torn read means
	// a writer is mid-pwrite on this very slot — a microsecond-scale
	// window — so a couple of yields almost always clear it.
	pfOptimisticReads = 3
)

// ErrSimulatedCrash is returned by a batch when the crash-after-journal
// failpoint is armed: the journal is durable but no in-place write ran.
var ErrSimulatedCrash = errors.New("storage: simulated crash after journal write")

var pfCRC = crc32.MakeTable(crc32.Castagnoli)

// pfMaxSlot is the largest slot index whose byte range still fits in an
// int64 file offset. Any larger index read from disk (a journal entry,
// a slot header) is a corrupt or hostile value, not a real slot: honoring
// it would overflow the offset arithmetic or balloon the file.
const pfMaxSlot = (1<<63 - 1 - pfHeaderSize - pfSlotSize) / pfSlotSize

// pfSlotValid bounds slot indices taken from on-disk structures before
// they reach pfSlotOff.
func pfSlotValid(slot uint64) bool { return slot <= pfMaxSlot }

// slotChecksum covers a slot's identity — ident, the 16 bytes pageID ‖
// version as they stand in a slot header (0:16) or a journal entry
// header (8:24) — and its image, so a misdirected or torn write is
// caught no matter which part it corrupted. It reads the identity where
// it lies: no staging copy, nothing allocated.
func slotChecksum(ident, img []byte) uint32 {
	return crc32.Update(crc32.Update(0, pfCRC, ident[:16]), pfCRC, img)
}

// pfSlotOff converts a slot index to its file offset. Callers must
// validate untrusted indices with pfSlotValid first; the panic is the
// backstop for in-memory state, which is always in range.
func pfSlotOff(slot uint64) int64 {
	if !pfSlotValid(slot) {
		panic(fmt.Sprintf("storage: pagefile slot %d out of range", slot))
	}
	return pfHeaderSize + int64(slot)*pfSlotSize
}

// OpenPageFile opens (creating if needed) a paged database file, replaying
// or discarding its double-write journal first, then building the pageID
// directory from the slot headers.
func OpenPageFile(path string) (*PageFile, error) {
	return OpenPageFileFS(vfs.OS{}, path)
}

// OpenPageFileFS is OpenPageFile over an arbitrary filesystem — the
// fault-injection entry point.
func OpenPageFileFS(fs vfs.FS, path string) (*PageFile, error) {
	f, err := fs.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open pagefile: %w", err)
	}
	pf := &PageFile{
		fs:       fs,
		path:     path,
		f:        f,
		slots:    make(map[uint64]pfSlot),
		assigned: make(map[uint64]uint64),
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: open pagefile: %w", err)
	}
	if st.Size() <= pfHeaderSize {
		// Empty, or a torn initial header write: no slot can exist until
		// the header's fsync has returned (PutBatch only runs after a
		// successful Open), so (re)writing the header is always safe and
		// un-bricks a database whose first-ever Open lost power mid-way.
		if err := pf.writeHeader(); err != nil {
			f.Close()
			return nil, err
		}
	} else if err := pf.readHeader(); err != nil {
		f.Close()
		return nil, err
	}
	jf, err := fs.OpenFile(path+".journal", os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: open pagefile journal: %w", err)
	}
	pf.jf = jf
	// Both files themselves must survive a crash, not just their bytes:
	// the double-write guarantee is void if the journal's directory
	// entry can vanish after its data was fsynced.
	if err := fs.SyncDir(filepath.Dir(path)); err != nil {
		pf.closeFiles()
		return nil, fmt.Errorf("storage: sync pagefile dir: %w", err)
	}
	// The slot directory is built afterwards, by scanSlots, which sees
	// the replayed slots.
	if pf.journalReplayed, err = pf.replayJournal(); err != nil {
		pf.closeFiles()
		return nil, err
	}
	if err := pf.scanSlots(); err != nil {
		pf.closeFiles()
		return nil, err
	}
	return pf, nil
}

func (pf *PageFile) writeHeader() error {
	hdr := make([]byte, pfHeaderSize)
	binary.LittleEndian.PutUint32(hdr[0:4], pfMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], pfVersion)
	binary.LittleEndian.PutUint32(hdr[8:12], PageSize)
	if _, err := pf.f.WriteAt(hdr, 0); err != nil {
		return fmt.Errorf("storage: pagefile header: %w", err)
	}
	if err := pf.fsync(pf.f); err != nil {
		return fmt.Errorf("storage: pagefile header: %w", err)
	}
	return nil
}

func (pf *PageFile) readHeader() error {
	hdr := make([]byte, 12)
	if _, err := io.ReadFull(io.NewSectionReader(pf.f, 0, 12), hdr); err != nil {
		return fmt.Errorf("storage: pagefile header: %w", err)
	}
	if m := binary.LittleEndian.Uint32(hdr[0:4]); m != pfMagic {
		return fmt.Errorf("storage: %s is not a pagefile (magic %#x)", pf.path, m)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != pfVersion {
		return fmt.Errorf("storage: pagefile format version %d, want %d", v, pfVersion)
	}
	if ps := binary.LittleEndian.Uint32(hdr[8:12]); ps != PageSize {
		return fmt.Errorf("storage: pagefile page size %d, want %d", ps, PageSize)
	}
	return nil
}

// journalCommitted reports whether the journal in r (size bytes) holds a
// committed batch, and how many entries: the header must be a journal
// header of this format, the body must be there in full, and the batch
// CRC — streamed through scratch, never the whole body in memory — must
// verify. ok is false for a foreign, short or torn journal. It is the
// shared gate between the owner's replay (replayJournal) and the
// read-only inspector (ReadPageFileInfo), so the two can never disagree
// about what counts as a committed batch.
func journalCommitted(r io.ReaderAt, size int64, scratch []byte) (count int, ok bool, err error) {
	if size < pfJnlHdrSize {
		return 0, false, nil
	}
	hdr := scratch[:pfJnlHdrSize]
	if _, err := r.ReadAt(hdr, 0); err != nil {
		return 0, false, err
	}
	if binary.LittleEndian.Uint32(hdr[0:4]) != pfJournalMagic ||
		binary.LittleEndian.Uint32(hdr[4:8]) != pfVersion ||
		binary.LittleEndian.Uint32(hdr[12:16]) != PageSize {
		return 0, false, nil
	}
	count = int(binary.LittleEndian.Uint32(hdr[8:12]))
	want := binary.LittleEndian.Uint32(hdr[16:20])
	body := int64(count) * pfJnlEntrySize
	if count <= 0 || size-pfJnlHdrSize < body {
		return 0, false, nil
	}
	var crc uint32
	for off := int64(0); off < body; {
		chunk := scratch[:min(int64(len(scratch)), body-off)]
		if _, err := r.ReadAt(chunk, pfJnlHdrSize+off); err != nil {
			return 0, false, err
		}
		crc = crc32.Update(crc, pfCRC, chunk)
		off += int64(len(chunk))
	}
	return count, crc == want, nil
}

// jnlEntry is one journal entry's identity.
type jnlEntry struct {
	slot    uint64
	pid     uint64
	version uint64
}

// putJnlEntryHdr completes the journal entry e around the image already
// staged in it. It writes all 32 header bytes, checksum included: the
// scratch still holds whatever the previous chunk left there.
func putJnlEntryHdr(e []byte, ent jnlEntry) {
	binary.LittleEndian.PutUint64(e[0:8], ent.slot)
	binary.LittleEndian.PutUint64(e[8:16], ent.pid)
	binary.LittleEndian.PutUint64(e[16:24], ent.version)
	binary.LittleEndian.PutUint32(e[24:28], slotChecksum(e[8:24], e[pfJnlEntryHdr:]))
	binary.LittleEndian.PutUint32(e[28:32], 0)
}

// scratchBuf returns the staging buffer, allocating it on first use.
func (pf *PageFile) scratchBuf() []byte {
	if pf.scratch == nil {
		pf.scratch = make([]byte, pfScratchEntries*pfJnlEntrySize)
	}
	return pf.scratch
}

// replayJournal re-applies the on-disk journal if it holds a committed
// batch and clears it, returning how many entries it installed (their
// identities are in pf.applied). Replay is idempotent: the journal holds
// the newest image of every slot it mentions, so repeating it after a
// second crash is safe. A torn journal is discarded (its batch's fsync
// never returned, so no in-place write started).
func (pf *PageFile) replayJournal() (int, error) {
	st, err := pf.jf.Stat()
	if err != nil {
		return 0, fmt.Errorf("storage: pagefile journal: %w", err)
	}
	if st.Size() == 0 {
		return 0, nil
	}
	count, ok, err := journalCommitted(pf.jf, st.Size(), pf.scratchBuf())
	if err != nil {
		return 0, fmt.Errorf("storage: pagefile journal read: %w", err)
	}
	if !ok {
		return 0, pf.clearJournal()
	}
	if err := pf.applyJournal(count); err != nil {
		return 0, fmt.Errorf("storage: pagefile journal replay: %w", err)
	}
	return count, pf.clearJournal()
}

// applyJournal is phase 2 of a batch and the whole of a replay: it reads
// the committed journal's count entries back through the scratch, a
// chunk at a time, re-verifies each (slot bound, page checksum),
// rewrites its 32-byte entry header as the 32-byte slot header where it
// stands — the two are the same size, so consecutive entries naming
// consecutive slots already form one contiguous run — writes the runs in
// place and fsyncs the pagefile once. Each run's pwrite holds only the
// latch shards its slots cover: a reader faulting any other page
// proceeds untouched, and even a reader of these very slots waits for
// one pwrite at most, never the fsync. What it wrote is left in
// pf.applied for the caller's directory update.
func (pf *PageFile) applyJournal(count int) error {
	// Bound every journaled slot index before any write: a batch only
	// ever appends to the end of the file — journalBatch starts with
	// every reserved slot inside it, having given back the ones of a
	// batch that never committed — so a committed journal's slots all
	// lie below (slots currently in the file) + (entries in the batch).
	// Anything larger — or past the int64 offset range — is a corrupt
	// journal, and honoring it would balloon the pagefile or overflow
	// the offset arithmetic. Fail loudly instead.
	fst, err := pf.f.Stat()
	if err != nil {
		return err
	}
	maxSlot := uint64(count)
	if fst.Size() > pfHeaderSize {
		maxSlot += uint64((fst.Size() - pfHeaderSize) / pfSlotSize)
	}
	scratch := pf.scratchBuf()
	pf.applied = pf.applied[:0]
	if cap(pf.applied) < count {
		pf.applied = make([]jnlEntry, 0, count)
	}
	for done := 0; done < count; {
		n := min(count-done, pfScratchEntries)
		chunk := scratch[:n*pfJnlEntrySize]
		if _, err := pf.jf.ReadAt(chunk, pfJnlHdrSize+int64(done)*pfJnlEntrySize); err != nil {
			return fmt.Errorf("journal read-back: %w", err)
		}
		for i := 0; i < n; i++ {
			e := chunk[i*pfJnlEntrySize : (i+1)*pfJnlEntrySize]
			ent := jnlEntry{
				slot:    binary.LittleEndian.Uint64(e[0:8]),
				pid:     binary.LittleEndian.Uint64(e[8:16]),
				version: binary.LittleEndian.Uint64(e[16:24]),
			}
			if !pfSlotValid(ent.slot) || ent.slot >= maxSlot {
				return fmt.Errorf("journal entry %d names absurd slot %d (file holds %d slots, batch %d entries): corrupt journal",
					done+i, ent.slot, maxSlot-uint64(count), count)
			}
			sum := binary.LittleEndian.Uint32(e[24:28])
			if sum != slotChecksum(e[8:24], e[pfJnlEntryHdr:]) {
				return fmt.Errorf("journal entry %d (page %d) fails its checksum", done+i, ent.pid)
			}
			putSlotHdr(e, ent.pid, ent.version, sum)
			pf.applied = append(pf.applied, ent)
		}
		ents := pf.applied[done:]
		for i := 0; i < n; {
			j := i + 1
			for j < n && ents[j].slot == ents[j-1].slot+1 {
				j++
			}
			shards := pf.lockRun(ents[i].slot, ents[j-1].slot)
			_, err := pf.f.WriteAt(chunk[i*pfSlotSize:j*pfSlotSize], pfSlotOff(ents[i].slot))
			pf.unlockRun(shards)
			if err != nil {
				return fmt.Errorf("in-place write: %w", err)
			}
			pf.slotWrites.Add(1)
			i = j
		}
		done += n
	}
	if err := pf.fsync(pf.f); err != nil {
		return fmt.Errorf("sync: %w", err)
	}
	return nil
}

// installApplied publishes what applyJournal wrote to the slot
// directory — only now, after the in-place bytes are durable: the
// directory's version is the floor readers validate against, and it must
// never run ahead of the file.
func (pf *PageFile) installApplied() {
	pf.dir.Lock()
	for _, e := range pf.applied {
		pf.slots[e.pid] = pfSlot{slot: e.slot, version: e.version}
		delete(pf.assigned, e.pid)
	}
	pf.dir.Unlock()
}

// clearJournal empties the journal after it has been applied (or proven
// torn) and makes the truncation durable.
func (pf *PageFile) clearJournal() error {
	if err := pf.jf.Truncate(0); err != nil {
		return fmt.Errorf("storage: pagefile journal clear: %w", err)
	}
	if err := pf.fsync(pf.jf); err != nil {
		return fmt.Errorf("storage: pagefile journal clear: %w", err)
	}
	return nil
}

// runShards returns the latch shards covering the contiguous slot run
// [lo, hi] as a bit set (bit i = shard i). A run spanning every shard
// collapses to the full set.
func runShards(lo, hi uint64) (set uint64) {
	if hi-lo+1 >= pfLatchShards {
		return ^uint64(0)
	}
	for s := lo; s <= hi; s++ {
		set |= 1 << (s % pfLatchShards)
	}
	return set
}

// lockRun write-locks the latch shards covering slots [lo, hi], in
// ascending shard order — the fixed acquisition order that keeps
// concurrent run writers deadlock-free — and returns them for unlockRun.
// Held only across a single pwrite — never across an fsync — so a
// concurrent reader's fallback latch wait is bounded by one in-flight
// write, not a batch's durability stall.
func (pf *PageFile) lockRun(lo, hi uint64) uint64 {
	shards := runShards(lo, hi)
	for i := range pf.latches {
		if shards&(1<<i) != 0 {
			pf.latches[i].Lock()
		}
	}
	return shards
}

// unlockRun releases the shards lockRun acquired.
func (pf *PageFile) unlockRun(shards uint64) {
	for i := range pf.latches {
		if shards&(1<<i) != 0 {
			pf.latches[i].Unlock()
		}
	}
}

// putSlotHdr writes all 32 bytes of a slot header, reserved bytes
// included: it overwrites a journal entry's header where it stands.
func putSlotHdr(dst []byte, pid, version uint64, sum uint32) {
	binary.LittleEndian.PutUint64(dst[0:8], pid)
	binary.LittleEndian.PutUint64(dst[8:16], version)
	binary.LittleEndian.PutUint32(dst[16:20], sum)
	binary.LittleEndian.PutUint32(dst[20:24], pfFlagUsed)
	binary.LittleEndian.PutUint64(dst[24:32], 0)
}

// scanSlotHeaders walks every allocated slot in f (whose size is size)
// and invokes fn for each slot flagged used — the single reader of the
// on-disk slot-header layout, shared by the owner's directory build and
// the read-only inspector.
func scanSlotHeaders(f io.ReaderAt, size int64, fn func(slot, pid, version uint64) error) (nSlots uint64, err error) {
	n := (size - pfHeaderSize) / pfSlotSize
	if n < 0 {
		n = 0
	}
	if n > pfMaxSlot+1 {
		// A size this large cannot be a real pagefile (the offset of the
		// slot past pfMaxSlot would overflow int64); clamp rather than
		// let the loop feed pfSlotOff out-of-range indices.
		n = pfMaxSlot + 1
	}
	hdr := make([]byte, pfSlotHdr)
	for slot := int64(0); slot < n; slot++ {
		if _, err := io.ReadFull(io.NewSectionReader(f, pfSlotOff(uint64(slot)), pfSlotHdr), hdr); err != nil {
			return 0, fmt.Errorf("storage: pagefile scan slot %d: %w", slot, err)
		}
		if binary.LittleEndian.Uint32(hdr[20:24])&pfFlagUsed == 0 {
			continue
		}
		if err := fn(uint64(slot),
			binary.LittleEndian.Uint64(hdr[0:8]),
			binary.LittleEndian.Uint64(hdr[8:16])); err != nil {
			return 0, err
		}
	}
	return uint64(n), nil
}

// scanSlots builds the pageID directory from the slot headers. Image
// checksums are verified lazily on Get, as the read path always does.
func (pf *PageFile) scanSlots() error {
	st, err := pf.f.Stat()
	if err != nil {
		return fmt.Errorf("storage: pagefile scan: %w", err)
	}
	nSlots, err := scanSlotHeaders(pf.f, st.Size(), func(slot, pid, version uint64) error {
		if prev, dup := pf.slots[pid]; dup {
			return fmt.Errorf("storage: pagefile corrupt: page %d in slots %d and %d", pid, prev.slot, slot)
		}
		pf.slots[pid] = pfSlot{slot: slot, version: version}
		if version > pf.seq {
			pf.seq = version
		}
		return nil
	})
	if err != nil {
		return err
	}
	pf.nextSlot = nSlots
	return nil
}

// fsync syncs one file and counts it, modeling the configured device
// latency (the same simulated-device methodology the log devices use).
func (pf *PageFile) fsync(f vfs.File) error {
	if err := f.Sync(); err != nil {
		return err
	}
	pf.fsyncs.Add(1)
	if d := time.Duration(pf.syncDelay.Load()); d > 0 {
		time.Sleep(d)
	}
	return nil
}

// SetReadDelay adds a simulated per-read device latency (benchmarks
// use it to model a real disk's page-read cost, the same methodology as
// SetSyncDelay): every Get attempt sleeps d after its pread, with no
// latch held. On tmpfs-backed test runs a pread is sub-microsecond,
// which would make read-pipelining benchmarks measure scheduler noise;
// a few hundred microseconds of modeled latency makes the overlap win
// deterministic.
func (pf *PageFile) SetReadDelay(d time.Duration) {
	pf.readDelay.Store(int64(d))
}

// SetSyncDelay adds a simulated per-fsync device latency (benchmarks
// model flash/disk sync cost deterministically; 0 disables).
func (pf *PageFile) SetSyncDelay(d time.Duration) {
	pf.syncDelay.Store(int64(d))
}

// Fsyncs returns how many device fsyncs the pagefile has issued — the
// counter the O(1)-fsyncs-per-sweep property is asserted against.
func (pf *PageFile) Fsyncs() int64 { return pf.fsyncs.Load() }

// JournalReplayed returns how many page images the last Open restored
// from the double-write journal (0 for a clean shutdown).
func (pf *PageFile) JournalReplayed() int { return pf.journalReplayed }

// ReadRetries returns how many optimistic reads failed validation
// against a concurrent in-place write and retried — the observable cost
// of the lock-free read path (normally ~0; it rises only when readers
// race writers on the same slot).
func (pf *PageFile) ReadRetries() int64 { return pf.readRetries.Load() }

// Path returns the pagefile's path.
func (pf *PageFile) Path() string { return pf.path }

// SizeBytes returns the pagefile's current size.
func (pf *PageFile) SizeBytes() int64 {
	st, err := pf.f.Stat()
	if err != nil {
		return 0
	}
	return st.Size()
}

// SlotInfo describes one occupied pagefile slot (logdump, tests).
type SlotInfo struct {
	// Slot is the slot's position in the file (offset = header + slot*slotSize).
	Slot uint64
	// PageID is the page stored in the slot.
	PageID uint64
	// Version is the slot's write version, bumped on every rewrite.
	Version uint64
}

// Slots lists occupied slots in file order.
func (pf *PageFile) Slots() []SlotInfo {
	pf.dir.RLock()
	defer pf.dir.RUnlock()
	out := make([]SlotInfo, 0, len(pf.slots))
	for pid, s := range pf.slots {
		out = append(out, SlotInfo{Slot: s.slot, PageID: pid, Version: s.version})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Slot < out[j].Slot })
	return out
}

// WriteBatch implements Archive: the one write-back routine every
// path (sweep, cleaner, steal, PutBatch) goes through. The batch becomes
// durable with exactly two device fsyncs (journal, then pagefile) no
// matter how many pages it holds, and holds at most pfScratchEntries
// images at a time; a failed batch installs nothing the caller may rely
// on. Pages are visited in slot order, new pages last; fill is called
// under wmu, once per page, and a page it declines costs nothing.
// Concurrent batches serialize on wmu — the double-write journal holds
// one batch at a time — but readers proceed throughout: slot latches are
// taken per coalesced pwrite only, never across the fsyncs.
func (pf *PageFile) WriteBatch(pids []uint64, fill func(i int, dst []byte) bool) error {
	if len(pids) == 0 {
		return nil
	}
	pf.wmu.Lock()
	defer pf.wmu.Unlock()
	if pf.closed.Load() {
		return errors.New("storage: pagefile closed")
	}
	defer pf.trimLists()
	if pf.applyFailed {
		// A previous batch committed its journal but failed phase 2: the
		// journal is the only intact copy of its pages (their in-place
		// writes may be partial and unsynced). Re-apply it before this
		// batch's journal overwrites it — otherwise a page of that batch
		// absent from this one could persist torn with no journal left
		// to repair it.
		if _, err := pf.replayJournal(); err != nil {
			return fmt.Errorf("storage: pagefile re-apply pending journal: %w", err)
		}
		pf.installApplied()
		pf.applyFailed = false
	}

	// Phase 1: journal the batch, one fsync. This is the commit point.
	count, err := pf.journalBatch(pids, fill)
	if err != nil || count == 0 {
		return err
	}
	if pf.crashAfterJournal {
		// The batch is committed in the journal but never applied — the
		// window the double-write protocol exists for. Drop the handles
		// as a killed process would.
		pf.closed.Store(true)
		pf.closeFiles()
		return ErrSimulatedCrash
	}
	if pf.failApply != nil {
		err := pf.failApply
		pf.failApply = nil
		pf.applyFailed = true
		return err
	}

	// Phase 2: the journal, read back, goes in place; one pagefile fsync.
	if err := pf.applyJournal(count); err != nil {
		pf.applyFailed = true
		return fmt.Errorf("storage: pagefile apply: %w", err)
	}
	// The journal is now dead weight; empty it without an fsync — if the
	// truncation is lost in a crash, Open just replays the batch it
	// already applied, which is idempotent.
	if err := pf.jf.Truncate(0); err != nil {
		return fmt.Errorf("storage: pagefile journal clear: %w", err)
	}
	pf.installApplied()
	pf.batchPuts.Add(1)
	return nil
}

// journalBatch is phase 1: it stages the pages fill accepts through the
// scratch into the journal, in slot order, and commits them — body
// first, chunk by chunk with the batch CRC kept running, then the
// header carrying the count and that CRC, then one fsync. Until the
// header is down the journal cannot verify as this batch, and the header
// cannot verify over anything but this batch's whole body. It returns
// how many pages were journaled; for 0 the journal is untouched. If it
// fails, the slots it reserved for new pages are free again.
func (pf *PageFile) journalBatch(pids []uint64, fill func(i int, dst []byte) bool) (count int, err error) {
	visits := pf.visits[:0]
	if cap(visits) < len(pids) {
		visits = make([]pfVisit, 0, len(pids))
	}
	pf.dir.Lock()
	end := pf.nextSlot
	for i, pid := range pids {
		slot := uint64(pfNoSlot)
		if s, ok := pf.slots[pid]; ok {
			slot = s.slot
		} else if res, ok := pf.assigned[pid]; ok {
			slot = res // a batch that failed after committing holds it: reuse, never reassign
		}
		visits = append(visits, pfVisit{slot: slot, idx: i})
	}
	// Versions go by the caller's order, whatever order the pages are
	// staged in; one a declined page leaves unused is never missed.
	version0 := pf.seq + 1
	pf.seq += uint64(len(pids))
	pf.dir.Unlock()
	pf.visits = visits
	defer func() {
		if err != nil {
			pf.releaseSlots(end)
		}
	}()
	// Slot order makes the journal replay in file-offset order and lets
	// phase 2 coalesce adjacent slots into single writes.
	slices.SortFunc(visits, func(a, b pfVisit) int {
		if c := cmp.Compare(a.slot, b.slot); c != 0 {
			return c
		}
		return cmp.Compare(a.idx, b.idx)
	})

	scratch := pf.scratchBuf()
	staged := 0
	var crc uint32
	flush := func() error {
		chunk := scratch[:staged*pfJnlEntrySize]
		off := pfJnlHdrSize + int64(count-staged)*pfJnlEntrySize
		if _, err := pf.jf.WriteAt(chunk, off); err != nil {
			return fmt.Errorf("storage: pagefile journal write: %w", err)
		}
		crc = crc32.Update(crc, pfCRC, chunk)
		staged = 0
		return nil
	}
	for _, v := range visits {
		e := scratch[staged*pfJnlEntrySize : (staged+1)*pfJnlEntrySize]
		if !fill(v.idx, e[pfJnlEntryHdr:]) {
			continue
		}
		ent := jnlEntry{slot: v.slot, pid: pids[v.idx], version: version0 + uint64(v.idx)}
		if ent.slot == pfNoSlot {
			ent.slot = pf.newSlot(ent.pid)
		}
		putJnlEntryHdr(e, ent)
		count++
		if staged++; staged == pfScratchEntries {
			if err := flush(); err != nil {
				return 0, err
			}
		}
	}
	if count == 0 {
		return 0, nil
	}
	if staged > 0 {
		if err := flush(); err != nil {
			return 0, err
		}
	}
	hdr := scratch[:pfJnlHdrSize]
	binary.LittleEndian.PutUint32(hdr[0:4], pfJournalMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], pfVersion)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(count))
	binary.LittleEndian.PutUint32(hdr[12:16], PageSize)
	binary.LittleEndian.PutUint32(hdr[16:20], crc)
	clear(hdr[20:])
	if _, err := pf.jf.WriteAt(hdr, 0); err != nil {
		return 0, fmt.Errorf("storage: pagefile journal write: %w", err)
	}
	if err := pf.fsync(pf.jf); err != nil {
		return 0, fmt.Errorf("storage: pagefile journal sync: %w", err)
	}
	return count, nil
}

// newSlot gives an accepted page that has none its slot, its own for
// life, at the end of the file — directory map work only, no I/O.
func (pf *PageFile) newSlot(pid uint64) uint64 {
	pf.dir.Lock()
	defer pf.dir.Unlock()
	if slot, ok := pf.assigned[pid]; ok {
		return slot // the same page twice in one batch
	}
	slot := pf.nextSlot
	pf.nextSlot++
	// Reserve before any I/O: if this batch fails after its journal
	// commits, the page may already be flagged used at this slot on
	// disk, so a retry must come back to it.
	pf.assigned[pid] = slot
	return slot
}

// releaseSlots undoes the reservations a batch made at or past end, the
// file's slot count when it began, because its journal never committed.
// No in-place write can have run, so nothing on disk names those slots —
// and they must not stay reserved past the end of the file: a later,
// smaller batch holding one of them would journal a slot applyJournal's
// bound (rightly, for a journal read from disk) calls corrupt, live and
// at every Open after.
func (pf *PageFile) releaseSlots(end uint64) {
	pf.dir.Lock()
	for pid, slot := range pf.assigned {
		if slot >= end {
			delete(pf.assigned, pid)
		}
	}
	pf.nextSlot = end
	pf.dir.Unlock()
}

// trimLists drops the per-page lists of an unusually large batch rather
// than keep them for the life of the file.
func (pf *PageFile) trimLists() {
	if cap(pf.visits) > pfKeepEntries {
		pf.visits = nil
	}
	if cap(pf.applied) > pfKeepEntries {
		pf.applied = nil
	}
}

// PutBatch writes images the caller already holds as one batch: the
// adapter from []PageImage to WriteBatch, whose fill is a copy. The
// write-back paths do not use it (they hand WriteBatch the frames);
// tests and probes do.
func (pf *PageFile) PutBatch(batch []PageImage) error {
	pids := make([]uint64, len(batch))
	for i, e := range batch {
		if len(e.Img) != PageSize {
			return fmt.Errorf("storage: pagefile put: image is %d bytes, want %d", len(e.Img), PageSize)
		}
		pids[i] = e.PID
	}
	return pf.WriteBatch(pids, func(i int, dst []byte) bool {
		copy(dst, batch[i].Img)
		return true
	})
}

// Put writes one page as a batch of its own (tests, tools).
func (pf *PageFile) Put(pid uint64, img []byte) error {
	return pf.PutBatch([]PageImage{{PID: pid, Img: img}})
}

// Get returns page pid's image ((nil, nil) for a page never archived): it
// allocates a slot-sized buffer, reads and validates the page's slot
// into it (readSlot) and returns the image part.
func (pf *PageFile) Get(pid uint64) ([]byte, error) {
	s, ok, err := pf.lookup(pid)
	if !ok {
		return nil, err
	}
	buf := make([]byte, pfSlotSize)
	if err := pf.readSlot(pid, s, buf); err != nil {
		return nil, err
	}
	return buf[pfSlotHdr:], nil
}

// ReadPage implements Archive: the same read as Get, straight
// into the frame of the page the caller is about to install — a fault
// allocates that frame and nothing else. found is false, and p
// untouched, for a page never archived; after an error p's contents are
// undefined.
func (pf *PageFile) ReadPage(pid uint64, p *Page) (found bool, err error) {
	s, ok, err := pf.lookup(pid)
	if !ok {
		return false, err
	}
	return true, pf.readSlot(pid, s, p.frame[:])
}

// lookup finds pid's directory entry.
func (pf *PageFile) lookup(pid uint64) (pfSlot, bool, error) {
	if pf.closed.Load() {
		return pfSlot{}, false, errors.New("storage: pagefile closed")
	}
	pf.dir.RLock()
	s, ok := pf.slots[pid]
	pf.dir.RUnlock()
	return s, ok, nil
}

// readSlot is the one read path: it reads pid's slot (header + image)
// into buf and verifies it, on every read.
//
// The read is lock-free against batch writers: an optimistic pread
// validated by the slot header. Validation accepts an image whose
// pageID matches, whose version is at least the directory's floor for
// the slot, and whose CRC-32C (over identity + image) holds — any such
// image is a committed one, because in-place bytes only change after
// the owning batch's journal fsync returned. A reader racing the slot's
// own pwrite sees a torn image, fails the CRC and retries; after
// pfOptimisticReads attempts it read-latches the slot's shard (waiting
// out at most one in-flight pwrite, never a fsync) and reads once more.
// Failing validation even under the latch is real corruption.
func (pf *PageFile) readSlot(pid uint64, s pfSlot, buf []byte) error {
	for attempt := 0; ; attempt++ {
		latched := attempt >= pfOptimisticReads
		var l *sync.RWMutex
		if latched {
			l = &pf.latches[s.slot%pfLatchShards]
			l.RLock()
		}
		n, err := pf.f.ReadAt(buf, pfSlotOff(s.slot))
		if latched {
			l.RUnlock()
		}
		if n < len(buf) {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return fmt.Errorf("storage: pagefile read page %d: %w", pid, err)
		}
		if d := time.Duration(pf.readDelay.Load()); d > 0 {
			time.Sleep(d) // modeled device read time; no latch held
		}
		gotPID := binary.LittleEndian.Uint64(buf[0:8])
		version := binary.LittleEndian.Uint64(buf[8:16])
		sum := binary.LittleEndian.Uint32(buf[16:20])
		img := buf[pfSlotHdr:]
		intact := sum == slotChecksum(buf[0:16], img)
		if gotPID == pid && version >= s.version && intact {
			return nil
		}
		if latched {
			// The slot's writer was excluded and the image still fails
			// validation: a misdirected, torn or corrupt write reached
			// disk, not a benign race.
			if gotPID != pid && intact {
				return fmt.Errorf("storage: pagefile slot %d holds page %d, want %d (misdirected write)", s.slot, gotPID, pid)
			}
			return fmt.Errorf("storage: pagefile page %d fails its checksum (torn or corrupt slot %d)", pid, s.slot)
		}
		pf.readRetries.Add(1)
		runtime.Gosched()
		// Refresh the version floor, which may have advanced while we
		// raced (never the slot — a page's slot is stable for life, and
		// the directory never forgets a page).
		pf.dir.RLock()
		if cur, ok := pf.slots[pid]; ok {
			s = cur
		}
		pf.dir.RUnlock()
	}
}

// Contains implements Archive: a map lookup against the slot
// directory, no I/O — the buffer pool's cheap miss-path existence probe.
func (pf *PageFile) Contains(pid uint64) bool {
	pf.dir.RLock()
	_, ok := pf.slots[pid]
	pf.dir.RUnlock()
	return ok
}

// Pages implements Archive.
func (pf *PageFile) Pages() ([]uint64, error) {
	pf.dir.RLock()
	defer pf.dir.RUnlock()
	if pf.closed.Load() {
		return nil, errors.New("storage: pagefile closed")
	}
	out := make([]uint64, 0, len(pf.slots))
	for pid := range pf.slots {
		out = append(out, pid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// PageFileInfo is a read-only summary of a pagefile on disk (logdump).
type PageFileInfo struct {
	// Pages is the number of occupied slots.
	Pages int
	// SizeBytes is the pagefile's size.
	SizeBytes int64
	// Slots lists occupied slots in file order. With a pending journal,
	// slot contents may predate the journaled batch.
	Slots []SlotInfo
	// JournalPending is the page count of a committed-but-unapplied
	// double-write journal (replayed by the owner's next OpenPageFile);
	// 0 when the journal is empty or torn.
	JournalPending int
}

// ReadPageFileInfo inspects a pagefile without modifying anything — no
// journal replay, no truncation — so it is safe to run against a
// database another process has open. (OpenPageFile, by contrast, takes
// ownership: it replays or discards the journal.)
func ReadPageFileInfo(path string) (*PageFileInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("storage: read pagefile: %w", err)
	}
	defer f.Close()
	pf := &PageFile{path: path, f: f}
	if err := pf.readHeader(); err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("storage: read pagefile: %w", err)
	}
	info := &PageFileInfo{SizeBytes: st.Size()}
	if _, err := scanSlotHeaders(f, st.Size(), func(slot, pid, version uint64) error {
		info.Slots = append(info.Slots, SlotInfo{Slot: slot, PageID: pid, Version: version})
		return nil
	}); err != nil {
		return nil, err
	}
	info.Pages = len(info.Slots)
	if jf, err := os.Open(path + ".journal"); err == nil {
		defer jf.Close()
		if jst, err := jf.Stat(); err == nil {
			scratch := make([]byte, pfScratchEntries*pfJnlEntrySize)
			if count, ok, _ := journalCommitted(jf, jst.Size(), scratch); ok {
				info.JournalPending = count
			}
		}
	}
	return info, nil
}

func (pf *PageFile) closeFiles() {
	pf.f.Close()
	if pf.jf != nil {
		pf.jf.Close()
	}
}

// Close releases the file handles; safe to call more than once. All
// completed batches are already durable, so Close has nothing to flush.
// Close waits for an in-flight batch (wmu) but not for readers: a Get
// racing Close gets a read error, exactly as it would against a killed
// process.
func (pf *PageFile) Close() error {
	pf.wmu.Lock()
	defer pf.wmu.Unlock()
	if !pf.closed.CompareAndSwap(false, true) {
		return nil
	}
	err := pf.f.Close()
	if cerr := pf.jf.Close(); err == nil {
		err = cerr
	}
	return err
}

var _ Archive = (*PageFile)(nil)
