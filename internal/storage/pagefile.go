package storage

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"aether/internal/vfs"
)

// PageFile is the real database file: a single, page-slotted, checksummed
// file. Pages live in slots addressed by file offset; each slot carries a
// header (pageID, version, checksum) verified on every read. Every
// write-back — the checkpoint sweep's whole dirty set, a cleaner pass, a
// single steal — is one WriteBatch, which writes each page image once,
// costs two device fsyncs however many pages it holds, and holds at most
// pfScratchEntries images at a time.
//
// The file is copy-on-write: a batch never writes over a live slot.
//
//  1. Each page the batch accepts, in page-ID order, takes the lowest free
//     slot and the next version. Its image is copied once, out of its
//     frame, into a bounded reused scratch behind its slot header; adjacent
//     slots go out as one pwrite. Then the file is fsynced once.
//  2. Only then is the commit record written — V, the batch's highest
//     version — and the file fsynced again. That fsync is the batch's
//     commit point.
//  3. Only then are the new slots installed in the directory and the slots
//     they replace freed for later batches.
//
// V is the file's watermark, kept like a log segment header's watermark
// slots: two ping-pong sectors of the header block each hold a V with its
// own CRC, and a batch overwrites the one not holding the current V, so a
// torn commit write leaves the previous V standing. Open believes the
// valid sector with the higher V. A used slot with version ≤ V was
// written by a committed batch, and the newest committed version of each
// page wins; every other slot is free. A used slot with version > V was left by a batch that never
// committed: whatever of it reached the disk — torn or whole — is not a
// page. A read-write open clears those headers and fsyncs once before it
// returns (a later V would otherwise cover them); a clean open writes
// nothing.
//
// So a crash anywhere in a batch leaves every page it held at its old
// image or its new one, the same for the whole batch: until the commit
// sector persists, V names the previous batch and the new copies sit in
// slots that were free, beside the old copies nothing has touched; once it
// persists, every new copy is durable, because the data fsync returned
// before the commit record was written.
//
// A batch that fails leaves the PageFile failed, as a failed flush poisons
// a core.LogManager: every later WriteBatch returns that error, reads keep
// serving the committed images, and reopening is the repair. A retry is
// not safe. The failed batch's leftovers sit at versions the retry's V
// would cover, and only an open clears them; and after a failed fsync
// Linux may have dropped the dirty pages and cleared the error, so a later
// fsync can succeed over data that never reached the disk.
//
// On-disk layout (little-endian):
//
//	header block (4096 B):
//	     0  magic "AEPF", format version (2), page size
//	   512  commit sector 0: V uint64, CRC-32C over V
//	  1024  commit sector 1: the same
//	slot i at 4096 + i*(32+PageSize):
//	  0  pageID   uint64
//	  8  version  uint64  (the write sequence number the commit record orders)
//	 16  checksum uint32  (CRC-32C over pageID ‖ version ‖ image)
//	 20  flags    uint32  (1 = in use)
//	 24  reserved 8 B
//	 32  page image (PageSize B)
//
// A slot header lies inside one 512-byte sector (the slot size is 32 mod
// 512), so it persists whole or not at all.
//
// # Concurrency
//
// Reads take no lock but the directory's read lock, and never wait on
// batch I/O:
//
//   - dir (RWMutex) protects only the in-memory directory (slots): map
//     work, never I/O.
//   - wmu serializes batch writers; readers never touch it. A batch calls
//     its caller's fill under wmu, and the store's fill takes a page latch:
//     see Page.wb for the lock order that makes that safe.
//
// Get looks the page up under dir.RLock, then preads its slot and
// validates it: pageID match, version at least the directory's and at
// most V, CRC-32C over identity and image. A live slot is never written,
// so validation fails only when the slot was freed and reused after the
// lookup. The reader then looks the page up again and retries at its new
// slot (ReadRetries counts these); if the entry has not changed, the
// failure is corruption.
type PageFile struct {
	fs   vfs.FS
	path string
	f    vfs.File

	// dir guards the in-memory directory below — map work only, never
	// held across I/O.
	dir   sync.RWMutex
	slots map[uint64]pfSlot // pageID → its live slot

	// committed is V, the commit record's watermark. It advances before
	// the directory installs the slots it covers, so a reader that found
	// a slot in the directory also sees its version covered.
	committed atomic.Uint64

	// wmu serializes batch writers; see the concurrency note above. The
	// fields below it are writer state, touched only under it (or by
	// Open, before the file is shared).
	wmu    sync.Mutex
	free   slotSet // slots below nSlots that hold no live page
	nSlots uint64  // whole slots in the file
	seq    uint64  // the last version handed out
	sector int     // the commit sector holding V
	// failed is the error of the batch that failed the file; see the
	// type's doc.
	failed error
	// scratch stages pfScratchEntries slots at a time on their way out of
	// the frames. Allocated by the first batch, reused by every later one.
	scratch []byte
	// visits is the current batch's caller indices in page-ID order;
	// written lists the slots it wrote. Both are reused between batches
	// up to pfKeepEntries.
	visits  []int
	written []pfWrite
	cleared int // uncommitted slots the open cleared

	closed atomic.Bool

	syncDelay atomic.Int64 // simulated device sync latency, ns (benchmarks)
	readDelay atomic.Int64 // simulated per-pread device latency, ns (benchmarks)

	fsyncs      atomic.Int64
	readRetries atomic.Int64 // reads that found their slot reused and looked again
}

// pfSlot is the in-memory directory entry for one page.
type pfSlot struct {
	slot    uint64
	version uint64
}

// pfWrite is one page a batch wrote: its slot and version.
type pfWrite struct {
	pid uint64
	pfSlot
}

const (
	pfMagic      = 0x41455046 // "AEPF"
	pfVersion    = 2
	pfHeaderSize = 4096
	pfSectorSize = 512
	pfSlotHdr    = 32
	pfSlotSize   = pfSlotHdr + PageSize

	// pfCommitRec is the commit record's size: V and its CRC, padded.
	pfCommitRec = 16

	pfFlagUsed = 1

	// pfScratchEntries sizes the batch writer's staging buffer: 32 slots
	// (≈ 263 KB) make every coalesced write large enough to amortise its
	// syscall, and are all a batch of any size ever holds of its images.
	pfScratchEntries = 32

	// pfKeepEntries caps the per-page bookkeeping kept between batches
	// (32 B a page): 8192 pages ≈ 256 KB covers a sweep of a 64 MB dirty
	// set without reallocating; a larger batch's lists are dropped.
	pfKeepEntries = 8192
)

var pfCRC = crc32.MakeTable(crc32.Castagnoli)

// pfMaxSlot is the largest slot index whose byte range still fits in an
// int64 file offset. A file claiming more slots is clamped to it: a
// corrupt or hostile size must not overflow the offset arithmetic.
const pfMaxSlot = (1<<63 - 1 - pfHeaderSize - pfSlotSize) / pfSlotSize

// slotChecksum covers a slot's identity — ident, the 16 bytes pageID ‖
// version as they stand in the slot header — and its image, so a
// misdirected or torn write is caught no matter which part it corrupted.
func slotChecksum(ident, img []byte) uint32 {
	return crc32.Update(crc32.Update(0, pfCRC, ident[:16]), pfCRC, img)
}

// pfSlotOff converts a slot index to its file offset. Every index comes
// from in-memory state bounded by the file's size; the panic is the
// backstop.
func pfSlotOff(slot uint64) int64 {
	if slot > pfMaxSlot {
		panic(fmt.Sprintf("storage: pagefile slot %d out of range", slot))
	}
	return pfHeaderSize + int64(slot)*pfSlotSize
}

// pfCommitOff is the file offset of commit sector s (0 or 1): the two
// sectors after the one holding the magic.
func pfCommitOff(s int) int64 { return int64(1+s) * pfSectorSize }

// slotSet is a set of slot indices — the free slots — as a bitmap, so its
// lowest member is found a word at a time.
type slotSet struct {
	words []uint64
	low   int // no member lies in a word below this one
}

func (s *slotSet) add(slot uint64) {
	w := int(slot / 64)
	for len(s.words) <= w {
		s.words = append(s.words, 0)
	}
	s.words[w] |= 1 << (slot % 64)
	s.low = min(s.low, w)
}

func (s *slotSet) remove(slot uint64) { s.words[slot/64] &^= 1 << (slot % 64) }

// lowest returns the set's smallest member; false for an empty set.
func (s *slotSet) lowest() (uint64, bool) {
	for ; s.low < len(s.words); s.low++ {
		if w := s.words[s.low]; w != 0 {
			return uint64(s.low)*64 + uint64(bits.TrailingZeros64(w)), true
		}
	}
	return 0, false
}

// OpenPageFile opens (creating if needed) a paged database file, builds
// the pageID directory from the slot headers and clears what a batch that
// never committed left behind.
func OpenPageFile(path string) (*PageFile, error) {
	return OpenPageFileFS(vfs.OS{}, path)
}

// NewMemArchive returns an empty database file on an in-memory
// filesystem of its own: the archive of an in-memory engine, which writes
// and fsyncs exactly as a file-backed one does.
func NewMemArchive() *PageFile {
	pf, err := OpenPageFileFS(vfs.NewFaultFS(1), "/pagefile.db")
	if err != nil {
		panic("storage: in-memory database file: " + err.Error()) // a fresh FaultFS cannot refuse it
	}
	return pf
}

// OpenPageFileFS is OpenPageFile over an arbitrary filesystem — the
// fault-injection entry point.
func OpenPageFileFS(fs vfs.FS, path string) (*PageFile, error) {
	f, err := fs.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open pagefile: %w", err)
	}
	pf := &PageFile{fs: fs, path: path, f: f, slots: make(map[uint64]pfSlot)}
	if err := pf.open(); err != nil {
		f.Close()
		return nil, err
	}
	return pf, nil
}

func (pf *PageFile) open() error {
	st, err := pf.f.Stat()
	if err != nil {
		return fmt.Errorf("storage: open pagefile: %w", err)
	}
	size := st.Size()
	if size <= pfHeaderSize {
		// Empty, or a torn initial header write: no slot can exist until
		// the header's fsync and the directory's have returned (batches
		// only run after a successful Open), so (re)writing the header is
		// always safe and un-bricks a database whose first-ever Open lost
		// power mid-way. The file itself must survive a crash, not just
		// its bytes.
		if err := pf.writeHeader(); err != nil {
			return err
		}
		pf.sector = 1 // neither sector holds a V; the first batch takes sector 0
		if err := pf.fs.SyncDir(filepath.Dir(pf.path)); err != nil {
			return fmt.Errorf("storage: sync pagefile dir: %w", err)
		}
		return nil
	}
	version, err := readHeader(pf.f, pf.path)
	if err != nil {
		return err
	}
	if version == 1 {
		if err := pf.upgradeV1(size); err != nil {
			return err
		}
	}
	v, sector, err := readCommit(pf.f)
	if err != nil {
		return err
	}
	sc, err := scanSlots(pf.f, size, v)
	if err != nil {
		return err
	}
	pf.slots, pf.nSlots, pf.seq, pf.sector = sc.live, sc.nSlots, v, sector
	pf.committed.Store(v)
	for slot := uint64(0); slot < sc.nSlots; slot++ {
		pf.free.add(slot)
	}
	for _, s := range sc.live {
		pf.free.remove(s.slot)
	}
	if end := pfHeaderSize + int64(sc.nSlots)*pfSlotSize; len(sc.uncommitted) > 0 || size > end {
		return pf.clearUncommitted(sc.uncommitted, size, end)
	}
	return nil
}

// writeHeader writes a fresh header block — no commit record, so V is 0
// — and fsyncs it.
func (pf *PageFile) writeHeader() error {
	hdr := make([]byte, pfHeaderSize)
	putHeader(hdr)
	if _, err := pf.f.WriteAt(hdr, 0); err != nil {
		return fmt.Errorf("storage: pagefile header: %w", err)
	}
	if err := pf.fsync(); err != nil {
		return fmt.Errorf("storage: pagefile header: %w", err)
	}
	return nil
}

// putHeader fills the header's first sector: magic, format version, page
// size.
func putHeader(hdr []byte) {
	binary.LittleEndian.PutUint32(hdr[0:4], pfMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], pfVersion)
	binary.LittleEndian.PutUint32(hdr[8:12], PageSize)
}

// readHeader checks f's header and returns its format version: 2, or 1
// for a file written with the double-write journal of earlier versions.
func readHeader(f io.ReaderAt, path string) (uint32, error) {
	hdr := make([]byte, 12)
	if _, err := io.ReadFull(io.NewSectionReader(f, 0, 12), hdr); err != nil {
		return 0, fmt.Errorf("storage: pagefile header: %w", err)
	}
	if m := binary.LittleEndian.Uint32(hdr[0:4]); m != pfMagic {
		return 0, fmt.Errorf("storage: %s is not a pagefile (magic %#x)", path, m)
	}
	v := binary.LittleEndian.Uint32(hdr[4:8])
	if v != 1 && v != pfVersion {
		return 0, fmt.Errorf("storage: pagefile format version %d, want %d", v, pfVersion)
	}
	if ps := binary.LittleEndian.Uint32(hdr[8:12]); ps != PageSize {
		return 0, fmt.Errorf("storage: pagefile page size %d, want %d", ps, PageSize)
	}
	return v, nil
}

// putCommit encodes the commit record for v into rec.
func putCommit(rec []byte, v uint64) {
	binary.LittleEndian.PutUint64(rec[0:8], v)
	binary.LittleEndian.PutUint32(rec[8:12], crc32.Checksum(rec[0:8], pfCRC))
	binary.LittleEndian.PutUint32(rec[12:16], 0)
}

// readCommit returns V, the higher of the two commit sectors' values
// whose CRC holds, and the sector holding it. With neither valid V is 0
// (no batch ever committed) and the sector is 1, so the first commit
// goes to sector 0.
func readCommit(f io.ReaderAt) (v uint64, sector int, err error) {
	buf := make([]byte, 2*pfSectorSize)
	if _, err := f.ReadAt(buf, pfCommitOff(0)); err != nil {
		return 0, 0, fmt.Errorf("storage: pagefile commit record: %w", err)
	}
	sector = 1
	for s := 0; s < 2; s++ {
		rec := buf[s*pfSectorSize:]
		sv := binary.LittleEndian.Uint64(rec[0:8])
		if binary.LittleEndian.Uint32(rec[8:12]) == crc32.Checksum(rec[0:8], pfCRC) && sv >= v {
			v, sector = sv, s
		}
	}
	return v, sector, nil
}

// upgradeV1 turns a version-1 file — every used slot the one copy of its
// page, written in place behind a double-write journal — into version 2:
// V becomes the highest slot version, so every slot counts as committed.
// A version-1 journal holding a batch is refused: only the version that
// wrote it can apply it. The commit record goes down and is fsynced
// before the header names version 2, so a crash between the two leaves a
// version-1 file, upgraded again on the next open. Then the empty journal
// goes and the directory is synced.
func (pf *PageFile) upgradeV1(size int64) error {
	jpath := pf.path + ".journal"
	jst, err := pf.fs.Stat(jpath)
	hasJournal := err == nil
	switch {
	case hasJournal && jst.Size() > 0:
		return fmt.Errorf("storage: %s holds a batch of pagefile format 1 that was never applied; open the database with the version that wrote it first", jpath)
	case err != nil && !errors.Is(err, os.ErrNotExist):
		return fmt.Errorf("storage: pagefile upgrade: %w", err)
	}
	sc, err := scanSlots(pf.f, size, ^uint64(0))
	if err != nil {
		return err
	}
	var v uint64
	for _, s := range sc.live {
		v = max(v, s.version)
	}
	rec := make([]byte, pfCommitRec)
	putCommit(rec, v)
	if _, err := pf.f.WriteAt(rec, pfCommitOff(0)); err != nil {
		return fmt.Errorf("storage: pagefile upgrade: %w", err)
	}
	if err := pf.fsync(); err != nil {
		return fmt.Errorf("storage: pagefile upgrade: %w", err)
	}
	hdr := make([]byte, 12)
	putHeader(hdr)
	if _, err := pf.f.WriteAt(hdr, 0); err != nil {
		return fmt.Errorf("storage: pagefile upgrade: %w", err)
	}
	if err := pf.fsync(); err != nil {
		return fmt.Errorf("storage: pagefile upgrade: %w", err)
	}
	if hasJournal {
		if err := pf.fs.Remove(jpath); err != nil {
			return fmt.Errorf("storage: pagefile upgrade: %w", err)
		}
	}
	if err := pf.fs.SyncDir(filepath.Dir(pf.path)); err != nil {
		return fmt.Errorf("storage: pagefile upgrade: %w", err)
	}
	return nil
}

// pfScan is what the slot headers say, read against a commit watermark.
type pfScan struct {
	nSlots uint64            // whole slots in the file
	live   map[uint64]pfSlot // each page's newest committed copy
	// uncommitted lists the used slots above the watermark: what a batch
	// that never committed left behind.
	uncommitted []uint64
}

// scanSlots reads the header of every whole slot in f (whose size is
// size) and sorts the used ones by the watermark v: the newest version
// ≤ v of each page is live, a slot above v is uncommitted. It is the one
// reader of the slot-header layout, shared by the owner's open and the
// read-only inspector, so the two can never disagree about which copy is
// a page's. Image checksums are verified lazily, on every read.
func scanSlots(f io.ReaderAt, size int64, v uint64) (pfScan, error) {
	n := max((size-pfHeaderSize)/pfSlotSize, 0)
	if n > pfMaxSlot+1 {
		// A size this large cannot be a real pagefile (the offset of the
		// slot past pfMaxSlot would overflow int64); clamp rather than
		// let the loop feed pfSlotOff out-of-range indices.
		n = pfMaxSlot + 1
	}
	sc := pfScan{nSlots: uint64(n), live: make(map[uint64]pfSlot)}
	hdr := make([]byte, pfSlotHdr)
	for slot := uint64(0); slot < sc.nSlots; slot++ {
		// One pread per header, into the one buffer. A whole header is
		// a success even if the reader adds io.EOF (ReadAt may, at the
		// end of its input); anything shorter is not.
		if n, err := f.ReadAt(hdr, pfSlotOff(slot)); n < len(hdr) {
			if err == nil || err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return sc, fmt.Errorf("storage: pagefile scan slot %d: %w", slot, err)
		}
		if binary.LittleEndian.Uint32(hdr[20:24])&pfFlagUsed == 0 {
			continue
		}
		pid, version := binary.LittleEndian.Uint64(hdr[0:8]), binary.LittleEndian.Uint64(hdr[8:16])
		if version > v {
			sc.uncommitted = append(sc.uncommitted, slot)
			continue
		}
		prev, ok := sc.live[pid]
		if ok && prev.version == version {
			return sc, fmt.Errorf("storage: pagefile corrupt: page %d version %d in slots %d and %d", pid, version, prev.slot, slot)
		}
		if !ok || version > prev.version {
			sc.live[pid] = pfSlot{slot: slot, version: version}
		}
	}
	return sc, nil
}

// clearUncommitted zeroes the headers of the slots a batch that never
// committed left flagged used, cuts a partial slot off the file's end (a
// torn extension, size past end), and fsyncs once: a later commit record
// must not cover them. It runs only after such a crash, and repeats
// harmlessly if the machine dies before its fsync.
func (pf *PageFile) clearUncommitted(slots []uint64, size, end int64) error {
	zero := make([]byte, pfSlotHdr)
	for _, slot := range slots {
		if _, err := pf.f.WriteAt(zero, pfSlotOff(slot)); err != nil {
			return fmt.Errorf("storage: pagefile clear uncommitted slot %d: %w", slot, err)
		}
	}
	if size > end {
		if err := pf.f.Truncate(end); err != nil {
			return fmt.Errorf("storage: pagefile trim partial slot: %w", err)
		}
	}
	if err := pf.fsync(); err != nil {
		return fmt.Errorf("storage: pagefile clear: %w", err)
	}
	pf.cleared = len(slots)
	return nil
}

// fsync syncs the file and counts it, modeling the configured device
// latency (the same simulated-device methodology the log devices use).
func (pf *PageFile) fsync() error {
	if err := pf.f.Sync(); err != nil {
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
// SetSyncDelay): every Get attempt sleeps d after its pread. On
// tmpfs-backed test runs a pread is sub-microsecond, which would make
// read-pipelining benchmarks measure scheduler noise; a few hundred
// microseconds of modeled latency makes the overlap win deterministic.
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

// Cleared returns how many slots the last Open found left behind by a
// batch that never committed, and cleared (0 after a clean shutdown or a
// crash between batches).
func (pf *PageFile) Cleared() int { return pf.cleared }

// ReadRetries returns how many reads found their slot freed and reused
// by a later batch after they looked the page up, and looked again — the
// observable cost of the lock-free read path (normally ~0; it rises only
// when readers race writers of the same pages).
func (pf *PageFile) ReadRetries() int64 { return pf.readRetries.Load() }

// SlotInfo describes one live pagefile slot (logdump, tests).
type SlotInfo struct {
	// Slot is the slot's position in the file (offset = header + slot*slotSize).
	Slot uint64
	// PageID is the page stored in the slot.
	PageID uint64
	// Version is the write sequence number of the batch that wrote the
	// slot; the commit record's watermark decides whether it counts.
	Version uint64
}

// Slots lists live slots in file order.
func (pf *PageFile) Slots() []SlotInfo {
	pf.dir.RLock()
	defer pf.dir.RUnlock()
	return slotInfos(pf.slots)
}

// slotInfos lists a directory's slots in file order.
func slotInfos(live map[uint64]pfSlot) []SlotInfo {
	out := make([]SlotInfo, 0, len(live))
	for pid, s := range live {
		out = append(out, SlotInfo{Slot: s.slot, PageID: pid, Version: s.version})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Slot < out[j].Slot })
	return out
}

// WriteBatch implements Archive: the one write-back routine every path
// (sweep, cleaner, steal, PutBatch) goes through. The pages go to free
// slots in page-ID order — fill is called under wmu, once per page, and a
// page it declines costs nothing — then the file is fsynced, the commit
// record written and the file fsynced again: two fsyncs whatever the
// batch's size, each image written once. A failed batch installs nothing
// and fails the file (see the type's doc). Concurrent batches serialize
// on wmu, but readers proceed throughout.
func (pf *PageFile) WriteBatch(pids []uint64, fill func(i int, dst []byte) bool) error {
	if len(pids) == 0 {
		return nil
	}
	pf.wmu.Lock()
	defer pf.wmu.Unlock()
	if pf.closed.Load() {
		return errors.New("storage: pagefile closed")
	}
	if pf.failed != nil {
		return fmt.Errorf("storage: pagefile failed by an earlier batch, reopen to repair: %w", pf.failed)
	}
	defer pf.trimLists()
	if err := pf.writeBatch(pids, fill); err != nil {
		pf.failed = err
		return err
	}
	return nil
}

// writeBatch is WriteBatch's three steps: the images into free slots and
// one fsync, the commit record and one fsync, then the directory.
func (pf *PageFile) writeBatch(pids []uint64, fill func(i int, dst []byte) bool) error {
	visits := pf.visits[:0]
	for i := range pids {
		visits = append(visits, i)
	}
	// A page twice in one batch gets its later image the higher version.
	slices.SortFunc(visits, func(a, b int) int {
		if c := cmp.Compare(pids[a], pids[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	pf.visits = visits

	scratch := pf.scratchBuf()
	written := pf.written[:0]
	staged, runSlot := 0, uint64(0)
	flush := func() error {
		if staged == 0 {
			return nil
		}
		if _, err := pf.f.WriteAt(scratch[:staged*pfSlotSize], pfSlotOff(runSlot)); err != nil {
			return fmt.Errorf("storage: pagefile write: %w", err)
		}
		staged = 0
		return nil
	}
	for _, i := range visits {
		slot, ok := pf.free.lowest()
		if !ok {
			slot = pf.nSlots
		}
		if staged > 0 && (staged == pfScratchEntries || slot != runSlot+uint64(staged)) {
			if err := flush(); err != nil {
				return err
			}
		}
		e := scratch[staged*pfSlotSize : (staged+1)*pfSlotSize]
		if !fill(i, e[pfSlotHdr:]) {
			continue
		}
		if ok {
			pf.free.remove(slot)
		} else {
			pf.nSlots++
		}
		if staged == 0 {
			runSlot = slot
		}
		pf.seq++
		w := pfWrite{pid: pids[i], pfSlot: pfSlot{slot: slot, version: pf.seq}}
		binary.LittleEndian.PutUint64(e[0:8], w.pid)
		binary.LittleEndian.PutUint64(e[8:16], w.version)
		binary.LittleEndian.PutUint32(e[16:20], slotChecksum(e[0:16], e[pfSlotHdr:]))
		binary.LittleEndian.PutUint32(e[20:24], pfFlagUsed)
		binary.LittleEndian.PutUint64(e[24:32], 0)
		written = append(written, w)
		staged++
	}
	pf.written = written
	if len(written) == 0 {
		return nil
	}
	if err := flush(); err != nil {
		return err
	}
	if err := pf.fsync(); err != nil {
		return fmt.Errorf("storage: pagefile sync: %w", err)
	}

	rec := make([]byte, pfCommitRec)
	putCommit(rec, pf.seq)
	sector := 1 - pf.sector
	if _, err := pf.f.WriteAt(rec, pfCommitOff(sector)); err != nil {
		return fmt.Errorf("storage: pagefile commit: %w", err)
	}
	if err := pf.fsync(); err != nil {
		return fmt.Errorf("storage: pagefile commit sync: %w", err)
	}
	pf.sector = sector

	// Committed: publish V, then the new slots, then free the old ones —
	// no earlier, or a crash could leave a page with no committed copy.
	pf.committed.Store(pf.seq)
	pf.dir.Lock()
	for _, w := range written {
		if old, ok := pf.slots[w.pid]; ok {
			pf.free.add(old.slot)
		}
		pf.slots[w.pid] = w.pfSlot
	}
	pf.dir.Unlock()
	return nil
}

// scratchBuf returns the staging buffer, allocating it on first use.
func (pf *PageFile) scratchBuf() []byte {
	if pf.scratch == nil {
		pf.scratch = make([]byte, pfScratchEntries*pfSlotSize)
	}
	return pf.scratch
}

// trimLists drops the per-page lists of an unusually large batch rather
// than keep them for the life of the file.
func (pf *PageFile) trimLists() {
	if cap(pf.visits) > pfKeepEntries {
		pf.visits = nil
	}
	if cap(pf.written) > pfKeepEntries {
		pf.written = nil
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

// readSlot is the one read path: it reads pid's slot s (header + image)
// into buf and validates it, on every read. It takes no lock. An image is
// served only if its pageID matches, its version is at least the
// directory's and at most V, and its CRC-32C (over identity + image)
// holds. A live slot is never written, so a slot that fails was freed
// and reused by a later batch after the caller looked the page up: look
// it up again and read its new slot. If the entry has not changed, the
// slot itself is damaged.
func (pf *PageFile) readSlot(pid uint64, s pfSlot, buf []byte) error {
	for {
		n, err := pf.f.ReadAt(buf, pfSlotOff(s.slot))
		if n < len(buf) {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return fmt.Errorf("storage: pagefile read page %d: %w", pid, err)
		}
		if d := time.Duration(pf.readDelay.Load()); d > 0 {
			time.Sleep(d) // modeled device read time
		}
		gotPID := binary.LittleEndian.Uint64(buf[0:8])
		version := binary.LittleEndian.Uint64(buf[8:16])
		intact := binary.LittleEndian.Uint32(buf[16:20]) == slotChecksum(buf[0:16], buf[pfSlotHdr:])
		if gotPID == pid && version >= s.version && version <= pf.committed.Load() && intact {
			return nil
		}
		pf.dir.RLock()
		cur := pf.slots[pid]
		pf.dir.RUnlock()
		if cur == s {
			if gotPID != pid && intact {
				return fmt.Errorf("storage: pagefile slot %d holds page %d, want %d (misdirected write)", s.slot, gotPID, pid)
			}
			return fmt.Errorf("storage: pagefile page %d fails its checksum (torn or corrupt slot %d)", pid, s.slot)
		}
		pf.readRetries.Add(1)
		s = cur
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
	// Pages is the number of pages the file holds.
	Pages int
	// SizeBytes is the pagefile's size.
	SizeBytes int64
	// Slots lists each page's live slot in file order.
	Slots []SlotInfo
	// Uncommitted counts the used slots a batch that never committed
	// left behind (cleared by the owner's next OpenPageFile); 0 after a
	// clean shutdown.
	Uncommitted int
}

// ReadPageFileInfo inspects a pagefile without modifying anything — no
// clearing, no upgrade — so it is safe to run against a database another
// process has open. (OpenPageFile, by contrast, takes ownership.) A
// format-1 file reads as its upgrade would: every slot committed.
func ReadPageFileInfo(path string) (*PageFileInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("storage: read pagefile: %w", err)
	}
	defer f.Close()
	version, err := readHeader(f, path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("storage: read pagefile: %w", err)
	}
	v := ^uint64(0)
	if version == pfVersion {
		if v, _, err = readCommit(f); err != nil {
			return nil, err
		}
	}
	sc, err := scanSlots(f, st.Size(), v)
	if err != nil {
		return nil, err
	}
	return &PageFileInfo{
		Pages:       len(sc.live),
		SizeBytes:   st.Size(),
		Slots:       slotInfos(sc.live),
		Uncommitted: len(sc.uncommitted),
	}, nil
}

// Close releases the file handle; safe to call more than once. All
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
	return pf.f.Close()
}

var _ Archive = (*PageFile)(nil)
