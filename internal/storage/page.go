// Package storage is the page-based storage engine the workloads run
// on: slotted pages with page LSNs, a sharded page store that doubles
// as a demand-paged buffer pool over an Archive backend (residency,
// pin/unpin, clock eviction with WAL-ordered dirty steal), a dirty-page
// table, heap files with record IDs, and a B+Tree index. Every mutation
// is expressed as a physiological UpdatePayload so the same code path
// serves normal forward processing, transaction rollback and ARIES
// redo.
//
// The paper's experiments use memory-resident datasets ("modern
// transaction processing workloads are largely memory resident", §6.1)
// with the log providing durability; this package plays the role
// Shore-MT's buffer manager and storage structures play there. Without
// a cache budget the store behaves exactly that way — fully resident;
// with Store.SetCachePages it bounds RAM and pages against the
// database file.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"aether/internal/logrec"
	"aether/internal/lsn"
)

// PageSize is the fixed page size (8KiB, Shore-MT's default).
const PageSize = 8192

// Page header layout (little-endian):
//
//	 0  pageID   uint64
//	 8  pageLSN  uint64
//	16  nSlots   uint16
//	18  freeStart uint16 — end of the record heap area
//	20  flags    uint16
//	22  reserved uint16
const (
	hdrSize      = 24
	slotDirEntry = 4      // offset uint16 + length uint16
	deadOffset   = 0xFFFF // slot directory offset marking a dead slot
)

// MaxRecordSize is the largest record a page can hold.
const MaxRecordSize = PageSize - hdrSize - slotDirEntry

// The log refuses an insert or delete of a row longer than a page holds;
// this fails to compile if the two bounds part.
var _ = [1]struct{}{}[MaxRecordSize-logrec.MaxRowLen]

// Errors returned by page operations.
var (
	ErrPageFull     = errors.New("storage: page full")
	ErrBadSlot      = errors.New("storage: no such slot")
	ErrDeadSlot     = errors.New("storage: slot is dead")
	ErrRecordTooBig = errors.New("storage: record exceeds page capacity")
	// ErrBadSplice means an OpSet names bytes its row does not have: the
	// page is not in the state the record was logged against.
	ErrBadSplice = errors.New("storage: splice outside the row")
)

// Page is a slotted page: records grow up from the header, the slot
// directory grows down from the end. The Latch field is the short-term
// physical latch (distinct from logical locks); callers latch before
// touching page contents.
type Page struct {
	// Latch is the short-term physical latch: shared for reads of page
	// contents, exclusive for mutations. It orders pageLSN bumps
	// against the checkpoint sweep's check-and-clean.
	Latch sync.RWMutex

	// pins counts live references handed out by Store.Get/GetOrCreate/
	// Allocate; the buffer pool never evicts a pinned page. Pins are
	// taken under the owning shard's lock, so an evictor holding that
	// lock exclusively and observing pins == 0 knows no reference can
	// appear until it releases the lock.
	pins atomic.Int32
	// ref is the clock algorithm's second-chance bit, set on every
	// Store.Get hit and cleared by one sweep of the clock hand.
	ref atomic.Bool
	// wb is the per-page writeback latch: whoever CASes it false→true
	// owns the exclusive right to write this page's image to the archive
	// backend and (on success) mark it clean. The background cleaner, the
	// demand-steal path and the checkpoint sweep all contend for it, so a
	// page never has two backend writes in flight — the ordering hazard
	// where a slower writer lands a stale image over a fresher one after
	// the page was marked clean cannot arise. It is NOT a mutex: losers
	// skip the page instead of waiting.
	//
	// It is also what keeps the write-back paths' lock order sound. A
	// batch writer (sweep, cleaner) takes page latches, shared, while it
	// holds the archive's writer lock (PageFile.wmu); a steal holds its
	// victim's latch, shared, and then waits for that lock. On one page
	// the two orders — plus a transaction queued for the exclusive latch
	// between them, which makes the second shared acquisition wait —
	// would be a three-party deadlock. The rule: wmu → page latch only
	// for pages whose wb the caller holds, and page latch → wmu only for
	// a page whose wb the caller holds; every write-back path claims wb
	// before it latches, so the two sides are never on the same page.
	wb atomic.Bool
	// prefetched marks a page installed by the read-ahead pipeline that
	// no demand access has consumed yet; the first Get CASes it off and
	// counts the prefetch hit (prefetch.go).
	prefetched atomic.Bool
	// firstFree is a lower bound on the page's first dead slot: every
	// slot below it is live. It lives in memory only, guarded by the
	// latch like the image. A page starts at 0 however it was built —
	// empty, faulted in or loaded from a snapshot — FindInsertSlot raises
	// it to the slot it finds, an insert into that slot moves it one
	// past, and a slot that dies lowers it. So on a page that is only
	// appended to, the slot choice reads no directory entry at all.
	firstFree uint16

	// frame holds the page exactly as a PageFile slot does — the 32-byte
	// slot header, then the image — so a fault reads its slot straight
	// into the frame it is about to install (one pread, no staging copy;
	// PageFile.ReadPage). The page proper is the image part, buf(); the
	// header part is the read path's scratch and means nothing once the
	// read has been validated. The 32 extra bytes do not change the
	// frame's allocation size class.
	frame [pfSlotSize]byte
}

// buf returns the page image inside the frame.
func (p *Page) buf() *[PageSize]byte { return (*[PageSize]byte)(p.frame[pfSlotHdr:]) }

// Unpin releases one reference taken by Store.Get, Store.GetOrCreate or
// Store.Allocate, making the page evictable again once all pins are
// gone. Every pinned page must be unpinned exactly once.
func (p *Page) Unpin() { p.pins.Add(-1) }

// NewPage returns an initialized empty page.
func NewPage(id uint64) *Page {
	p := &Page{}
	binary.LittleEndian.PutUint64(p.buf()[0:8], id)
	binary.LittleEndian.PutUint64(p.buf()[8:16], uint64(lsn.Zero))
	p.setFreeStart(hdrSize)
	return p
}

// ID returns the page's identifier.
func (p *Page) ID() uint64 { return binary.LittleEndian.Uint64(p.buf()[0:8]) }

// LSN returns the page LSN: the LSN of the last record applied.
func (p *Page) LSN() lsn.LSN {
	return lsn.LSN(binary.LittleEndian.Uint64(p.buf()[8:16]))
}

// SetLSN stamps the page LSN.
func (p *Page) SetLSN(l lsn.LSN) {
	binary.LittleEndian.PutUint64(p.buf()[8:16], uint64(l))
}

// NumSlots returns the size of the slot directory (live and dead slots).
func (p *Page) NumSlots() int {
	return int(binary.LittleEndian.Uint16(p.buf()[16:18]))
}

func (p *Page) setNumSlots(n int) {
	binary.LittleEndian.PutUint16(p.buf()[16:18], uint16(n))
}

func (p *Page) freeStart() int {
	return int(binary.LittleEndian.Uint16(p.buf()[18:20]))
}

func (p *Page) setFreeStart(n int) {
	binary.LittleEndian.PutUint16(p.buf()[18:20], uint16(n))
}

// slotEntry returns the directory position of slot i.
func (p *Page) slotEntry(i int) int {
	return PageSize - slotDirEntry*(i+1)
}

func (p *Page) slotOffLen(i int) (off, length int) {
	e := p.slotEntry(i)
	return int(binary.LittleEndian.Uint16(p.buf()[e : e+2])),
		int(binary.LittleEndian.Uint16(p.buf()[e+2 : e+4]))
}

func (p *Page) setSlot(i, off, length int) {
	e := p.slotEntry(i)
	binary.LittleEndian.PutUint16(p.buf()[e:e+2], uint16(off))
	binary.LittleEndian.PutUint16(p.buf()[e+2:e+4], uint16(length))
}

// FreeSpace returns the bytes available for a new record, accounting for
// a possible new slot directory entry but not for reclaimable dead space.
func (p *Page) FreeSpace() int {
	free := PageSize - slotDirEntry*p.NumSlots() - p.freeStart() - slotDirEntry
	if free < 0 {
		return 0
	}
	return free
}

// Get returns a copy of the record in slot i.
func (p *Page) Get(slot int) ([]byte, error) {
	if slot < 0 || slot >= p.NumSlots() {
		return nil, ErrBadSlot
	}
	off, length := p.slotOffLen(slot)
	if off == deadOffset {
		return nil, ErrDeadSlot
	}
	out := make([]byte, length)
	copy(out, p.buf()[off:off+length])
	return out, nil
}

// View returns the record bytes of a live slot in place (no copy): the
// slice aliases the frame, so the caller must hold the latch for as long
// as it uses it and must not write through it.
func (p *Page) View(slot int) ([]byte, error) {
	if slot < 0 || slot >= p.NumSlots() {
		return nil, ErrBadSlot
	}
	off, length := p.slotOffLen(slot)
	if off == deadOffset {
		return nil, ErrDeadSlot
	}
	return p.buf()[off : off+length], nil
}

// FindInsertSlot picks the slot a new record would occupy: the first dead
// slot, or a fresh one. It leaves the image alone but raises the page's
// in-memory first-free bound to what it found, so the caller must hold
// the latch exclusively. The search starts at that bound, so it returns
// what a scan from slot 0 would, reading no entry at all on a page whose
// slots never died.
func (p *Page) FindInsertSlot() int {
	slot, _ := p.findInsertSlot()
	return slot
}

// findInsertSlot is FindInsertSlot, also reporting how many slot
// directory entries it read (HeapFile.SlotProbes).
func (p *Page) findInsertSlot() (slot, examined int) {
	n := p.NumSlots()
	slot = int(p.firstFree)
	for ; slot < n; slot++ {
		examined++
		if off, _ := p.slotOffLen(slot); off == deadOffset {
			break
		}
	}
	p.firstFree = uint16(slot)
	return slot, examined
}

// CanFit reports whether a record of the given size can be placed in the
// given slot (which must be dead or one past the end).
func (p *Page) CanFit(slot, size int) bool {
	if size > MaxRecordSize {
		return false
	}
	needDir := 0
	if slot == p.NumSlots() {
		needDir = slotDirEntry
	}
	avail := PageSize - slotDirEntry*p.NumSlots() - needDir - p.freeStart()
	if avail >= size {
		return true
	}
	// Compaction could reclaim dead space.
	return p.liveBytes()+size+hdrSize+slotDirEntry*p.NumSlots()+needDir <= PageSize
}

// liveBytes sums the sizes of live records.
func (p *Page) liveBytes() int {
	total := 0
	for i := 0; i < p.NumSlots(); i++ {
		if off, length := p.slotOffLen(i); off != deadOffset {
			total += length
		}
	}
	return total
}

// Insert places data into the given slot (dead or new). Callers pick the
// slot with FindInsertSlot so the operation is deterministic and can be
// replayed by redo, which may name any slot: one past the end grows the
// directory with dead slots, which lie at or above the first-free bound
// already.
func (p *Page) Insert(slot int, data []byte) error { return p.insert(slot, data, len(data)) }

// insert places a row of size bytes into slot: data and then zeros, the
// row a logged insert's image stands for.
func (p *Page) insert(slot int, data []byte, size int) error {
	if size > MaxRecordSize {
		return ErrRecordTooBig
	}
	n := p.NumSlots()
	if slot > n || slot < 0 {
		// Redo on a page that had more slots at crash time than the
		// replayed state: grow the directory with dead slots.
		if slot < 0 {
			return ErrBadSlot
		}
		for i := n; i < slot; i++ {
			p.setSlot(i, deadOffset, 0)
		}
		p.setNumSlots(slot)
		n = slot
	}
	if slot < n {
		if off, _ := p.slotOffLen(slot); off != deadOffset {
			return fmt.Errorf("storage: insert into live slot %d: %w", slot, ErrBadSlot)
		}
	}
	needDir := 0
	if slot == n {
		needDir = slotDirEntry
	}
	if PageSize-slotDirEntry*n-needDir-p.freeStart() < size {
		if p.liveBytes()+size+hdrSize+slotDirEntry*n+needDir > PageSize {
			return ErrPageFull
		}
		p.compact()
	}
	off := p.freeStart()
	row := p.buf()[off : off+size]
	clear(row[copy(row, data):])
	if slot == n {
		p.setNumSlots(n + 1)
	}
	p.setSlot(slot, off, size)
	p.setFreeStart(off + size)
	if slot == int(p.firstFree) {
		// Every slot below this one is live, and now this one is too.
		p.firstFree++
	}
	return nil
}

// Set replaces the record in a live slot.
func (p *Page) Set(slot int, data []byte) error {
	if len(data) > MaxRecordSize {
		return ErrRecordTooBig
	}
	if slot < 0 || slot >= p.NumSlots() {
		return ErrBadSlot
	}
	off, length := p.slotOffLen(slot)
	if off == deadOffset {
		return ErrDeadSlot
	}
	if len(data) <= length {
		copy(p.buf()[off:], data)
		p.setSlot(slot, off, len(data))
		return nil
	}
	// Grow: abandon the old space (reclaimed by compaction).
	if !p.canGrow(slot, len(data)) {
		return ErrPageFull
	}
	if !p.growsInPlace(len(data)) {
		p.setSlot(slot, deadOffset, 0) // exclude old copy from compaction
		p.compact()
	}
	off = p.freeStart()
	copy(p.buf()[off:], data)
	p.setSlot(slot, off, len(data))
	p.setFreeStart(off + len(data))
	return nil
}

// canGrow reports whether the live row in slot can be replaced by one of
// size bytes, in the free space or after compaction. A caller that logs
// an update before applying it (HeapFile.Mutate) asks first when the row
// grows, so that no record is logged that the page then refuses.
func (p *Page) canGrow(slot, size int) bool {
	_, length := p.slotOffLen(slot)
	return size <= length || p.growsInPlace(size) ||
		p.liveBytes()-length+size+hdrSize+slotDirEntry*p.NumSlots() <= PageSize
}

// growsInPlace reports whether size bytes fit in the free space as it
// stands, without compaction.
func (p *Page) growsInPlace(size int) bool {
	return PageSize-slotDirEntry*p.NumSlots()-p.freeStart() >= size
}

// Delete kills the record in a slot. The slot number stays reserved (so
// redo stays deterministic) and becomes reusable by Insert.
func (p *Page) Delete(slot int) error {
	if slot < 0 || slot >= p.NumSlots() {
		return ErrBadSlot
	}
	if off, _ := p.slotOffLen(slot); off == deadOffset {
		return ErrDeadSlot
	}
	p.setSlot(slot, deadOffset, 0)
	if slot < int(p.firstFree) {
		p.firstFree = uint16(slot)
	}
	return nil
}

// compact rewrites live records to squeeze out dead space.
func (p *Page) compact() {
	type rec struct {
		slot int
		data []byte
	}
	var live []rec
	for i := 0; i < p.NumSlots(); i++ {
		if off, length := p.slotOffLen(i); off != deadOffset {
			d := make([]byte, length)
			copy(d, p.buf()[off:off+length])
			live = append(live, rec{i, d})
		}
	}
	off := hdrSize
	for _, r := range live {
		copy(p.buf()[off:], r.data)
		p.setSlot(r.slot, off, len(r.data))
		off += len(r.data)
	}
	p.setFreeStart(off)
}

// splice applies an OpSet to a live slot: it XORs x into row[off :
// off+len(x)] and then, if the row changes length, inserts tail there
// (delta > 0) or removes the -delta bytes that follow (delta < 0). One of
// the same length — every fixed-width field update — is patched where
// the row stands; one that changes the row's length rebuilds it
// (resplice). A range the row does not have fails before anything is
// written.
func (p *Page) splice(slot, off int, x, tail []byte, delta int) error {
	row, err := p.View(slot)
	if err != nil {
		return err
	}
	end := off + len(x)
	cut := end + max(-delta, 0) // the row's bytes from cut on follow the splice
	if cut > len(row) || len(tail) != max(delta, -delta) {
		return fmt.Errorf("%w: slot %d holds %d bytes, splice covers [%d, %d) and a %d-byte tail for a %+d resize",
			ErrBadSplice, slot, len(row), off, cut, len(tail), delta)
	}
	if delta == 0 {
		xorInto(row[off:end], x)
		return nil
	}
	if delta < 0 {
		tail = nil
	}
	return p.resplice(slot, row, off, end, cut, x, tail)
}

// resplice sets a slot to row[:off], row[off:end] ⊕ x, ins and row[cut:],
// where row is the slot's current row. It is splice's cold half, apart
// so that the page of stack the new row is assembled in is not part of
// every update's frame.
func (p *Page) resplice(slot int, row []byte, off, end, cut int, x, ins []byte) error {
	if end+len(ins)+len(row)-cut > MaxRecordSize {
		return ErrRecordTooBig
	}
	var buf [MaxRecordSize]byte
	out := append(append(buf[:0], row[:end]...), ins...)
	xorInto(out[off:end], x)
	return p.Set(slot, append(out, row[cut:]...))
}

// xorInto XORs x into dst, which is as long: a splice's X is a few
// bytes, too few to pay for a call.
func xorInto(dst, x []byte) {
	for i, b := range x {
		dst[i] ^= b
	}
}

// Apply performs a physiological update (from a log record) against the
// page and stamps the page LSN. It is the single redo entry point: the
// same function applies forward updates, rollback inverses and recovery
// redo. An insert writes its row's zero tail itself, so a decoded one
// (whose image stops at the last non-zero byte) needs no copy of the
// row. Nothing it applies is idempotent: a splice XORs its X into the
// row, so applying one twice undoes it, and an insert applied twice
// fails. Every caller applies each record exactly once — the forward
// path and rollback under the page latch as they log, and recovery's
// redo only where the page's stamp is below the record's.
func (p *Page) Apply(up logrec.UpdatePayload, at lsn.LSN) error {
	var err error
	switch up.Op {
	case logrec.OpInsert:
		err = p.insert(int(up.Slot), up.After, up.RowSize())
	case logrec.OpSet:
		err = p.splice(int(up.Slot), int(up.Off), up.X, up.Tail, int(up.Delta))
	case logrec.OpDelete:
		err = p.Delete(int(up.Slot))
	default:
		err = fmt.Errorf("storage: unknown update op %v", up.Op)
	}
	if err != nil {
		return err
	}
	p.SetLSN(at)
	return nil
}

// Snapshot returns a private copy of the raw page image, for callers
// that keep it past the latch (tests, probes).
// The write-back paths do not use it: they copy the frame once, into the
// archive's own staging buffer (Archive.WriteBatch).
func (p *Page) Snapshot() []byte {
	out := make([]byte, PageSize)
	copy(out, p.buf()[:])
	return out
}

// copyDurable is the write-back paths' one copy of a page image: into
// dst, out of the frame, and only if the log covering it is durable —
// the write-ahead rule checked where the image is taken, under the latch
// hold (the caller's, shared is enough) that takes it. It returns the
// pageLSN of the image it copied.
func (p *Page) copyDurable(dst []byte, durable lsn.LSN) (pl lsn.LSN, ok bool) {
	if pl = p.LSN(); pl > durable {
		return pl, false
	}
	copy(dst, p.buf()[:])
	return pl, true
}

// LoadSnapshot overwrites the page from a raw image.
func (p *Page) LoadSnapshot(img []byte) error {
	if len(img) != PageSize {
		return fmt.Errorf("storage: snapshot is %d bytes, want %d", len(img), PageSize)
	}
	copy(p.buf()[:], img)
	p.firstFree = 0
	return nil
}
