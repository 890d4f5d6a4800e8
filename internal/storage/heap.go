package storage

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"aether/internal/logrec"
	"aether/internal/lsn"
)

// LogFunc is the storage→log callback: invoked under the page latch with
// the physiological payload describing a mutation. It must register the
// page in the store's dirty-page table (Store.MarkDirty) before the
// record enters the log — the heap does not register it again — then
// append the record (chaining PrevLSN et al.) and return the record's
// END LSN. The engine stamps pages with it — "the page reflects the log
// up to here" — which keeps the redo test unambiguous even for the
// record at LSN 0.
//
// Inverting control this way keeps the WAL protocol airtight: the log
// record is created while the latch pins the page state it describes, so
// pageLSN ordering always matches log ordering.
type LogFunc func(pageID uint64, up logrec.UpdatePayload) (end lsn.LSN, err error)

// ErrNotFound is returned when a RID does not name a live record.
var ErrNotFound = errors.New("storage: record not found")

// HeapFile is an unordered collection of records in pages, addressed by
// RID. One HeapFile per table; the heap's space ID is encoded in all of
// its page IDs, which is how recovery reassembles heaps.
type HeapFile struct {
	store *Store
	space uint32
	name  string

	mu        sync.Mutex
	avail     []uint64 // pages that may have free space (LIFO)
	allocated []uint64 // every page ever owned by this heap

	slotProbes atomic.Uint64 // slot-directory entries read choosing insert slots
}

// NewHeapFile creates an empty heap for the given space.
func NewHeapFile(store *Store, space uint32, name string) *HeapFile {
	return &HeapFile{store: store, space: space, name: name}
}

// Name returns the heap's label (diagnostics).
func (h *HeapFile) Name() string { return h.name }

// Space returns the heap's space ID.
func (h *HeapFile) Space() uint32 { return h.space }

// Adopt attaches an existing page to the heap (restart path). Pages must
// be adopted in ascending ID order for placement determinism. free is
// the page's FreeSpace, read by the caller under the page's latch and
// passed in with the latch released: the heap never holds mu and a page
// latch at once.
func (h *HeapFile) Adopt(pid uint64, free int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.allocated = append(h.allocated, pid)
	if free > 64 {
		h.avail = append(h.avail, pid)
	}
}

// Pages returns every page ID the heap has allocated.
func (h *HeapFile) Pages() []uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]uint64, len(h.allocated))
	copy(out, h.allocated)
	return out
}

// Insert places data in some page, logs the insert via log, and returns
// the record's RID. It latches one page, once, unless that page turns
// out to be full.
func (h *HeapFile) Insert(data []byte, log LogFunc) (RID, error) {
	if len(data) > MaxRecordSize {
		return RID{}, ErrRecordTooBig
	}
	for {
		p, err := h.pickPage()
		if err != nil {
			return RID{}, err
		}
		p.Latch.Lock()
		slot, examined := p.findInsertSlot()
		h.slotProbes.Add(uint64(examined))
		if !p.CanFit(slot, len(data)) {
			p.Latch.Unlock()
			h.dropAvail(p.ID())
			p.Unpin()
			continue
		}
		up := logrec.UpdatePayload{Op: logrec.OpInsert, Slot: uint16(slot), After: data}
		end, err := log(p.ID(), up)
		if err != nil {
			p.Latch.Unlock()
			p.Unpin()
			return RID{}, err
		}
		if err := p.Apply(up, end); err != nil {
			p.Latch.Unlock()
			p.Unpin()
			return RID{}, fmt.Errorf("storage: heap insert apply: %w", err)
		}
		rid := RID{Page: p.ID(), Slot: uint16(slot)}
		p.Latch.Unlock()
		p.Unpin()
		return rid, nil
	}
}

// SlotProbes returns how many slot-directory entries the heap's inserts
// have read to choose their slots: none per insert while pages are only
// appended to.
func (h *HeapFile) SlotProbes() uint64 { return h.slotProbes.Load() }

// pickPage returns the pinned page an insert should try, allocating if
// no page is available; the caller unpins it. Whether the row fits is
// the caller's check, under the one latch it takes anyway.
func (h *HeapFile) pickPage() (*Page, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for len(h.avail) > 0 {
		p, err := h.store.Get(h.avail[len(h.avail)-1])
		if err != nil {
			return nil, err
		}
		if p != nil {
			return p, nil
		}
		h.avail = h.avail[:len(h.avail)-1]
	}
	p := h.store.Allocate(h.space)
	h.avail = append(h.avail, p.ID())
	h.allocated = append(h.allocated, p.ID())
	return p, nil
}

// dropAvail removes pid from the available list (it filled up between
// selection and latch).
func (h *HeapFile) dropAvail(pid uint64) {
	h.mu.Lock()
	for i, id := range h.avail {
		if id == pid {
			h.avail = append(h.avail[:i], h.avail[i+1:]...)
			break
		}
	}
	h.mu.Unlock()
}

// Read returns a copy of the record at rid. A failed page fault (I/O
// error, corruption) is reported as its own error, never as ErrNotFound.
func (h *HeapFile) Read(rid RID) ([]byte, error) {
	p, err := h.store.Get(rid.Page)
	if err != nil {
		return nil, err
	}
	if p == nil {
		return nil, ErrNotFound
	}
	defer p.Unpin()
	p.Latch.RLock()
	defer p.Latch.RUnlock()
	data, err := p.Get(int(rid.Slot))
	if err != nil {
		return nil, ErrNotFound
	}
	return data, nil
}

// Mutate applies fn to the record bytes under the exclusive latch,
// logging what it changed (logrec.Splice) in one step: the update path
// behind Txn.Update (read-modify-write of a balance field). The splice's
// X is built in *x, the caller's scratch, which keeps whatever it grew
// to so that updates do not allocate. A row fn grows past what the page
// can hold fails with ErrPageFull (or ErrRecordTooBig) before anything
// is logged.
func (h *HeapFile) Mutate(rid RID, x *[]byte, log LogFunc, fn func(cur []byte) ([]byte, error)) error {
	p, err := h.store.Get(rid.Page)
	if err != nil {
		return err
	}
	if p == nil {
		return ErrNotFound
	}
	defer p.Unpin()
	p.Latch.Lock()
	defer p.Latch.Unlock()
	before, err := p.View(int(rid.Slot))
	if err != nil {
		return ErrNotFound
	}
	after, err := fn(before)
	if err != nil {
		return err
	}
	// A row that grows must fit before its update is logged: a record
	// the page then refused would be redone, and undone, against a row
	// that never changed.
	if len(after) > len(before) {
		if len(after) > MaxRecordSize {
			return ErrRecordTooBig
		}
		if !p.canGrow(int(rid.Slot), len(after)) {
			return ErrPageFull
		}
	}
	up := logrec.Splice(*x, rid.Slot, before, after)
	*x = up.X
	end, err := log(rid.Page, up)
	if err != nil {
		return err
	}
	if err := p.Apply(up, end); err != nil {
		return fmt.Errorf("storage: heap mutate apply: %w", err)
	}
	return nil
}

// Delete removes the record at rid, logging its before image.
func (h *HeapFile) Delete(rid RID, log LogFunc) error {
	p, err := h.store.Get(rid.Page)
	if err != nil {
		return err
	}
	if p == nil {
		return ErrNotFound
	}
	defer p.Unpin()
	p.Latch.Lock()
	before, err := p.View(int(rid.Slot))
	if err != nil {
		p.Latch.Unlock()
		return ErrNotFound
	}
	up := logrec.UpdatePayload{Op: logrec.OpDelete, Slot: rid.Slot, Before: before}
	end, err := log(rid.Page, up)
	if err != nil {
		p.Latch.Unlock()
		return err
	}
	if err := p.Apply(up, end); err != nil {
		p.Latch.Unlock()
		return fmt.Errorf("storage: heap delete apply: %w", err)
	}
	// Drop the latch before touching the placement list: the heap never
	// holds h.mu and a page latch at once (pickPage faults pages in
	// under h.mu).
	p.Latch.Unlock()
	h.mu.Lock()
	// The page regained space; make it placeable again.
	found := false
	for _, id := range h.avail {
		if id == rid.Page {
			found = true
			break
		}
	}
	if !found {
		h.avail = append(h.avail, rid.Page)
	}
	h.mu.Unlock()
	return nil
}

// Scan calls fn for every live record in the heap (in page, slot order).
// fn receives a copy it may retain. Pages fault in and out as the scan
// walks, so memory stays within the cache budget even for heaps far
// larger than RAM; a failed fault aborts the scan with its error.
func (h *HeapFile) Scan(fn func(rid RID, data []byte) bool) error {
	for _, pid := range h.Pages() {
		p, err := h.store.Get(pid)
		if err != nil {
			return err
		}
		if p == nil {
			continue
		}
		p.Latch.RLock()
		n := p.NumSlots()
		type item struct {
			rid  RID
			data []byte
		}
		items := make([]item, 0, n)
		for s := 0; s < n; s++ {
			if data, err := p.Get(s); err == nil {
				items = append(items, item{RID{pid, uint16(s)}, data})
			}
		}
		p.Latch.RUnlock()
		p.Unpin()
		for _, it := range items {
			if !fn(it.rid, it.data) {
				return nil
			}
		}
	}
	return nil
}
