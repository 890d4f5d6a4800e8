package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"

	"aether/internal/logrec"
	"aether/internal/lsn"
)

// countingLog is a LogFunc that assigns increasing LSNs and records
// payloads for inspection.
type countingLog struct {
	mu   sync.Mutex
	next lsn.LSN
	ups  []logrec.UpdatePayload
	pids []uint64
	st   *Store // registers each page as dirty at its record's LSN
}

func (c *countingLog) log(pid uint64, up logrec.UpdatePayload) (lsn.LSN, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.st.MarkDirty(pid, c.next)
	c.next += 48
	cp := up
	cp.Before = append([]byte(nil), up.Before...)
	cp.After = append([]byte(nil), up.After...)
	c.ups = append(c.ups, cp)
	c.pids = append(c.pids, pid)
	return c.next, nil
}

// nopLog is a LogFunc for heap tests that look at nothing but placement:
// it logs nothing and leaves the dirty-page table alone.
func nopLog(uint64, logrec.UpdatePayload) (lsn.LSN, error) { return lsn.Zero, nil }

func TestHeapInsertReadUpdateDelete(t *testing.T) {
	st := NewStore()
	h := NewHeapFile(st, 1, "accounts")
	cl := &countingLog{st: st}

	rid, err := h.Insert([]byte("balance=100"), cl.log)
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.Read(rid)
	if err != nil || string(got) != "balance=100" {
		t.Fatalf("Read: %q %v", got, err)
	}
	if err := h.Mutate(rid, cl.log, func([]byte) ([]byte, error) { return []byte("balance=150"), nil }); err != nil {
		t.Fatal(err)
	}
	got, _ = h.Read(rid)
	if string(got) != "balance=150" {
		t.Fatalf("after update: %q", got)
	}
	if err := h.Delete(rid, cl.log); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Read(rid); !errors.Is(err, ErrNotFound) {
		t.Fatalf("read deleted: %v", err)
	}
	// Log saw insert, set, delete with correct images: the set carries
	// the one byte that changed ("balance=1[0→5]0") and where.
	if len(cl.ups) != 3 {
		t.Fatalf("%d log records", len(cl.ups))
	}
	if cl.ups[0].Op != logrec.OpInsert || string(cl.ups[0].After) != "balance=100" {
		t.Fatalf("insert record: %+v", cl.ups[0])
	}
	if cl.ups[1].Op != logrec.OpSet || cl.ups[1].Off != 9 || string(cl.ups[1].Before) != "0" ||
		string(cl.ups[1].After) != "5" {
		t.Fatalf("set record: %+v", cl.ups[1])
	}
	if cl.ups[2].Op != logrec.OpDelete || string(cl.ups[2].Before) != "balance=150" {
		t.Fatalf("delete record: %+v", cl.ups[2])
	}
}

func TestHeapMutate(t *testing.T) {
	st := NewStore()
	h := NewHeapFile(st, 1, "t")
	cl := &countingLog{st: st}
	buf := make([]byte, 8)
	binary.LittleEndian.PutUint64(buf, 100)
	rid, _ := h.Insert(buf, cl.log)

	err := h.Mutate(rid, cl.log, func(cur []byte) ([]byte, error) {
		v := binary.LittleEndian.Uint64(cur)
		out := make([]byte, 8)
		binary.LittleEndian.PutUint64(out, v+23)
		return out, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := h.Read(rid)
	if binary.LittleEndian.Uint64(got) != 123 {
		t.Fatalf("mutate result: %d", binary.LittleEndian.Uint64(got))
	}
	// Mutate with failing fn leaves the record untouched and logs nothing.
	before := len(cl.ups)
	sentinel := errors.New("nope")
	if err := h.Mutate(rid, cl.log, func([]byte) ([]byte, error) {
		return nil, sentinel
	}); !errors.Is(err, sentinel) {
		t.Fatal(err)
	}
	if len(cl.ups) != before {
		t.Fatal("failed mutate logged a record")
	}
	// Growing the row past what the page can hold fails the same way:
	// before anything is logged, with the row as it was.
	for i := 0; i < 30; i++ {
		if _, err := h.Insert(make([]byte, 248), cl.log); err != nil {
			t.Fatal(err)
		}
	}
	before = len(cl.ups)
	if err := h.Mutate(rid, cl.log, func([]byte) ([]byte, error) {
		return make([]byte, 4008), nil
	}); !errors.Is(err, ErrPageFull) {
		t.Fatalf("growing past the page: %v, want ErrPageFull", err)
	}
	if len(cl.ups) != before {
		t.Fatal("a row grown past its page was logged")
	}
	if got, _ := h.Read(rid); binary.LittleEndian.Uint64(got) != 123 {
		t.Fatalf("after a refused grow: %x", got)
	}
}

func TestHeapSpillsAcrossPages(t *testing.T) {
	st := NewStore()
	h := NewHeapFile(st, 1, "big")
	cl := &countingLog{st: st}
	rec := make([]byte, 1000)
	var rids []RID
	for i := 0; i < 50; i++ { // 50KB ≫ one 8KB page
		binary.LittleEndian.PutUint64(rec, uint64(i))
		rid, err := h.Insert(rec, cl.log)
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if pages := h.Pages(); len(pages) < 6 {
		t.Fatalf("expected multiple pages, got %d", len(pages))
	}
	for i, rid := range rids {
		got, err := h.Read(rid)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if binary.LittleEndian.Uint64(got) != uint64(i) {
			t.Fatalf("record %d mangled", i)
		}
	}
}

func TestHeapDeleteMakesSpaceReusable(t *testing.T) {
	st := NewStore()
	h := NewHeapFile(st, 1, "t")
	rec := make([]byte, 2000)
	var rids []RID
	for i := 0; i < 8; i++ {
		rid, err := h.Insert(rec, nopLog)
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	pagesBefore := len(h.Pages())
	for _, rid := range rids {
		if err := h.Delete(rid, nopLog); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		if _, err := h.Insert(rec, nopLog); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(h.Pages()); got != pagesBefore {
		t.Fatalf("deleted space not reused: %d pages -> %d", pagesBefore, got)
	}
}

func TestHeapScan(t *testing.T) {
	st := NewStore()
	h := NewHeapFile(st, 1, "t")
	want := map[string]bool{}
	for i := 0; i < 30; i++ {
		data := []byte(fmt.Sprintf("row-%02d", i))
		if _, err := h.Insert(data, nopLog); err != nil {
			t.Fatal(err)
		}
		want[string(data)] = true
	}
	got := 0
	h.Scan(func(rid RID, data []byte) bool {
		if !want[string(data)] {
			t.Errorf("unexpected row %q", data)
		}
		got++
		return true
	})
	if got != 30 {
		t.Fatalf("scanned %d rows", got)
	}
	// Early stop.
	n := 0
	h.Scan(func(RID, []byte) bool { n++; return n < 5 })
	if n != 5 {
		t.Fatalf("early stop scanned %d", n)
	}
}

func TestHeapConcurrentInserts(t *testing.T) {
	st := NewStore()
	h := NewHeapFile(st, 1, "t")
	cl := &countingLog{st: st}
	const workers = 8
	const perW = 300
	var mu sync.Mutex
	all := make(map[RID][]byte)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				data := make([]byte, 40+(w*17+i)%200)
				binary.LittleEndian.PutUint64(data, uint64(w*perW+i))
				rid, err := h.Insert(data, cl.log)
				if err != nil {
					t.Errorf("insert: %v", err)
					return
				}
				mu.Lock()
				all[rid] = data
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if len(all) != workers*perW {
		t.Fatalf("RID collision: %d unique of %d", len(all), workers*perW)
	}
	for rid, want := range all {
		got, err := h.Read(rid)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("rid %v mangled: %v", rid, err)
		}
	}
}

func TestStoreDirtyPageTable(t *testing.T) {
	st := NewStore()
	p1 := st.Allocate(1)
	p2 := st.Allocate(1)
	st.MarkDirty(p1.ID(), 100)
	st.MarkDirty(p1.ID(), 200) // recLSN must not move forward
	st.MarkDirty(p2.ID(), 50)
	dpt := st.DirtyPages()
	if len(dpt) != 2 {
		t.Fatalf("DPT size %d", len(dpt))
	}
	if dpt[0].PageID != p1.ID() || dpt[0].RecLSN != 100 {
		t.Fatalf("DPT[0]: %+v", dpt[0])
	}
	if got := st.MinRecLSN(); got != 50 {
		t.Fatalf("MinRecLSN: %v", got)
	}
	st.MarkClean(p2.ID())
	if got := st.MinRecLSN(); got != 100 {
		t.Fatalf("MinRecLSN after clean: %v", got)
	}
	st.MarkClean(p1.ID())
	if got := st.MinRecLSN(); got != lsn.Undefined {
		t.Fatalf("empty DPT MinRecLSN: %v", got)
	}
}

func TestStoreGetOrCreate(t *testing.T) {
	st := NewStore()
	p, err := st.GetOrCreate(500)
	if err != nil {
		t.Fatal(err)
	}
	if p.ID() != 500 {
		t.Fatalf("page id %d", p.ID())
	}
	if q, _ := st.GetOrCreate(500); q != p {
		t.Fatal("GetOrCreate not idempotent")
	}
	// The allocator must now hand out IDs above 500.
	if np := st.Allocate(1); np.ID() <= 500 {
		t.Fatalf("allocator reused ID space: %d", np.ID())
	}
}

func TestArchiveRoundTrip(t *testing.T) {
	st := NewStore()
	h := NewHeapFile(st, 1, "t")
	cl := &countingLog{st: st}
	rid, _ := h.Insert([]byte("archived row"), cl.log)

	arch := NewMemArchive()
	// WAL rule: nothing archived if durability hasn't reached pageLSN.
	if n := st.ArchiveDirtyPages(arch, 0); n != 0 {
		t.Fatalf("archived %d pages below durable horizon", n)
	}
	if n := st.ArchiveDirtyPages(arch, 1<<40); n != 1 {
		t.Fatalf("archived %d pages, want 1", n)
	}
	if len(st.DirtyPages()) != 0 {
		t.Fatal("DPT not cleaned after archive")
	}

	// Restart: a fresh store faults the page from the archive.
	st2 := NewStore()
	if err := st2.SetBackend(arch); err != nil {
		t.Fatal(err)
	}
	p, err := st2.Get(rid.Page)
	if err != nil || p == nil {
		t.Fatalf("page missing after restore: %v", err)
	}
	got, err := p.Get(int(rid.Slot))
	if err != nil || string(got) != "archived row" {
		t.Fatalf("restored row: %q %v", got, err)
	}
}

func TestRIDPack(t *testing.T) {
	r := RID{Page: 123456, Slot: 789}
	if got := UnpackRID(r.Pack()); got != r {
		t.Fatalf("pack round trip: %+v", got)
	}
}

// TestHeapLeavesDirtyPagesToTheLog: the LogFunc registers each page in
// the dirty-page table, once per logged change, and the heap adds no
// registration of its own. So a page's recLSN is the start of the first
// record that dirtied it, whatever followed on the page, and a change
// whose callback registers nothing leaves the table empty.
func TestHeapLeavesDirtyPagesToTheLog(t *testing.T) {
	st := NewStore()
	h := NewHeapFile(st, 1, "t")
	cl := &countingLog{st: st}
	var rids []RID
	for i := 0; i < 40; i++ { // 1000-byte rows: five pages
		rid, err := h.Insert(make([]byte, 1000), cl.log)
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	for _, rid := range rids[:20] {
		if err := h.Mutate(rid, cl.log, func(cur []byte) ([]byte, error) {
			return append([]byte{1}, cur[1:]...), nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	for _, rid := range rids[10:30] {
		if err := h.Delete(rid, cl.log); err != nil {
			t.Fatal(err)
		}
	}
	want := map[uint64]lsn.LSN{}
	for i, pid := range cl.pids {
		if _, ok := want[pid]; !ok {
			want[pid] = lsn.LSN(48 * i) // countingLog's start of record i
		}
	}
	dpt := st.DirtyPages()
	if len(dpt) != len(want) || len(want) < 5 {
		t.Fatalf("%d dirty pages, %d pages logged", len(dpt), len(want))
	}
	for _, e := range dpt {
		if e.RecLSN != want[e.PageID] {
			t.Fatalf("page %d: recLSN %v, its first record starts at %v", e.PageID, e.RecLSN, want[e.PageID])
		}
	}

	for _, e := range dpt {
		st.MarkClean(e.PageID)
	}
	if _, err := h.Insert(make([]byte, 1000), nopLog); err != nil {
		t.Fatal(err)
	}
	if err := h.Mutate(rids[0], nopLog, func(cur []byte) ([]byte, error) { return cur, nil }); err != nil {
		t.Fatal(err)
	}
	if err := h.Delete(rids[0], nopLog); err != nil {
		t.Fatal(err)
	}
	if dpt := st.DirtyPages(); len(dpt) != 0 {
		t.Fatalf("the heap registered %d pages itself", len(dpt))
	}
}
