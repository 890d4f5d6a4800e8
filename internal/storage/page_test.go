package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"aether/internal/logrec"
	"aether/internal/lsn"
)

func TestPageBasics(t *testing.T) {
	p := NewPage(7)
	if p.ID() != 7 || p.LSN() != lsn.Zero || p.NumSlots() != 0 {
		t.Fatalf("fresh page wrong: id=%d lsn=%v slots=%d", p.ID(), p.LSN(), p.NumSlots())
	}
	p.SetLSN(999)
	if p.LSN() != 999 {
		t.Fatal("SetLSN failed")
	}
}

func TestPageInsertGetSetDelete(t *testing.T) {
	p := NewPage(1)
	slot := p.FindInsertSlot()
	if slot != 0 {
		t.Fatalf("first slot %d", slot)
	}
	if err := p.Insert(slot, []byte("alpha")); err != nil {
		t.Fatal(err)
	}
	got, err := p.Get(0)
	if err != nil || string(got) != "alpha" {
		t.Fatalf("Get: %q %v", got, err)
	}
	if err := p.Set(0, []byte("beta!")); err != nil {
		t.Fatal(err)
	}
	got, _ = p.Get(0)
	if string(got) != "beta!" {
		t.Fatalf("after Set: %q", got)
	}
	// Grow in place.
	if err := p.Set(0, []byte("a much longer record than before")); err != nil {
		t.Fatal(err)
	}
	got, _ = p.Get(0)
	if string(got) != "a much longer record than before" {
		t.Fatalf("after grow: %q", got)
	}
	if err := p.Delete(0); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Get(0); !errors.Is(err, ErrDeadSlot) {
		t.Fatalf("Get dead: %v", err)
	}
	// Slot is reusable.
	if s := p.FindInsertSlot(); s != 0 {
		t.Fatalf("dead slot not reused: %d", s)
	}
}

func TestPageErrors(t *testing.T) {
	p := NewPage(1)
	if _, err := p.Get(5); !errors.Is(err, ErrBadSlot) {
		t.Fatal(err)
	}
	if err := p.Set(0, []byte("x")); !errors.Is(err, ErrBadSlot) {
		t.Fatal(err)
	}
	if err := p.Delete(0); !errors.Is(err, ErrBadSlot) {
		t.Fatal(err)
	}
	if err := p.Insert(0, make([]byte, MaxRecordSize+1)); !errors.Is(err, ErrRecordTooBig) {
		t.Fatal(err)
	}
	p.Insert(0, []byte("x"))
	if err := p.Insert(0, []byte("y")); err == nil {
		t.Fatal("insert into live slot must fail")
	}
	p.Delete(0)
	if err := p.Delete(0); !errors.Is(err, ErrDeadSlot) {
		t.Fatal(err)
	}
}

func TestPageFillsUp(t *testing.T) {
	p := NewPage(1)
	rec := make([]byte, 100)
	n := 0
	for {
		slot := p.FindInsertSlot()
		if !p.CanFit(slot, len(rec)) {
			break
		}
		if err := p.Insert(slot, rec); err != nil {
			t.Fatalf("insert %d: %v", n, err)
		}
		n++
	}
	// 8KB page, 100B records + 4B slots: expect ~78 records.
	if n < 70 || n > 82 {
		t.Fatalf("page held %d 100B records", n)
	}
	if err := p.Insert(p.NumSlots(), rec); !errors.Is(err, ErrPageFull) {
		t.Fatalf("overfull insert: %v", err)
	}
}

func TestPageCompaction(t *testing.T) {
	p := NewPage(1)
	// Fill, delete every other record, then insert records that only fit
	// after compaction.
	var slots []int
	rec := make([]byte, 200)
	for {
		s := p.FindInsertSlot()
		if !p.CanFit(s, len(rec)) {
			break
		}
		p.Insert(s, rec)
		slots = append(slots, s)
	}
	for i := 0; i < len(slots); i += 2 {
		p.Delete(slots[i])
	}
	// A 300B record does not fit in contiguous free space but fits after
	// compaction (we freed ~half the page).
	big := bytes.Repeat([]byte("z"), 300)
	s := p.FindInsertSlot()
	if !p.CanFit(s, len(big)) {
		t.Fatal("CanFit should see reclaimable space")
	}
	if err := p.Insert(s, big); err != nil {
		t.Fatalf("insert after compaction: %v", err)
	}
	got, err := p.Get(s)
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("big record mangled: %v", err)
	}
	// Survivors intact.
	for i := 1; i < len(slots); i += 2 {
		got, err := p.Get(slots[i])
		if err != nil || !bytes.Equal(got, rec) {
			t.Fatalf("survivor %d mangled: %v", slots[i], err)
		}
	}
}

func TestPageSetGrowWithCompaction(t *testing.T) {
	p := NewPage(1)
	rec := make([]byte, 500)
	var slots []int
	for {
		s := p.FindInsertSlot()
		if !p.CanFit(s, len(rec)) {
			break
		}
		p.Insert(s, rec)
		slots = append(slots, s)
	}
	// Free one record's worth, then grow another into that space.
	p.Delete(slots[0])
	grown := make([]byte, 900)
	for i := range grown {
		grown[i] = 0xAB
	}
	if err := p.Set(slots[1], grown); err != nil {
		t.Fatalf("grow with compaction: %v", err)
	}
	got, _ := p.Get(slots[1])
	if !bytes.Equal(got, grown) {
		t.Fatal("grown record mangled")
	}
}

// TestPageApplySplice: for every shape of change — all of the row, none
// of it, its first or last byte, a longer or a shorter row — applying
// the splice makes the new row, applying its inverse restores the page
// byte for byte (a same-length splice is patched where the row stands, so
// nothing else on the page may move), and a splice naming bytes the row
// does not have errors without touching the page.
func TestPageApplySplice(t *testing.T) {
	base := bytes.Repeat([]byte("0123456789"), 10)
	edit := func(f func(r []byte) []byte) []byte { return f(append([]byte(nil), base...)) }
	for _, tc := range []struct {
		name    string
		after   []byte
		inPlace bool
	}{
		{"all changed", bytes.Repeat([]byte("x"), 100), true},
		{"nothing changed", base, true},
		{"byte 0", edit(func(r []byte) []byte { r[0] = 'x'; return r }), true},
		{"last byte", edit(func(r []byte) []byte { r[99] = 'x'; return r }), true},
		{"8-byte field", edit(func(r []byte) []byte { copy(r[8:16], "ABCDEFGH"); return r }), true},
		{"grow", edit(func(r []byte) []byte { return append(r[:50], append([]byte("inserted"), r[50:]...)...) }), false},
		{"shrink", edit(func(r []byte) []byte { return append(r[:20], r[70:]...) }), false},
		{"shrink to nothing", nil, false},
	} {
		p := NewPage(1)
		for slot, row := range [][]byte{[]byte("left neighbour"), base, []byte("right neighbour")} {
			if err := p.Insert(slot, row); err != nil {
				t.Fatal(err)
			}
		}
		orig := p.Snapshot()
		up := logrec.Splice(nil, 1, base, tc.after)
		if err := p.Apply(up, 10); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got, _ := p.Get(1); !bytes.Equal(got, tc.after) {
			t.Fatalf("%s: row is %q, want %q", tc.name, got, tc.after)
		}
		for slot, want := range map[int]string{0: "left neighbour", 2: "right neighbour"} {
			if got, _ := p.Get(slot); string(got) != want {
				t.Fatalf("%s: slot %d became %q", tc.name, slot, got)
			}
		}
		if err := p.Apply(up.Inverse(), 0); err != nil {
			t.Fatalf("%s: inverse: %v", tc.name, err)
		}
		if tc.inPlace {
			if !bytes.Equal(p.Snapshot(), orig) {
				t.Fatalf("%s: apply then inverse did not restore the page image", tc.name)
			}
		} else if got, _ := p.Get(1); !bytes.Equal(got, base) {
			// The row moved to fresh space; its bytes are what must be back.
			t.Fatalf("%s: after the inverse the row is %q", tc.name, got)
		}

		// One byte past the row's end, same length and not: refused, and
		// the page — stamp included — is as it was.
		before := p.Snapshot()
		for _, bad := range []logrec.UpdatePayload{
			{Op: logrec.OpSet, Slot: 1, Off: 93, X: []byte("\x013456789")},
			{Op: logrec.OpSet, Slot: 1, Off: 101, Tail: []byte("tail"), Delta: 4},
			{Op: logrec.OpSet, Slot: 0, Off: 10, Tail: []byte("bour?"), Delta: -5},
			{Op: logrec.OpSet, Slot: 1, Off: 0, Tail: []byte("ab"), Delta: 3}, // a tail that is not |Delta| bytes
		} {
			if err := p.Apply(bad, 99); !errors.Is(err, ErrBadSplice) {
				t.Fatalf("%s: splice at %d of slot %d, X %d bytes, Delta %d: got %v, want ErrBadSplice", tc.name, bad.Off, bad.Slot, len(bad.X), bad.Delta, err)
			}
			if !bytes.Equal(p.Snapshot(), before) {
				t.Fatalf("%s: a refused splice changed the page", tc.name)
			}
		}
	}
}

// TestSpliceRoundTripOnPage: for random row pairs of every shape an
// update makes — the same length, grown, shrunk, identical, changed at
// the first or the last byte, an 8-byte balance that changes sign — the
// splice between them goes through the codec (Splice, Encode,
// DecodeUpdate) and, applied to a page holding the before row, makes the
// after row; its inverse, applied after it, gives the before row back.
// Neighbouring rows are untouched throughout.
func TestSpliceRoundTripOnPage(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	randRow := func(n int) []byte {
		r := make([]byte, n)
		rng.Read(r)
		return r
	}
	shapes := []struct {
		name string
		make func() (before, after []byte)
	}{
		{"same length", func() ([]byte, []byte) {
			b := randRow(1 + rng.Intn(200))
			a := append([]byte(nil), b...)
			for i := rng.Intn(len(a)); i < len(a) && rng.Intn(4) > 0; i++ {
				a[i] = byte(rng.Intn(256))
			}
			return b, a
		}},
		{"grow", func() ([]byte, []byte) {
			b := randRow(rng.Intn(200))
			at := rng.Intn(len(b) + 1)
			return b, append(append(append([]byte(nil), b[:at]...), randRow(1+rng.Intn(40))...), b[at:]...)
		}},
		{"shrink", func() ([]byte, []byte) {
			b := randRow(1 + rng.Intn(200))
			at := rng.Intn(len(b))
			cut := at + 1 + rng.Intn(len(b)-at)
			return b, append(append([]byte(nil), b[:at]...), b[cut:]...)
		}},
		{"identical", func() ([]byte, []byte) {
			b := randRow(rng.Intn(200))
			return b, append([]byte(nil), b...)
		}},
		{"first byte", func() ([]byte, []byte) {
			b := randRow(1 + rng.Intn(200))
			a := append([]byte(nil), b...)
			a[0] ^= byte(1 + rng.Intn(255))
			return b, a
		}},
		{"last byte", func() ([]byte, []byte) {
			b := randRow(1 + rng.Intn(200))
			a := append([]byte(nil), b...)
			a[len(a)-1] ^= byte(1 + rng.Intn(255))
			return b, a
		}},
		{"int64 changes sign", func() ([]byte, []byte) {
			b := randRow(100)
			v := int64(1 + rng.Intn(1_000_000))
			binary.LittleEndian.PutUint64(b[8:], uint64(v))
			a := append([]byte(nil), b...)
			binary.LittleEndian.PutUint64(a[8:], uint64(-v-int64(rng.Intn(1000))))
			return b, a
		}},
	}
	var x []byte
	for _, sh := range shapes {
		for i := 0; i < 200; i++ {
			before, after := sh.make()
			up := logrec.Splice(x, 1, before, after)
			x = up.X
			enc := up.Encode(nil)
			dec, err := logrec.DecodeUpdate(enc)
			if err != nil {
				t.Fatalf("%s: %x → %x: decode: %v", sh.name, before, after, err)
			}
			if again := dec.Encode(nil); !bytes.Equal(again, enc) {
				t.Fatalf("%s: re-encoded %x, want %x", sh.name, again, enc)
			}
			p := NewPage(1)
			for slot, row := range [][]byte{[]byte("left"), before, []byte("right")} {
				if err := p.Insert(slot, row); err != nil {
					t.Fatal(err)
				}
			}
			if err := p.Apply(dec, 10); err != nil {
				t.Fatalf("%s: %x → %x: apply: %v", sh.name, before, after, err)
			}
			if got, _ := p.Get(1); !bytes.Equal(got, after) {
				t.Fatalf("%s: applied %x to %x: got %x, want %x", sh.name, enc, before, got, after)
			}
			if err := p.Apply(dec.Inverse(), 11); err != nil {
				t.Fatalf("%s: %x → %x: inverse: %v", sh.name, before, after, err)
			}
			if got, _ := p.Get(1); !bytes.Equal(got, before) {
				t.Fatalf("%s: inverse of %x on %x: got %x, want %x", sh.name, enc, after, got, before)
			}
			for slot, want := range map[int]string{0: "left", 2: "right"} {
				if got, _ := p.Get(slot); string(got) != want {
					t.Fatalf("%s: slot %d became %q", sh.name, slot, got)
				}
			}
		}
	}
}

func TestPageApplyRoundTrip(t *testing.T) {
	p := NewPage(1)
	ins := logrec.UpdatePayload{Op: logrec.OpInsert, Slot: 0, After: []byte("row-v1")}
	if err := p.Apply(ins, 100); err != nil {
		t.Fatal(err)
	}
	if p.LSN() != 100 {
		t.Fatal("pageLSN not stamped")
	}
	set := logrec.Splice(nil, 0, []byte("row-v1"), []byte("row-v2"))
	if err := p.Apply(set, 200); err != nil {
		t.Fatal(err)
	}
	got, _ := p.Get(0)
	if string(got) != "row-v2" {
		t.Fatalf("after set: %q", got)
	}
	// Undo via inverse.
	if err := p.Apply(set.Inverse(), 300); err != nil {
		t.Fatal(err)
	}
	got, _ = p.Get(0)
	if string(got) != "row-v1" || p.LSN() != 300 {
		t.Fatalf("after undo: %q lsn=%v", got, p.LSN())
	}
	del := logrec.UpdatePayload{Op: logrec.OpDelete, Slot: 0, Before: []byte("row-v1")}
	if err := p.Apply(del, 400); err != nil {
		t.Fatal(err)
	}
	if err := p.Apply(del.Inverse(), 500); err != nil {
		t.Fatal(err)
	}
	got, _ = p.Get(0)
	if string(got) != "row-v1" {
		t.Fatalf("after delete undo: %q", got)
	}
}

// dirtyPage returns an empty page whose free space holds junk, so that a
// row applied to it shows any byte the apply did not write.
func dirtyPage(id uint64) *Page {
	img := NewPage(id).Snapshot()
	for i := hdrSize; i < PageSize; i++ {
		img[i] = 0xee
	}
	p := NewPage(id)
	if err := p.LoadSnapshot(img); err != nil {
		panic(err)
	}
	return p
}

// Property: a row with any zero tail goes through the log and back onto
// a page byte for byte — Encode, DecodeUpdate (which drops the tail) and
// Apply (which writes it) — as an insert, a delete, and the CLR of each.
func TestQuickRowImageApplies(t *testing.T) {
	roundTrip := func(u logrec.UpdatePayload) logrec.UpdatePayload {
		got, err := logrec.DecodeUpdate(u.Encode(nil))
		if err != nil {
			t.Fatalf("%v of a %d-byte row: %v", u.Op, max(len(u.Before), len(u.After)), err)
		}
		return got
	}
	f := func(head []byte, tail uint8, slot uint8) bool {
		row := append(append([]byte(nil), head...), make([]byte, tail)...)
		s := int(slot % 8)
		p := dirtyPage(1)
		ins := roundTrip(logrec.UpdatePayload{Op: logrec.OpInsert, Slot: uint16(s), After: row})
		if err := p.Apply(ins, 1); err != nil {
			t.Fatal(err)
		}
		got, err := p.Get(s)
		if err != nil || !bytes.Equal(got, row) {
			return false
		}
		if err := p.Apply(roundTrip(ins.Inverse()), 2); err != nil { // the insert's CLR
			t.Fatal(err)
		}
		if _, err := p.Get(s); !errors.Is(err, ErrDeadSlot) {
			return false
		}
		if err := p.Insert(s, row); err != nil {
			t.Fatal(err)
		}
		del := roundTrip(logrec.UpdatePayload{Op: logrec.OpDelete, Slot: uint16(s), Before: row})
		if err := p.Apply(del, 3); err != nil {
			t.Fatal(err)
		}
		if err := p.Apply(roundTrip(del.Inverse()), 4); err != nil { // the delete's CLR
			t.Fatal(err)
		}
		got, err = p.Get(s)
		return err == nil && bytes.Equal(got, row)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Redo, compensate and rollback apply decoded inserts: decoding one and
// applying it, zero tail and all, allocates nothing.
func TestApplyTrimmedInsertDoesNotAllocate(t *testing.T) {
	ins := logrec.UpdatePayload{Op: logrec.OpInsert, After: append([]byte("history row"), make([]byte, 89)...)}
	enc := ins.Encode(nil)
	empty := dirtyPage(1).Snapshot()
	p := NewPage(1)
	allocs := testing.AllocsPerRun(100, func() {
		if err := p.LoadSnapshot(empty); err != nil {
			t.Fatal(err)
		}
		up, err := logrec.DecodeUpdate(enc)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Apply(up, 1); err != nil {
			t.Fatal(err)
		}
	})
	if got, _ := p.Get(0); !bytes.Equal(got, ins.After) {
		t.Fatalf("applied row %q, want %q", got, ins.After)
	}
	if allocs != 0 {
		t.Fatalf("decode + apply of a trimmed insert allocate %.0f objects", allocs)
	}
}

func TestPageSnapshotRoundTrip(t *testing.T) {
	p := NewPage(42)
	p.Insert(0, []byte("persist me"))
	p.SetLSN(777)
	img := p.Snapshot()

	q := NewPage(0)
	if err := q.LoadSnapshot(img); err != nil {
		t.Fatal(err)
	}
	if q.ID() != 42 || q.LSN() != 777 {
		t.Fatalf("snapshot header: id=%d lsn=%v", q.ID(), q.LSN())
	}
	got, err := q.Get(0)
	if err != nil || string(got) != "persist me" {
		t.Fatalf("snapshot data: %q %v", got, err)
	}
	if err := q.LoadSnapshot([]byte("short")); err == nil {
		t.Fatal("short snapshot must fail")
	}
}

func TestPageInsertGrowsDirectoryForRedo(t *testing.T) {
	// Redo may apply an insert at slot 3 on a fresh page (earlier slots'
	// inserts were not logged because the page was archived after them,
	// then the archive lost... in any case Apply must be tolerant).
	p := NewPage(1)
	if err := p.Insert(3, []byte("late")); err != nil {
		t.Fatal(err)
	}
	if p.NumSlots() != 4 {
		t.Fatalf("slots: %d", p.NumSlots())
	}
	got, err := p.Get(3)
	if err != nil || string(got) != "late" {
		t.Fatalf("slot 3: %q %v", got, err)
	}
	for i := 0; i < 3; i++ {
		if _, err := p.Get(i); !errors.Is(err, ErrDeadSlot) {
			t.Fatalf("slot %d should be dead: %v", i, err)
		}
	}
}

// Property: a random sequence of insert/set/delete operations applied to
// a page matches a reference map implementation.
func TestQuickPageMatchesReference(t *testing.T) {
	type op struct {
		Kind byte
		Slot uint8
		Data []byte
	}
	f := func(ops []op) bool {
		p := NewPage(1)
		ref := map[int][]byte{}
		for _, o := range ops {
			if len(o.Data) > 600 {
				o.Data = o.Data[:600]
			}
			switch o.Kind % 3 {
			case 0: // insert at chosen slot
				slot := p.FindInsertSlot()
				if !p.CanFit(slot, len(o.Data)) {
					continue
				}
				if err := p.Insert(slot, o.Data); err != nil {
					return false
				}
				ref[slot] = append([]byte(nil), o.Data...)
			case 1: // set existing
				slot := int(o.Slot)
				if _, ok := ref[slot]; !ok {
					continue
				}
				err := p.Set(slot, o.Data)
				if err != nil {
					if errors.Is(err, ErrPageFull) {
						continue
					}
					return false
				}
				ref[slot] = append([]byte(nil), o.Data...)
			case 2: // delete existing
				slot := int(o.Slot)
				if _, ok := ref[slot]; !ok {
					continue
				}
				if err := p.Delete(slot); err != nil {
					return false
				}
				delete(ref, slot)
			}
		}
		// Compare all live slots.
		for slot, want := range ref {
			got, err := p.Get(slot)
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
		}
		// And dead/absent slots must not resurrect.
		for i := 0; i < p.NumSlots(); i++ {
			if _, ok := ref[i]; ok {
				continue
			}
			if _, err := p.Get(i); err == nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// fullScanSlot is the slot choice by definition: the first dead slot, or
// a fresh one.
func fullScanSlot(p *Page) int {
	for i := 0; i < p.NumSlots(); i++ {
		if off, _ := p.slotOffLen(i); off == deadOffset {
			return i
		}
	}
	return p.NumSlots()
}

// TestFindInsertSlotMatchesFullScan: over a random run of inserts,
// deletes, resizing sets, redo inserts past the directory's end and
// reloads from bytes, the page's first-free bound never makes
// FindInsertSlot pick another slot than a scan from slot 0.
func TestFindInsertSlotMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := NewPage(1)
	var live []int
	for step := 0; step < 20_000; step++ {
		if got, want := p.FindInsertSlot(), fullScanSlot(p); got != want {
			t.Fatalf("step %d: FindInsertSlot %d, full scan %d", step, got, want)
		}
		data := make([]byte, 1+rng.Intn(120))
		switch op := rng.Intn(10); {
		case op < 5: // insert where the heap would
			slot := p.FindInsertSlot()
			if !p.CanFit(slot, len(data)) {
				continue
			}
			if err := p.Insert(slot, data); err != nil {
				t.Fatalf("step %d: insert slot %d: %v", step, slot, err)
			}
			live = append(live, slot)
		case op < 8: // delete a live slot
			if len(live) == 0 {
				continue
			}
			i := rng.Intn(len(live))
			if err := p.Delete(live[i]); err != nil {
				t.Fatalf("step %d: delete slot %d: %v", step, live[i], err)
			}
			live = append(live[:i], live[i+1:]...)
		case op == 8: // resize a live row (may compact the page)
			if len(live) == 0 {
				continue
			}
			if err := p.Set(live[rng.Intn(len(live))], data); err != nil && !errors.Is(err, ErrPageFull) {
				t.Fatalf("step %d: set: %v", step, err)
			}
		default: // redo past the end, or rebuild the page from its bytes
			if rng.Intn(2) == 0 && p.NumSlots() < 200 && p.CanFit(p.NumSlots()+3, len(data)) {
				slot := p.NumSlots() + 1 + rng.Intn(3)
				if err := p.Insert(slot, data); err != nil {
					t.Fatalf("step %d: redo insert slot %d: %v", step, slot, err)
				}
				live = append(live, slot)
				continue
			}
			q := NewPage(1)
			if err := q.LoadSnapshot(p.Snapshot()); err != nil {
				t.Fatal(err)
			}
			p = q
		}
	}
}

// TestAppendOnlyHeapReadsNoSlotEntries: choosing an insert's slot on a
// heap whose rows never died reads at most two slot-directory entries,
// however many rows the heap holds.
func TestAppendOnlyHeapReadsNoSlotEntries(t *testing.T) {
	st := NewStore()
	h := NewHeapFile(st, 1, "t")
	row := make([]byte, 100)
	worst := uint64(0)
	for i := 1; i <= 20_000; i++ {
		before := h.SlotProbes()
		if _, err := h.Insert(row, nopLog); err != nil {
			t.Fatal(err)
		}
		worst = max(worst, h.SlotProbes()-before)
		if i == 100 || i == 20_000 {
			if worst > 2 {
				t.Fatalf("after %d rows: an insert read %d slot entries, want ≤ 2", i, worst)
			}
		}
	}
}
