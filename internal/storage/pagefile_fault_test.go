package storage

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"aether/internal/vfs"
)

// openPFFault opens a pagefile over fs at /db/pagefile.db, creating
// the directory on first use.
func openPFFault(t *testing.T, fs vfs.FS) *PageFile {
	t.Helper()
	if err := fs.MkdirAll("/db", 0o755); err != nil {
		t.Fatal(err)
	}
	pf, err := OpenPageFileFS(fs, "/db/pagefile.db")
	if err != nil {
		t.Fatal(err)
	}
	return pf
}

// A tear mask says which 512-byte sectors of one unsynced write survive
// a power cut; FaultFS asks for one per unsynced write of every file,
// oldest first.
var (
	tearDropped = func(sectors int) []bool { return nil }
	// tearHead keeps each write's first half — and so all of a
	// one-sector write, the commit record.
	tearHead = func(sectors int) []bool {
		m := make([]bool, sectors)
		for i := 0; i < (sectors+1)/2; i++ {
			m[i] = true
		}
		return m
	}
	// tearTail keeps each write's second half — and so nothing of a
	// one-sector write.
	tearTail = func(sectors int) []bool {
		m := make([]bool, sectors)
		for i := (sectors + 1) / 2; i < sectors; i++ {
			m[i] = true
		}
		return m
	}
	tearNothing = func(sectors int) []bool {
		m := make([]bool, sectors)
		for i := range m {
			m[i] = true
		}
		return m
	}
)

// leftovers lists the used slots above the file's commit watermark: what
// a batch that never committed left behind.
func leftovers(t *testing.T, fs vfs.FS) []uint64 {
	t.Helper()
	raw, err := fs.ReadFile("/db/pagefile.db")
	if err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(raw)
	v, _, err := readCommit(r)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scanSlots(r, int64(len(raw)), v)
	if err != nil {
		t.Fatal(err)
	}
	return sc.uncommitted
}

// fileWrites counts the operations that change the pagefile.
func fileWrites(fs *vfs.FaultFS) int64 {
	ops := fs.OpCounts()
	return ops[vfs.OpWrite] + ops[vfs.OpTruncate] + ops[vfs.OpSync]
}

// expectPages checks that pf serves want[pid] for every page of want and
// nothing for the pages of absent.
func expectPages(t *testing.T, pf *PageFile, want map[uint64][]byte, absent []uint64, what string) {
	t.Helper()
	for pid, img := range want {
		if got, err := pf.Get(pid); err != nil || !bytes.Equal(got, img) {
			t.Fatalf("%s: page %d is not the expected image (err=%v)", what, pid, err)
		}
	}
	for _, pid := range absent {
		if got, err := pf.Get(pid); err != nil || got != nil {
			t.Fatalf("%s: page %d exists (err=%v), but only the uncommitted batch wrote it", what, pid, err)
		}
	}
}

// batchCut is one way for batch B to lose power.
type batchCut struct {
	name string
	rule vfs.Rule
	tear func(sectors int) []bool
	// wantB says reopen must serve B; otherwise it must serve A.
	wantB bool
}

// pagefileRule aims r at the pagefile as a power cut.
func pagefileRule(r vfs.Rule) vfs.Rule {
	r.Dir, r.Path, r.Cut = "/db", "pagefile.db", true
	return r
}

// TestPageFileBatchCuts cuts power inside batch B at every kind of write
// and sync it is made of — an image write into a freed slot, one past
// the end of the file, the data fsync, the commit write and the commit
// fsync — with nothing, the head or the tail of every unsynced write
// persisting, and checks the copy-on-write contract on reopen:
//
//   - the file serves A whole or B whole, never a mix: every page of the
//     served batch has that batch's image, a page only A wrote keeps it,
//     and B's new pages exist only if B is served. B is served exactly
//     when its commit sector persisted;
//   - whatever B left above the watermark is cleared, and Cleared counts
//     it;
//   - a second reopen writes nothing;
//   - a later batch whose watermark covers the cleared versions leaves
//     the served images alone.
//
// A is two batches, so B's pages land both in slots A freed — single
// writes, one per hole — and past the end, coalesced.
func TestPageFileBatchCuts(t *testing.T) {
	var a0, a1, b, c []PageImage
	for pid := uint64(1); pid <= 100; pid++ {
		a0 = append(a0, PageImage{PID: pid, Img: pfTestImage(pid, 0xA0)})
		if pid%3 == 1 {
			a1 = append(a1, PageImage{PID: pid, Img: pfTestImage(pid, 0xA1)})
		}
	}
	for pid := uint64(1); pid <= 112; pid++ {
		if pid%10 != 0 {
			b = append(b, PageImage{PID: pid, Img: pfTestImage(pid, 0xB0)})
		}
	}
	for pid := uint64(1001); pid <= 1120; pid++ {
		c = append(c, PageImage{PID: pid, Img: pfTestImage(pid, 0xC0)})
	}
	if len(c) <= len(b) {
		t.Fatalf("batch C (%d pages) must carry the watermark past every version B used (%d)", len(c), len(b))
	}
	stateA := make(map[uint64][]byte)
	for _, batch := range [][]PageImage{a0, a1} {
		for _, pi := range batch {
			stateA[pi.PID] = pi.Img
		}
	}
	stateB := make(map[uint64][]byte)
	for pid, img := range stateA {
		stateB[pid] = img
	}
	var onlyB []uint64
	for _, pi := range b {
		if stateA[pi.PID] == nil {
			onlyB = append(onlyB, pi.PID)
		}
		stateB[pi.PID] = pi.Img
	}
	holes := len(a1) // B's first writes go one slot at a time into the slots A1 freed

	cuts := []struct {
		name string
		rule vfs.Rule
		// committing says the commit record was written when the cut fell.
		committing bool
	}{
		{"cut on an image write into a freed slot", vfs.Rule{Op: vfs.OpWrite, After: 5}, false},
		{"cut on an image write past the end", vfs.Rule{Op: vfs.OpWrite, After: holes + 1}, false},
		{"cut on the data fsync", vfs.Rule{Op: vfs.OpSync}, false},
		{"cut on the commit write", vfs.Rule{Op: vfs.OpWrite, OffBelow: pfHeaderSize}, true},
		{"cut on the commit fsync", vfs.Rule{Op: vfs.OpSync, After: 1}, true},
	}
	tears := []struct {
		name string
		tear func(sectors int) []bool
		// keepsSector says the tear keeps a one-sector write whole.
		keepsSector bool
	}{{"dropped whole", tearDropped, false}, {"head persists", tearHead, true}, {"tail persists", tearTail, false}}
	var table []batchCut
	for _, cut := range cuts {
		for _, tr := range tears {
			table = append(table, batchCut{name: cut.name + ", " + tr.name, rule: pagefileRule(cut.rule),
				tear: tr.tear, wantB: cut.committing && tr.keepsSector})
		}
	}
	table = append(table, batchCut{name: "cut on the commit fsync, everything persists",
		rule: pagefileRule(vfs.Rule{Op: vfs.OpSync, After: 1}), tear: tearNothing, wantB: true})

	for _, cut := range table {
		cut := cut
		t.Run(cut.name, func(t *testing.T) {
			fs := vfs.NewFaultFS(1)
			fs.SetTornWrites(true)
			pf := openPFFault(t, fs)
			for _, batch := range [][]PageImage{a0, a1} {
				if err := pf.PutBatch(batch); err != nil {
					t.Fatal(err)
				}
			}
			rule := fs.AddRule(cut.rule)
			fs.SetTearMask(func(_ string, sectors int) []bool { return cut.tear(sectors) })
			if err := pf.PutBatch(b); !errors.Is(err, vfs.ErrPowerCut) {
				t.Fatalf("PutBatch under cut: err=%v, want ErrPowerCut", err)
			}
			if fired := fs.RuleStats()[rule].Fired; fired != 1 {
				t.Fatalf("the cut fired %d times", fired)
			}
			pf.Close()
			fs.ClearRules()
			fs.Recover() // tears by the mask, which is therefore cleared after
			fs.SetTearMask(nil)
			left := leftovers(t, fs)
			t.Logf("%d slots left above the watermark", len(left))
			if cut.wantB && len(left) != 0 {
				t.Fatalf("B committed, yet %d slots lie above the watermark", len(left))
			}

			pf2 := openPFFault(t, fs)
			want, absent, name := stateA, onlyB, "A"
			if cut.wantB {
				want, absent, name = stateB, nil, "B"
			}
			expectPages(t, pf2, want, absent, "after the cut, serving "+name)
			if pf2.Cleared() != len(left) {
				t.Errorf("reopen cleared %d slots, %d were left above the watermark", pf2.Cleared(), len(left))
			}
			if l := leftovers(t, fs); len(l) != 0 {
				t.Fatalf("reopen left %d slots above the watermark", len(l))
			}
			pf2.Close()

			w := fileWrites(fs)
			pf3 := openPFFault(t, fs)
			if got := fileWrites(fs) - w; got != 0 || pf3.Cleared() != 0 {
				t.Fatalf("second reopen issued %d writes/truncates/syncs and cleared %d slots, want none", got, pf3.Cleared())
			}
			if err := pf3.PutBatch(c); err != nil {
				t.Fatal(err)
			}
			pf3.Close()
			pf4 := openPFFault(t, fs)
			defer pf4.Close()
			expectPages(t, pf4, want, absent, "after a later batch, serving "+name)
		})
	}
}

// TestPageFileTornBatchThenOverwrite: after recovering from a batch cut
// mid-write, the pagefile accepts new batches and keeps them across a
// clean reopen — the torn batch leaves no residue.
func TestPageFileTornBatchThenOverwrite(t *testing.T) {
	fs := vfs.NewFaultFS(1)
	fs.SetTornWrites(true)
	pf := openPFFault(t, fs)
	if err := pf.PutBatch([]PageImage{{PID: 9, Img: pfTestImage(9, 0x0A)}}); err != nil {
		t.Fatal(err)
	}
	fs.AddRule(pagefileRule(vfs.Rule{Op: vfs.OpWrite}))
	if err := pf.Put(9, pfTestImage(9, 0x0B)); !errors.Is(err, vfs.ErrPowerCut) {
		t.Fatalf("Put under cut: %v", err)
	}
	pf.Close()
	fs.ClearRules()
	fs.Recover()

	pf2 := openPFFault(t, fs)
	v3 := pfTestImage(9, 0x0C)
	if err := pf2.Put(9, v3); err != nil {
		t.Fatalf("Put after recovery: %v", err)
	}
	pf2.Close()

	pf3 := openPFFault(t, fs)
	defer pf3.Close()
	if got, err := pf3.Get(9); err != nil || !bytes.Equal(got, v3) {
		t.Fatalf("post-recovery batch lost: err=%v", err)
	}
}

// TestPageFileFailedBatchFailsFile: a batch whose data fsync fails leaves
// the file failed. Every later batch returns that error — a retry could
// commit over the failed batch's leftovers, or over pages a failed fsync
// dropped — while reads keep serving the committed images. Reopening is
// the repair: it clears the leftovers, and batches work again.
func TestPageFileFailedBatchFailsFile(t *testing.T) {
	fs := vfs.NewFaultFS(1)
	pf := openPFFault(t, fs)
	var a, b []PageImage
	for pid := uint64(1); pid <= 4; pid++ {
		a = append(a, PageImage{PID: pid, Img: pfTestImage(pid, 0x0A)})
		b = append(b, PageImage{PID: pid, Img: pfTestImage(pid, 0x0B)})
	}
	b = append(b, PageImage{PID: 5, Img: pfTestImage(5, 0x0B)})
	stateA := map[uint64][]byte{}
	for _, pi := range a {
		stateA[pi.PID] = pi.Img
	}
	if err := pf.PutBatch(a); err != nil {
		t.Fatal(err)
	}
	fs.AddRule(vfs.Rule{Op: vfs.OpSync, Dir: "/db", Path: "pagefile.db", Times: 1})
	if err := pf.PutBatch(b); !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("PutBatch with a failing fsync = %v, want the injected error", err)
	}
	fsyncs := pf.Fsyncs()
	if err := pf.Put(6, pfTestImage(6, 0x0C)); !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("batch after the failure = %v, want the first batch's error", err)
	}
	if pf.Fsyncs() != fsyncs {
		t.Fatal("a batch on a failed file reached the disk")
	}
	expectPages(t, pf, stateA, []uint64{5, 6}, "failed file")
	pf.Close()

	pf2 := openPFFault(t, fs)
	defer pf2.Close()
	if pf2.Cleared() != len(b) {
		t.Errorf("reopen cleared %d slots, want the failed batch's %d", pf2.Cleared(), len(b))
	}
	expectPages(t, pf2, stateA, []uint64{5, 6}, "reopened")
	if err := pf2.PutBatch(b); err != nil {
		t.Fatalf("batch after the reopen: %v", err)
	}
	if got, err := pf2.Get(5); err != nil || !bytes.Equal(got, b[4].Img) {
		t.Fatalf("page 5 after the retried batch: err=%v", err)
	}
}

// TestPageFileGoldenBytes pins the on-disk bytes of pagefile format 2:
// the file after a first batch, after a second that rewrites two of its
// pages into new slots and adds one, and after a third whose page takes
// the lowest slot the second freed — commit records alternating between
// the two sectors. Batches are deliberately not in page-ID order: slots
// and versions follow page IDs.
func TestPageFileGoldenBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pagefile.db")
	sum := func() string {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%d bytes %x", len(raw), sha256.Sum256(raw))
	}
	pf := openPF(t, path)
	for _, step := range []struct {
		batch []PageImage
		want  string
	}{
		{[]PageImage{
			{PID: 42, Img: pfTestImage(42, 0xAA)},
			{PID: 7, Img: pfTestImage(7, 0xBB)},
			{PID: 99, Img: pfTestImage(99, 0xCC)},
		}, "28768 bytes ca6d30929e5ec587784f10f1d7e7ca63ef934c97ba198581697e9ddd0059b923"},
		{[]PageImage{
			{PID: 5, Img: pfTestImage(5, 0xDD)},
			{PID: 99, Img: pfTestImage(99, 0xEE)},
			{PID: 42, Img: pfTestImage(42, 0xFF)},
		}, "53440 bytes a48f7403bc2f49b1951a7d4e29d86d347530bc56c7325cf1ad21731e5ac85b53"},
		{[]PageImage{{PID: 7, Img: pfTestImage(7, 0x77)}}, "53440 bytes a14feb7c329b0c23298adc61f96bb57f3cbc7dfe4c546ab2473d8fa950e1e8aa"},
	} {
		if err := pf.PutBatch(step.batch); err != nil {
			t.Fatal(err)
		}
		if got := sum(); got != step.want {
			t.Errorf("pagefile after batch of %d pages:\n got %s\nwant %s", len(step.batch), got, step.want)
		}
	}
	want := []SlotInfo{{1, 7, 7}, {3, 5, 4}, {4, 42, 5}, {5, 99, 6}}
	if got := pf.Slots(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("live slots %v, want %v", got, want)
	}
}
