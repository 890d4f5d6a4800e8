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
	// one-sector write, the journal header.
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

// journalCut is one way for batch B to lose power.
type journalCut struct {
	name string
	rule vfs.Rule
	tear func(sectors int) []bool
	// committed says the cut falls after B's journal fsync returned.
	committed bool
	// wantB says reopen must serve B; otherwise it must serve A.
	wantB bool
}

// runJournalCut writes batch A durably, cuts power during batch B as c
// says — tearing every unsynced write of every file the way c.tear
// says — and checks the double-write contract on reopen:
//
//   - the file serves A whole or B whole, never a mix: every page of the
//     served batch has that batch's image, a page only the other batch
//     wrote has the other's image (A) or is absent (B's new pages);
//   - a replay happens only for a journal whose batch CRC verifies, and
//     replays a whole batch — B's, or A's own journal resurfacing
//     because the unsynced truncation that retired it was lost, which
//     rewrites what the file already holds;
//   - before B's journal fsync returned, B may be served only if every
//     journal byte persisted; after it, B must be.
func runJournalCut(t *testing.T, a, b []PageImage, c journalCut) {
	fs := vfs.NewFaultFS(1)
	fs.SetTornWrites(true)
	pf := openPFFault(t, fs)
	if err := pf.PutBatch(a); err != nil {
		t.Fatal(err)
	}

	fs.AddRule(c.rule)
	fs.SetTearMask(func(_ string, sectors int) []bool { return c.tear(sectors) })
	if err := pf.PutBatch(b); !errors.Is(err, vfs.ErrPowerCut) {
		t.Fatalf("PutBatch under cut: err=%v, want ErrPowerCut", err)
	}
	pf.Close()
	fs.ClearRules()
	fs.Recover() // tears by the mask, which is therefore cleared after
	fs.SetTearMask(nil)

	pf2, err := OpenPageFileFS(fs, "/db/pagefile.db")
	if err != nil {
		t.Fatalf("reopen after cut: %v", err)
	}
	defer pf2.Close()
	switch n := pf2.JournalReplayed(); {
	case c.committed && n != len(b):
		t.Errorf("committed journal of %d pages: %d replayed", len(b), n)
	case n != 0 && n != len(a) && n != len(b):
		t.Errorf("replayed %d pages: neither batch A (%d) nor batch B (%d) whole", n, len(a), len(b))
	case !c.wantB && n != 0 && n != len(a):
		t.Errorf("replayed %d pages of a journal whose batch was not committed", n)
	}

	served, other, name := a, b, "A"
	if c.wantB {
		served, other, name = b, a, "B"
	}
	in := make(map[uint64]bool)
	for _, pi := range served {
		in[pi.PID] = true
		if got, err := pf2.Get(pi.PID); err != nil || !bytes.Equal(got, pi.Img) {
			t.Fatalf("page %d: not batch %s's image (err=%v)", pi.PID, name, err)
		}
	}
	for _, pi := range other {
		if in[pi.PID] {
			continue
		}
		got, err := pf2.Get(pi.PID)
		switch {
		case err != nil:
			t.Fatalf("page %d: %v", pi.PID, err)
		case c.wantB && !bytes.Equal(got, pi.Img):
			t.Fatalf("page %d, which batch B left alone, lost batch A's image", pi.PID)
		case !c.wantB && got != nil:
			t.Fatalf("page %d exists, but only the uncommitted batch B wrote it", pi.PID)
		}
	}
}

// journal and pagefile name the two files in fault rules.
func journalRule(r vfs.Rule) vfs.Rule {
	r.Dir, r.Path, r.Cut = "/db", "pagefile.db.journal", true
	return r
}

func pagefileRule(r vfs.Rule) vfs.Rule {
	r.Dir, r.Path, r.Cut = "/db", "pagefile.db", true
	return r
}

// TestPageFileJournalTornWrite drives the double-write protocol into
// power cuts on either side of its commit point (the journal fsync)
// with sector tearing, and checks the atomicity contract (see
// runJournalCut): a batch is all-or-nothing. Cut before the journal
// syncs — even if torn journal bytes persist — and reopen must serve the
// previous batch; cut after (during the in-place pass) and reopen must
// replay the journal and serve the new batch, however the in-place
// writes tore.
func TestPageFileJournalTornWrite(t *testing.T) {
	a := []PageImage{
		{PID: 1, Img: pfTestImage(1, 0x11)},
		{PID: 2, Img: pfTestImage(2, 0x22)},
		{PID: 3, Img: pfTestImage(3, 0x33)},
	}
	b := []PageImage{
		{PID: 1, Img: pfTestImage(1, 0x44)},
		{PID: 2, Img: pfTestImage(2, 0x55)},
		{PID: 3, Img: pfTestImage(3, 0x66)},
	}
	// A slot write with every other sector lost.
	alternate := func(sectors int) []bool {
		m := make([]bool, sectors)
		for i := range m {
			m[i] = i%2 == 0
		}
		return m
	}
	for _, c := range []journalCut{
		{name: "cut on journal write, dropped whole", rule: journalRule(vfs.Rule{Op: vfs.OpWrite}), tear: tearDropped},
		{name: "cut on journal write, torn head persists", rule: journalRule(vfs.Rule{Op: vfs.OpWrite}), tear: tearHead},
		{name: "cut on journal write, torn tail persists", rule: journalRule(vfs.Rule{Op: vfs.OpWrite}), tear: tearTail},
		// Every journal write is unsynced and dropped: what resurfaces
		// is batch A's own journal, whole — a legal, idempotent replay.
		{name: "cut on journal fsync", rule: journalRule(vfs.Rule{Op: vfs.OpSync}), tear: tearDropped},
		{name: "cut on in-place fsync after journal commit", rule: pagefileRule(vfs.Rule{Op: vfs.OpSync}), tear: tearDropped, committed: true, wantB: true},
		{name: "cut on in-place fsync, slot write torn", rule: pagefileRule(vfs.Rule{Op: vfs.OpSync}), tear: alternate, committed: true, wantB: true},
	} {
		c := c
		t.Run(c.name, func(t *testing.T) { runJournalCut(t, a, b, c) })
	}
}

// TestPageFileJournalTornChunks is the same contract for a journal
// written in several pieces: a batch more than three scratches long,
// cut on every kind of write and sync it is made of, each with nothing,
// the head or the tail of *every* unsynced write persisting. Batch B
// rewrites nine pages in ten of batch A's — so its in-place runs are
// short and many — and adds eleven pages of its own.
func TestPageFileJournalTornChunks(t *testing.T) {
	var a, b []PageImage
	for pid := uint64(1); pid <= 100; pid++ {
		a = append(a, PageImage{PID: pid, Img: pfTestImage(pid, 0xA0)})
	}
	for pid := uint64(1); pid <= 112; pid++ {
		if pid%10 != 0 {
			b = append(b, PageImage{PID: pid, Img: pfTestImage(pid, 0xB0)})
		}
	}
	if len(b) < 100 || len(b) <= 3*pfScratchEntries {
		t.Fatalf("batch B is %d pages: want at least 100 and more than three chunks of %d", len(b), pfScratchEntries)
	}
	cuts := []journalCut{
		{name: "cut on a middle chunk write", rule: journalRule(vfs.Rule{Op: vfs.OpWrite, After: 1})},
		{name: "cut on the header write", rule: journalRule(vfs.Rule{Op: vfs.OpWrite, OffBelow: pfJnlHdrSize})},
		{name: "cut on the journal fsync", rule: journalRule(vfs.Rule{Op: vfs.OpSync})},
		{name: "cut on the read-back", rule: journalRule(vfs.Rule{Op: vfs.OpRead, After: 1}), committed: true, wantB: true},
		{name: "cut on a middle in-place run", rule: pagefileRule(vfs.Rule{Op: vfs.OpWrite, After: 5}), committed: true, wantB: true},
		{name: "cut on the pagefile fsync", rule: pagefileRule(vfs.Rule{Op: vfs.OpSync}), committed: true, wantB: true},
	}
	tears := []struct {
		name string
		tear func(sectors int) []bool
	}{{"dropped whole", tearDropped}, {"head persists", tearHead}, {"tail persists", tearTail}}
	for _, c := range cuts {
		for _, tr := range tears {
			c := c
			c.name, c.tear = c.name+", "+tr.name, tr.tear
			t.Run(c.name, func(t *testing.T) { runJournalCut(t, a, b, c) })
		}
	}
	// The one way to serve an uncommitted B: the fsync never returned,
	// yet every byte it would have made durable persisted anyway.
	t.Run("cut on the journal fsync, everything persists", func(t *testing.T) {
		runJournalCut(t, a, b, journalCut{rule: journalRule(vfs.Rule{Op: vfs.OpSync}), tear: tearNothing, wantB: true})
	})
}

// TestPageFileFailedJournalFreesSlots: a batch of new pages whose journal
// phase fails (a transient write or sync error — a full disk, say) has
// written nothing in place, so the slots it reserved past the end of the
// file go back. Were they kept, a later, smaller batch holding one of its
// pages would journal a slot the replay bound — slots in the file plus
// entries in the batch — calls corrupt: phase 2 would fail, every later
// batch fail re-applying that journal, and every later Open refuse it.
func TestPageFileFailedJournalFreesSlots(t *testing.T) {
	const old = 3
	var batch []PageImage
	for pid := uint64(100); pid < 200; pid++ {
		batch = append(batch, PageImage{PID: pid, Img: pfTestImage(pid, 0xC0)})
	}
	for _, c := range []struct {
		name string
		rule vfs.Rule
	}{
		{"a middle chunk write fails", vfs.Rule{Op: vfs.OpWrite, After: 1, Times: 1}},
		{"the journal fsync fails", vfs.Rule{Op: vfs.OpSync, Times: 1}},
	} {
		t.Run(c.name, func(t *testing.T) {
			fs := vfs.NewFaultFS(1)
			pf := openPFFault(t, fs)
			for pid := uint64(1); pid <= old; pid++ {
				if err := pf.Put(pid, pfTestImage(pid, 0x0A)); err != nil {
					t.Fatal(err)
				}
			}
			c.rule.Dir, c.rule.Path = "/db", "pagefile.db.journal"
			fs.AddRule(c.rule)
			if err := pf.PutBatch(batch); !errors.Is(err, vfs.ErrInjected) {
				t.Fatalf("PutBatch = %v, want the injected failure", err)
			}
			if pf.nextSlot != old || len(pf.assigned) != 0 {
				t.Fatalf("after the failed batch: nextSlot %d with %d slots reserved, want %d and none", pf.nextSlot, len(pf.assigned), old)
			}
			// A steal of one of its later pages, then a cleaner pass over
			// sixteen more: each would have named slots far past the file.
			if err := pf.Put(batch[60].PID, batch[60].Img); err != nil {
				t.Fatalf("single-page batch after the failure: %v", err)
			}
			if err := pf.PutBatch(batch[70:86]); err != nil {
				t.Fatalf("16-page batch after the failure: %v", err)
			}
			// And one left committed but unapplied, for Open to replay.
			pf.crashAfterJournal = true
			if err := pf.PutBatch(batch[90:95]); err != ErrSimulatedCrash {
				t.Fatalf("PutBatch with crash point = %v, want ErrSimulatedCrash", err)
			}

			pf2, err := OpenPageFileFS(fs, "/db/pagefile.db")
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer pf2.Close()
			if n := pf2.JournalReplayed(); n != 5 {
				t.Errorf("reopen replayed %d pages, want 5", n)
			}
			written := append(append([]PageImage{batch[60]}, batch[70:86]...), batch[90:95]...)
			for _, pi := range written {
				if got, err := pf2.Get(pi.PID); err != nil || !bytes.Equal(got, pi.Img) {
					t.Fatalf("page %d after reopen: err=%v", pi.PID, err)
				}
			}
			if pages, err := pf2.Pages(); err != nil || len(pages) != old+len(written) {
				t.Fatalf("reopen holds %d pages (err=%v), want %d", len(pages), err, old+len(written))
			}
			if want := uint64(old + len(written)); pf2.nextSlot != want {
				t.Errorf("file is %d slots long, want %d: the failed batch left holes", pf2.nextSlot, want)
			}
		})
	}
}

// TestPageFileGoldenBytes pins the on-disk bytes: the pagefile after a
// batch, the journal of a committed three-page batch and the pagefile
// after that journal's replay hash to what the code before the streamed
// writer produced for the same calls (pagefile v1, journal v1) — so
// either version opens, and replays, what the other wrote. Batch B is
// deliberately not in slot order: versions follow the caller's order,
// entries the slots'.
func TestPageFileGoldenBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pagefile.db")
	sum := func(name string) string {
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%d bytes %x", len(raw), sha256.Sum256(raw))
	}
	pf := openPF(t, path)
	if err := pf.PutBatch([]PageImage{
		{PID: 42, Img: pfTestImage(42, 0xAA)},
		{PID: 7, Img: pfTestImage(7, 0xBB)},
		{PID: 99, Img: pfTestImage(99, 0xCC)},
	}); err != nil {
		t.Fatal(err)
	}
	if got, want := sum(path), "28768 bytes 9d06fb825313ec41521de308a9268c2dd46e18a7c3b21e670416583734f58d56"; got != want {
		t.Errorf("pagefile after batch A:\n got %s\nwant %s", got, want)
	}
	pf.crashAfterJournal = true
	if err := pf.PutBatch([]PageImage{
		{PID: 5, Img: pfTestImage(5, 0xDD)},
		{PID: 99, Img: pfTestImage(99, 0xEE)},
		{PID: 42, Img: pfTestImage(42, 0xFF)},
	}); err != ErrSimulatedCrash {
		t.Fatalf("PutBatch with crash point = %v, want ErrSimulatedCrash", err)
	}
	if got, want := sum(path+".journal"), "24704 bytes 6f620e93d54907ea27aa38d82ef55dd25d2fe05241de2a7d99293895b178573d"; got != want {
		t.Errorf("journal of batch B:\n got %s\nwant %s", got, want)
	}
	if n := openPF(t, path).JournalReplayed(); n != 3 {
		t.Fatalf("reopen replayed %d pages, want 3", n)
	}
	if got, want := sum(path), "36992 bytes 939b7b02af58cd602e55e0b9aad91fdc689747809fefeda9d91f8e557af4268f"; got != want {
		t.Errorf("pagefile after replaying batch B:\n got %s\nwant %s", got, want)
	}
}

// TestPageFileJournalTornThenOverwrite: after recovering from a torn
// journal the pagefile must accept new batches and keep them across a
// clean reopen — the half-written journal leaves no residue.
func TestPageFileJournalTornThenOverwrite(t *testing.T) {
	fs := vfs.NewFaultFS(1)
	fs.SetTornWrites(true)
	pf := openPFFault(t, fs)
	if err := pf.PutBatch([]PageImage{{PID: 9, Img: pfTestImage(9, 0x0A)}}); err != nil {
		t.Fatal(err)
	}
	fs.AddRule(vfs.Rule{Op: vfs.OpWrite, Dir: "/db", Path: "pagefile.db.journal", Cut: true})
	if err := pf.Put(9, pfTestImage(9, 0x0B)); !errors.Is(err, vfs.ErrPowerCut) {
		t.Fatalf("Put under cut: %v", err)
	}
	pf.Close()
	fs.ClearRules()
	fs.Recover()

	pf2, err := OpenPageFileFS(fs, "/db/pagefile.db")
	if err != nil {
		t.Fatal(err)
	}
	v3 := pfTestImage(9, 0x0C)
	if err := pf2.Put(9, v3); err != nil {
		t.Fatalf("Put after recovery: %v", err)
	}
	pf2.Close()

	pf3, err := OpenPageFileFS(fs, "/db/pagefile.db")
	if err != nil {
		t.Fatal(err)
	}
	defer pf3.Close()
	if got, err := pf3.Get(9); err != nil || !bytes.Equal(got, v3) {
		t.Fatalf("post-recovery batch lost: err=%v", err)
	}
}
