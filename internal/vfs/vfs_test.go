package vfs

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func mustOpen(t *testing.T, fs FS, path string, flag int) File {
	t.Helper()
	f, err := fs.OpenFile(path, flag, 0o644)
	if err != nil {
		t.Fatalf("OpenFile(%s): %v", path, err)
	}
	return f
}

func writeAt(t *testing.T, f File, b []byte, off int64) {
	t.Helper()
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
}

func readAll(t *testing.T, fs FS, path string) []byte {
	t.Helper()
	b, err := fs.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile(%s): %v", path, err)
	}
	return b
}

// TestFaultFSUnsyncedWritesDrop is the core crash model: synced bytes
// survive a power cut, unsynced bytes vanish.
func TestFaultFSUnsyncedWritesDrop(t *testing.T) {
	fs := NewFaultFS(1)
	if err := fs.MkdirAll("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	f := mustOpen(t, fs, "/d/a", os.O_CREATE|os.O_RDWR)
	writeAt(t, f, []byte("durable"), 0)
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	fs.SyncDir("/d") // commit the create
	writeAt(t, f, []byte("volatile"), 7)

	fs.PowerCut()
	if _, err := f.WriteAt([]byte("x"), 0); !errors.Is(err, ErrPowerCut) {
		t.Fatalf("write after cut: err=%v, want ErrPowerCut", err)
	}
	fs.Recover()

	if got := string(readAll(t, fs, "/d/a")); got != "durable" {
		t.Fatalf("after crash: %q, want only the synced prefix %q", got, "durable")
	}
	// The old handle died with the incarnation.
	if _, err := f.WriteAt([]byte("x"), 0); err == nil {
		t.Fatal("pre-crash handle still usable after recover")
	}
}

// TestFaultFSUnsyncedCreateRollsBack checks namespace volatility: a
// created file needs its parent directory synced to survive.
func TestFaultFSUnsyncedCreateRollsBack(t *testing.T) {
	fs := NewFaultFS(1)
	fs.MkdirAll("/d", 0o755)
	for _, syncDir := range []bool{false, true} {
		name := "/d/nosync"
		if syncDir {
			name = "/d/withsync"
		}
		f := mustOpen(t, fs, name, os.O_CREATE|os.O_RDWR)
		writeAt(t, f, []byte("x"), 0)
		f.Sync()
		f.Close()
		if syncDir {
			if err := fs.SyncDir("/d"); err != nil {
				t.Fatal(err)
			}
		}
		fs.PowerCut()
		fs.Recover()
		_, err := fs.Stat(name)
		if syncDir && err != nil {
			t.Fatalf("create+file sync+dir sync lost across crash: %v", err)
		}
		if !syncDir && err == nil {
			t.Fatal("create without parent-dir sync survived the crash")
		}
	}
}

// TestFaultFSRenameRollsBack checks the install idiom: a rename is
// volatile until the parent dir syncs, and rolling it back restores
// an overwritten destination.
func TestFaultFSRenameRollsBack(t *testing.T) {
	fs := NewFaultFS(1)
	fs.MkdirAll("/d", 0o755)
	for _, name := range []string{"/d/dst", "/d/src"} {
		f := mustOpen(t, fs, name, os.O_CREATE|os.O_RDWR)
		writeAt(t, f, []byte(filepath.Base(name)), 0)
		f.Sync()
		f.Close()
	}
	fs.SyncDir("/d")

	if err := fs.Rename("/d/src", "/d/dst"); err != nil {
		t.Fatal(err)
	}
	fs.PowerCut()
	fs.Recover()
	if got := string(readAll(t, fs, "/d/dst")); got != "dst" {
		t.Fatalf("unsynced rename persisted: dst=%q, want original %q", got, "dst")
	}
	if _, err := fs.Stat("/d/src"); err != nil {
		t.Fatalf("rename rollback lost the source: %v", err)
	}

	// Same rename, now committed with a dir sync.
	if err := fs.Rename("/d/src", "/d/dst"); err != nil {
		t.Fatal(err)
	}
	fs.SyncDir("/d")
	fs.PowerCut()
	fs.Recover()
	if got := string(readAll(t, fs, "/d/dst")); got != "src" {
		t.Fatalf("synced rename lost: dst=%q, want %q", got, "src")
	}
	if _, err := fs.Stat("/d/src"); err == nil {
		t.Fatal("synced rename resurrected the source")
	}
}

// TestFaultFSRemoveRollsBack: an unsynced remove comes back after a
// crash with its last-synced contents.
func TestFaultFSRemoveRollsBack(t *testing.T) {
	fs := NewFaultFS(1)
	fs.MkdirAll("/d", 0o755)
	f := mustOpen(t, fs, "/d/a", os.O_CREATE|os.O_RDWR)
	writeAt(t, f, []byte("keep"), 0)
	f.Sync()
	f.Close()
	fs.SyncDir("/d")

	if err := fs.Remove("/d/a"); err != nil {
		t.Fatal(err)
	}
	fs.PowerCut()
	fs.Recover()
	if got := string(readAll(t, fs, "/d/a")); got != "keep" {
		t.Fatalf("unsynced remove stuck: %q, want %q", got, "keep")
	}
}

// TestFaultFSTornWrite tears the last unsynced write at sector
// granularity under a deterministic mask.
func TestFaultFSTornWrite(t *testing.T) {
	fs := NewFaultFS(1)
	fs.SetSectorSize(4)
	fs.SetTornWrites(true)
	fs.MkdirAll("/d", 0o755)
	f := mustOpen(t, fs, "/d/a", os.O_CREATE|os.O_RDWR)
	writeAt(t, f, []byte("AAAABBBBCCCC"), 0)
	f.Sync()
	fs.SyncDir("/d")

	// One 12-byte overwrite = 3 sectors; keep only the middle one.
	writeAt(t, f, []byte("XXXXYYYYZZZZ"), 0)
	fs.SetTearMask(func(path string, sectors int) []bool {
		if sectors != 3 {
			t.Errorf("tear mask saw %d sectors, want 3", sectors)
		}
		return []bool{false, true, false}
	})
	fs.PowerCut()
	fs.Recover()
	if got := string(readAll(t, fs, "/d/a")); got != "AAAAYYYYCCCC" {
		t.Fatalf("torn image %q, want %q", got, "AAAAYYYYCCCC")
	}
}

// TestFaultFSRules exercises trigger matching: After skips, Times
// limits, counters track, and errors are the configured ones.
func TestFaultFSRules(t *testing.T) {
	fs := NewFaultFS(1)
	fs.MkdirAll("/d", 0o755)
	boom := errors.New("boom")
	id := fs.AddRule(Rule{Op: OpWrite, Dir: "/d", Path: "a*", After: 2, Times: 2, Err: boom})

	f := mustOpen(t, fs, "/d/ax", os.O_CREATE|os.O_RDWR)
	other := mustOpen(t, fs, "/d/b", os.O_CREATE|os.O_RDWR)
	var errs int
	for i := 0; i < 6; i++ {
		if _, err := f.WriteAt([]byte("w"), int64(i)); err != nil {
			if !errors.Is(err, boom) {
				t.Fatalf("write %d: err=%v, want boom", i, err)
			}
			errs++
		}
		// Non-matching base name never faults.
		if _, err := other.WriteAt([]byte("w"), int64(i)); err != nil {
			t.Fatalf("unmatched write faulted: %v", err)
		}
	}
	if errs != 2 {
		t.Fatalf("rule fired %d times, want 2 (After=2, Times=2)", errs)
	}
	st := fs.RuleStats()[id]
	if st.Matched != 6 || st.Fired != 2 {
		t.Fatalf("stats matched=%d fired=%d, want 6/2", st.Matched, st.Fired)
	}
}

// TestFaultFSCutOnWrite: a Cut rule on a write applies that write
// first — it becomes the torn-tail candidate — then freezes the fs.
func TestFaultFSCutOnWrite(t *testing.T) {
	fs := NewFaultFS(1)
	fs.MkdirAll("/d", 0o755)
	f := mustOpen(t, fs, "/d/a", os.O_CREATE|os.O_RDWR)
	writeAt(t, f, []byte("base"), 0)
	f.Sync()
	fs.SyncDir("/d")

	fs.AddRule(Rule{Op: OpWrite, Dir: "/d", Path: "a", Cut: true})
	if _, err := f.WriteAt([]byte("tail"), 4); !errors.Is(err, ErrPowerCut) {
		t.Fatalf("cut write err=%v, want ErrPowerCut", err)
	}
	if fs.Cuts() != 1 {
		t.Fatalf("cuts=%d, want 1", fs.Cuts())
	}
	fs.Recover()
	// Tearing is off: the cut write drops whole.
	if got := string(readAll(t, fs, "/d/a")); got != "base" {
		t.Fatalf("after cut-on-write: %q, want %q", got, "base")
	}
}

// TestFaultFSTrace confirms the op trace records faults for replay
// diagnostics.
func TestFaultFSTrace(t *testing.T) {
	fs := NewFaultFS(1)
	fs.MkdirAll("/d", 0o755)
	f := mustOpen(t, fs, "/d/a", os.O_CREATE|os.O_RDWR)
	writeAt(t, f, []byte("x"), 0)
	f.Sync()
	var sawWrite, sawSync bool
	for _, e := range fs.Trace() {
		if e.Path != "/d/a" {
			continue
		}
		switch e.Op {
		case OpWrite:
			sawWrite = true
		case OpSync:
			sawSync = true
		}
		if e.String() == "" {
			t.Fatal("empty trace entry rendering")
		}
	}
	if !sawWrite || !sawSync {
		t.Fatalf("trace missing ops: write=%v sync=%v", sawWrite, sawSync)
	}
}

// TestFaultFSReadSemantics checks ReadAt's io semantics match os.File:
// short reads at EOF return io.EOF with the partial count.
func TestFaultFSReadSemantics(t *testing.T) {
	fs := NewFaultFS(1)
	fs.MkdirAll("/d", 0o755)
	f := mustOpen(t, fs, "/d/a", os.O_CREATE|os.O_RDWR)
	writeAt(t, f, []byte("hello"), 0)
	buf := make([]byte, 8)
	n, err := f.ReadAt(buf, 0)
	if n != 5 || !errors.Is(err, io.EOF) {
		t.Fatalf("short ReadAt = (%d, %v), want (5, io.EOF)", n, err)
	}
	n, err = f.ReadAt(buf[:2], 2)
	if n != 2 || err != nil {
		t.Fatalf("inner ReadAt = (%d, %v), want (2, nil)", n, err)
	}
}

// TestOSPassthrough sanity-checks the production FS against a real
// temp dir: write, sync, dir-sync, rename, read back.
func TestOSPassthrough(t *testing.T) {
	fs := OS{}
	dir := t.TempDir()
	p := filepath.Join(dir, "a.tmp")
	f, err := fs.OpenFile(p, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("data"), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	final := filepath.Join(dir, "a")
	if err := fs.Rename(p, final); err != nil {
		t.Fatal(err)
	}
	if err := fs.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	b, err := fs.ReadFile(final)
	if err != nil || string(b) != "data" {
		t.Fatalf("read back (%q, %v), want (%q, nil)", b, err, "data")
	}
	ents, err := fs.ReadDir(dir)
	if err != nil || len(ents) != 1 || ents[0].Name() != "a" {
		t.Fatalf("ReadDir = (%v, %v), want single entry 'a'", ents, err)
	}
}

// TestFaultFSTearMaskSeesEveryUnsyncedWrite: under a mask, each write
// since the file's last Sync is offered for tearing, oldest first, so a
// test can persist an earlier write while dropping a later one — a
// crash shape the seeded path (most recent write only) cannot produce.
func TestFaultFSTearMaskSeesEveryUnsyncedWrite(t *testing.T) {
	fs := NewFaultFS(1)
	fs.SetSectorSize(4)
	fs.SetTornWrites(true)
	fs.MkdirAll("/d", 0o755)
	f := mustOpen(t, fs, "/d/a", os.O_CREATE|os.O_RDWR)
	writeAt(t, f, []byte("AAAABBBBCCCC"), 0)
	f.Sync()
	fs.SyncDir("/d")

	writeAt(t, f, []byte("XXXX"), 0) // kept
	writeAt(t, f, []byte("YYYY"), 4) // dropped
	writeAt(t, f, []byte("ZZZZ"), 8) // kept
	call := 0
	fs.SetTearMask(func(path string, sectors int) []bool {
		call++
		return []bool{call != 2}
	})
	fs.PowerCut()
	fs.Recover()
	if call != 3 {
		t.Fatalf("tear mask consulted %d times, want once per unsynced write (3)", call)
	}
	if got := string(readAll(t, fs, "/d/a")); got != "XXXXBBBBZZZZ" {
		t.Fatalf("torn image %q, want %q", got, "XXXXBBBBZZZZ")
	}
}

// TestFaultFSRuleOffBelow: an offset ceiling tells writes to a file's
// header region from writes to its body through the same handle, and
// never matches operations that carry no offset.
func TestFaultFSRuleOffBelow(t *testing.T) {
	fs := NewFaultFS(1)
	fs.MkdirAll("/d", 0o755)
	boom := errors.New("boom")
	id := fs.AddRule(Rule{Op: OpWrite, Dir: "/d", OffBelow: 100, Err: boom})
	f := mustOpen(t, fs, "/d/a", os.O_CREATE|os.O_RDWR)
	if _, err := f.WriteAt([]byte("body"), 100); err != nil {
		t.Fatalf("write at the ceiling: %v", err)
	}
	if _, err := f.WriteAt([]byte("head"), 96); !errors.Is(err, boom) {
		t.Fatalf("write below the ceiling: err=%v, want boom", err)
	}
	if st := fs.RuleStats()[id]; st.Matched != 1 || st.Fired != 1 {
		t.Fatalf("rule stats %+v, want one match, one fire", st)
	}
	fs.ClearRules()
	fs.AddRule(Rule{Dir: "/d", OffBelow: 100, Err: boom}) // any op class
	if err := f.Sync(); err != nil {
		t.Fatalf("offset rule matched a Sync: %v", err)
	}
}

// TestFaultFSIncrementalSync checks that Sync, which copies nothing,
// leaves the durable image a whole-file copy would: through growth by
// Truncate, partial writes, a Sync, writes that overlap it, a shrink and
// regrowth, another Sync, and a power cut that drops the writes after it
// whole or tears them in.
func TestFaultFSIncrementalSync(t *testing.T) {
	fill := func(b byte, n int) []byte {
		p := make([]byte, n)
		for i := range p {
			p[i] = b
		}
		return p
	}
	for _, torn := range []bool{false, true} {
		t.Run(map[bool]string{false: "dropped", true: "torn"}[torn], func(t *testing.T) {
			fs := NewFaultFS(1)
			fs.SetSectorSize(4)
			fs.SetTornWrites(torn)
			// Keep the first sector of every write the cut finds unsynced.
			fs.SetTearMask(func(_ string, sectors int) []bool {
				keep := make([]bool, sectors)
				keep[0] = true
				return keep
			})
			f := mustOpen(t, fs, "/f", os.O_CREATE|os.O_RDWR)
			if err := fs.SyncDir("/"); err != nil {
				t.Fatal(err)
			}
			want := make([]byte, 64) // the durable image, kept by hand
			if err := f.Truncate(64); err != nil {
				t.Fatal(err)
			}
			writeAt(t, f, fill('A', 8), 4)
			writeAt(t, f, fill('B', 8), 40)
			if err := f.Sync(); err != nil {
				t.Fatal(err)
			}
			copy(want[4:], fill('A', 8))
			copy(want[40:], fill('B', 8))

			writeAt(t, f, fill('C', 6), 10) // straddles the A run
			if err := f.Truncate(32); err != nil {
				t.Fatal(err) // cuts the B run away ...
			}
			if err := f.Truncate(48); err != nil {
				t.Fatal(err) // ... and the regrowth must read as zeros
			}
			writeAt(t, f, fill('D', 4), 44)
			if err := f.Sync(); err != nil {
				t.Fatal(err)
			}
			want = want[:48]
			copy(want[10:], fill('C', 6))
			copy(want[32:], make([]byte, 16))
			copy(want[44:], fill('D', 4))
			if got := readAll(t, fs, "/f"); string(got) != string(want) {
				t.Fatalf("volatile image after the second Sync:\n got %q\nwant %q", got, want)
			}

			writeAt(t, f, fill('E', 8), 0)
			writeAt(t, f, fill('F', 8), 20)
			if torn {
				copy(want[0:], fill('E', 4))
				copy(want[20:], fill('F', 4))
			}
			fs.PowerCut()
			fs.Recover()
			if got := readAll(t, fs, "/f"); string(got) != string(want) {
				t.Fatalf("recovered image:\n got %q\nwant %q", got, want)
			}
		})
	}
}

// TestFaultFSTraceRing checks the op trace keeps the newest entries, in
// order, once more operations than it holds have run.
func TestFaultFSTraceRing(t *testing.T) {
	fs := NewFaultFS(1)
	for i := 0; i < traceCap+10; i++ {
		fs.Stat("/")
	}
	tr := fs.Trace()
	if len(tr) != traceCap {
		t.Fatalf("trace holds %d entries, want %d", len(tr), traceCap)
	}
	for i, e := range tr {
		if want := uint64(11 + i); e.Seq != want {
			t.Fatalf("trace[%d].Seq = %d, want %d", i, e.Seq, want)
		}
	}
}

// TestFaultFSTruncateGrowthIsSparse: a file grown by Truncate reads as
// zeros to its new length, and its image holds no more than the bytes
// written, durable or not.
func TestFaultFSTruncateGrowthIsSparse(t *testing.T) {
	fs := NewFaultFS(1)
	f := mustOpen(t, fs, "/f", os.O_CREATE|os.O_RDWR)
	if err := f.Truncate(1 << 30); err != nil {
		t.Fatal(err)
	}
	writeAt(t, f, []byte("x"), 4096)
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if n := fs.files["/f"]; len(n.data) != 4097 || n.syncedLen != 4097 {
		t.Fatalf("image holds %d bytes, %d of them durable, want the 4097 written", len(n.data), n.syncedLen)
	}
	buf := []byte("junkjunk")
	if n, err := f.ReadAt(buf, 1<<30-8); n != 8 || err != nil || string(buf) != string(make([]byte, 8)) {
		t.Fatalf("ReadAt at the end = (%d, %v, %q), want 8 zeros", n, err, buf)
	}
	if st, err := f.Stat(); err != nil || st.Size() != 1<<30 {
		t.Fatalf("Stat = %v, %v, want size 1 GiB", st, err)
	}
}

// TestFaultFSSyncCopiesNothing counts what the one-image FaultFS saves
// and allocates on a log segment's pattern: appends into a file born
// full-size by Truncate save no bytes, an in-place rewrite below the
// durable prefix (a watermark slot) saves exactly its own, and neither
// followed by Sync allocates.
func TestFaultFSSyncCopiesNothing(t *testing.T) {
	fs := NewFaultFS(1)
	f := mustOpen(t, fs, "/seg", os.O_CREATE|os.O_RDWR)
	if err := f.Truncate(4096 + 1<<20); err != nil {
		t.Fatal(err)
	}
	writeAt(t, f, make([]byte, 4096), 0)
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	n := fs.files["/seg"]
	rec, off := make([]byte, 100), int64(4096)
	for i := 0; i < 1000; i++ {
		writeAt(t, f, rec, off)
		off += int64(len(rec))
		if len(n.saved) != 0 || len(n.savedBytes) != 0 {
			t.Fatalf("append %d saved %d bytes in %d ranges, want none", i, len(n.savedBytes), len(n.saved))
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	slot := make([]byte, 28)
	writeAt(t, f, slot, 64)
	if len(n.savedBytes) != len(slot) {
		t.Fatalf("a %d-byte rewrite saved %d bytes", len(slot), len(n.savedBytes))
	}
	rewrite := func() {
		if _, err := f.WriteAt(slot, 64); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	appendSync := func() {
		if _, err := f.WriteAt(rec, off); err != nil {
			t.Fatal(err)
		}
		off += int64(len(rec))
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if a := testing.AllocsPerRun(100, rewrite); a != 0 {
		t.Errorf("rewrite below the durable prefix + Sync: %.1f allocations, want 0", a)
	}
	if a := testing.AllocsPerRun(100, appendSync); a != 0 {
		t.Errorf("append + Sync: %.1f allocations, want 0", a)
	}
}
