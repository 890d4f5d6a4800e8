package logdev

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"aether/internal/vfs"
)

// traceSince returns the fault filesystem's op trace after entry seq.
func traceSince(fs *vfs.FaultFS, seq uint64) []vfs.TraceEntry {
	var out []vfs.TraceEntry
	for _, e := range fs.Trace() {
		if e.Seq > seq {
			out = append(out, e)
		}
	}
	return out
}

func lastSeq(fs *vfs.FaultFS) uint64 {
	tr := fs.Trace()
	if len(tr) == 0 {
		return 0
	}
	return tr[len(tr)-1].Seq
}

// TestDirObjectStorePutSyncsWhatItCreates reads the op trace of a first
// Put into a fresh store: every directory the store made — the root and
// its missing ancestor at open, the lane prefix and seg/ at the Put — has
// its entry fsynced in its parent before the Put returns, the object goes
// in through a synced temporary and a rename, and the last thing the Put
// does is fsync the object's own directory. A second Put beneath the same
// directories pays for none of that again.
func TestDirObjectStorePutSyncsWhatItCreates(t *testing.T) {
	fs := vfs.NewFaultFS(1)
	store, err := NewDirObjectStoreFS(fs, "/data/cold")
	if err != nil {
		t.Fatal(err)
	}
	synced := func(tr []vfs.TraceEntry, dir string) int {
		n := 0
		for _, e := range tr {
			if e.Op == vfs.OpSyncDir && e.Path == dir && e.Err == nil {
				n++
			}
		}
		return n
	}
	open := traceSince(fs, 0)
	for _, parent := range []string{"/", "/data"} { // of /data, of /data/cold
		if synced(open, parent) == 0 {
			t.Fatalf("open created a directory under %s without fsyncing it; trace: %v", parent, open)
		}
	}

	mark := lastSeq(fs)
	if err := store.Put("p1/seg/0000000000000007", []byte("object")); err != nil {
		t.Fatal(err)
	}
	put := traceSince(fs, mark)
	final := "/data/cold/p1/seg/0000000000000007"
	var wrote, syncedTmp, renamed bool
	for i, e := range put {
		switch {
		case e.Op == vfs.OpWrite && filepath.Ext(e.Path) == ".tmp":
			wrote = true
		case e.Op == vfs.OpSync && filepath.Ext(e.Path) == ".tmp":
			syncedTmp = wrote
		case e.Op == vfs.OpRename && e.Path == final:
			renamed = syncedTmp
			// Both created ancestors were made durable before the install.
			if synced(put[:i], "/data/cold") == 0 || synced(put[:i], "/data/cold/p1") == 0 {
				t.Fatalf("object installed before its new directories were fsynced; trace: %v", put)
			}
		case e.Path == final && (e.Op == vfs.OpWrite || e.Op == vfs.OpOpen):
			t.Fatalf("Put wrote the final name in place: %v", e)
		}
	}
	if !renamed {
		t.Fatalf("Put did not go write → fsync → rename through a temporary; trace: %v", put)
	}
	if last := put[len(put)-1]; last.Op != vfs.OpSyncDir || last.Path != "/data/cold/p1/seg" {
		t.Fatalf("Put ended with %v, want the fsync of the object's directory", last)
	}

	mark = lastSeq(fs)
	if err := store.Put("p1/seg/0000000000000008", []byte("object")); err != nil {
		t.Fatal(err)
	}
	again := traceSince(fs, mark)
	if n := synced(again, "/data/cold") + synced(again, "/data/cold/p1"); n != 0 {
		t.Fatalf("second Put re-synced %d ancestor directories", n)
	}
	if synced(again, "/data/cold/p1/seg") != 1 {
		t.Fatalf("second Put: want exactly the object's own directory fsync; trace: %v", again)
	}
}

// TestDirObjectStorePutPowerCutTable cuts power at every filesystem
// operation of a Put that overwrites a valid object, tearing unsynced
// writes in at 8-byte sectors: after recovery the key holds the old
// object or the new one, whole — never a truncated file, never a mix.
func TestDirObjectStorePutPowerCutTable(t *testing.T) {
	const key = "seg/0000000000000003"
	oldObj := EncodeObject(ObjSegment, 3, fill(256, 'o'))
	newObj := EncodeObject(ObjSegment, 3, fill(256, 'n'))
	sawOld, sawNew := false, false
	for cutAt := 0; ; cutAt++ {
		fs := vfs.NewFaultFS(int64(cutAt))
		fs.SetSectorSize(8)
		fs.SetTornWrites(true)
		// Every unsynced write tears: odd sectors persist, even ones do not.
		fs.SetTearMask(func(_ string, sectors int) []bool {
			keep := make([]bool, sectors)
			for i := range keep {
				keep[i] = i%2 == 1
			}
			return keep
		})
		store, err := NewDirObjectStoreFS(fs, "/cold")
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Put(key, oldObj); err != nil {
			t.Fatal(err)
		}
		rule := fs.AddRule(vfs.Rule{After: cutAt, Cut: true})
		putErr := store.Put(key, newObj)
		fired := fs.RuleStats()[rule].Fired > 0
		fs.PowerCut() // a Put that returned is durable against a cut right after
		fs.ClearRules()
		fs.Recover()

		reopened, err := NewDirObjectStoreFS(fs, "/cold")
		if err != nil {
			t.Fatalf("cut at op %d: reopen: %v", cutAt, err)
		}
		got, err := reopened.Get(key)
		if err != nil {
			t.Fatalf("cut at op %d: object gone: %v", cutAt, err)
		}
		switch {
		case bytes.Equal(got, oldObj):
			sawOld = true
			if putErr == nil {
				t.Fatalf("cut at op %d: Put returned nil but the old object came back", cutAt)
			}
		case bytes.Equal(got, newObj):
			sawNew = true
		default:
			t.Fatalf("cut at op %d: key holds %d bytes that are neither object (Put err %v)", cutAt, len(got), putErr)
		}
		if keys, err := reopened.List(""); err != nil || len(keys) != 1 || keys[0] != key {
			t.Fatalf("cut at op %d: store lists %v, %v after reopen, want just the object (temporaries swept)", cutAt, keys, err)
		}
		if !fired {
			if putErr != nil {
				t.Fatalf("uncut Put failed: %v", putErr)
			}
			break // the cut index has walked off the end of the Put
		}
	}
	if !sawOld || !sawNew {
		t.Fatalf("table never produced both outcomes (old %v, new %v)", sawOld, sawNew)
	}
}

// TestDirObjectStoreOpens: the write-side open sweeps a crashed Put's
// temporary; the read-side open touches nothing and refuses to write; and
// a directory still in the one-file-per-segment archive layout (*.seg) is
// refused by both with ErrFormat, byte-identical afterwards.
func TestDirObjectStoreOpens(t *testing.T) {
	dir := t.TempDir()
	store, err := NewDirObjectStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put("seg/a", []byte("A")); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(dir, "seg", "b.7.tmp")
	if err := os.WriteFile(stale, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}

	ro, err := DirObjectStoreAt(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); err != nil {
		t.Fatalf("read-side open swept a temporary a live writer may own: %v", err)
	}
	if keys, err := ro.List(""); err != nil || len(keys) != 1 || keys[0] != "seg/a" {
		t.Fatalf("read-side List = %v, %v", keys, err)
	}
	if err := ro.Put("seg/c", nil); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("read-side Put: %v, want ErrReadOnly", err)
	}
	if err := ro.Delete("seg/a"); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("read-side Delete: %v, want ErrReadOnly", err)
	}
	if _, err := DirObjectStoreAt(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("read-side open created or accepted a missing directory")
	}

	if _, err := NewDirObjectStore(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatal("stale temporary survived a write-side open")
	}

	for _, lane := range []string{"", "p2"} {
		old := t.TempDir()
		files := map[string][]byte{
			filepath.Join(lane, "0000000000000000.seg"):     fill(64, 'x'),
			filepath.Join(lane, "0000000000000001.seg.tmp"): []byte("half"),
		}
		for name, data := range files {
			if err := os.MkdirAll(filepath.Dir(filepath.Join(old, name)), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(old, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := NewDirObjectStore(old); !errors.Is(err, ErrFormat) {
			t.Fatalf("write-side open of an old-layout archive (lane %q): %v, want ErrFormat", lane, err)
		}
		if _, err := DirObjectStoreAt(old); !errors.Is(err, ErrFormat) {
			t.Fatalf("read-side open of an old-layout archive (lane %q): %v, want ErrFormat", lane, err)
		}
		for name, want := range files {
			got, err := os.ReadFile(filepath.Join(old, name))
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("refused open touched %s (err %v)", name, err)
			}
		}
	}
}
