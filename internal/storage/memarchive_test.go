package storage

import (
	"bytes"
	"testing"
)

// The in-memory archive takes the same batched write-back path as the
// PageFile: one WriteBatch installs every image fill accepts, and later
// mutation of the caller's buffers must not leak into the archive.
func TestMemArchivePutBatch(t *testing.T) {
	a := NewMemArchive()
	imgs := [][]byte{pfTestImage(1, 0x01), pfTestImage(2, 0x02), pfTestImage(3, 0x03)}
	copyFrom := func(imgs [][]byte) func(int, []byte) bool {
		return func(i int, dst []byte) bool {
			if imgs[i] == nil {
				return false
			}
			copy(dst, imgs[i])
			return true
		}
	}
	// Page 3 is declined: it must not appear.
	if err := a.WriteBatch([]uint64{1, 2, 3}, copyFrom([][]byte{imgs[0], imgs[1], nil})); err != nil {
		t.Fatal(err)
	}
	imgs[0][0] ^= 0xFF // the archive must hold its own copy
	read := func(pid uint64) []byte {
		t.Helper()
		p := NewPage(pid)
		if found, err := a.ReadPage(pid, p); !found || err != nil {
			t.Fatalf("ReadPage(%d) = %v, %v", pid, found, err)
		}
		return p.Snapshot()
	}
	if !bytes.Equal(read(1), pfTestImage(1, 0x01)) {
		t.Fatal("page 1 changed after caller mutation, want the archive's own copy")
	}
	pids, err := a.Pages()
	if err != nil {
		t.Fatal(err)
	}
	if len(pids) != 2 || pids[0] != 1 || pids[1] != 2 {
		t.Fatalf("Pages = %v, want [1 2]", pids)
	}
	// A batched write overwrites like a plain Put would.
	if err := a.WriteBatch([]uint64{2}, copyFrom([][]byte{imgs[2]})); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(read(2), imgs[2]) {
		t.Fatal("page 2 after overwrite is not the new image")
	}
}
