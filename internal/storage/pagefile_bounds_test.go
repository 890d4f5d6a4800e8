package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aether/internal/vfs"
)

// writeV1 lays down a pagefile of format 1 over fs — header version 1,
// each page in its one slot at version i+1 — and, unless journal is nil,
// the journal file beside it holding journal, all synced.
func writeV1(t *testing.T, fs vfs.FS, path string, pages []PageImage, journal []byte) {
	t.Helper()
	buf := make([]byte, pfHeaderSize+len(pages)*pfSlotSize)
	putHeader(buf)
	binary.LittleEndian.PutUint32(buf[4:8], 1)
	for i, pi := range pages {
		e := buf[pfSlotOff(uint64(i)):]
		binary.LittleEndian.PutUint64(e[0:8], pi.PID)
		binary.LittleEndian.PutUint64(e[8:16], uint64(i+1))
		copy(e[pfSlotHdr:pfSlotSize], pi.Img)
		binary.LittleEndian.PutUint32(e[16:20], slotChecksum(e[0:16], e[pfSlotHdr:pfSlotSize]))
		binary.LittleEndian.PutUint32(e[20:24], pfFlagUsed)
	}
	files := map[string][]byte{path: buf}
	if journal != nil {
		files[path+".journal"] = journal
	}
	for name, data := range files {
		f, err := fs.OpenFile(name, os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(data, 0); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	if err := fs.SyncDir(filepath.Dir(path)); err != nil {
		t.Fatal(err)
	}
}

// TestPageFileRefusesV1: a format-1 file whose journal is empty — the
// file an older version upgraded in place — is refused with an error
// naming its format, and the open writes nothing.
func TestPageFileRefusesV1(t *testing.T) {
	expectV1Refused(t, []byte{})
}

// TestPageFileRefusesV1Journal: a format-1 file whose journal holds a
// batch is refused the same way, and the file and its journal are left
// as they were: only the version that wrote the batch can apply it.
func TestPageFileRefusesV1Journal(t *testing.T) {
	expectV1Refused(t, bytes.Repeat([]byte{0xAB}, 64))
}

// expectV1Refused lays down a format-1 file beside journal and checks
// that opening it fails naming format 1 and changes neither file.
func expectV1Refused(t *testing.T, journal []byte) {
	t.Helper()
	const path = "/db/pagefile.db"
	fs := vfs.NewFaultFS(1)
	if err := fs.MkdirAll("/db", 0o755); err != nil {
		t.Fatal(err)
	}
	writeV1(t, fs, path, []PageImage{{PID: 1, Img: pfTestImage(1, 0x01)}}, journal)
	file, _ := fs.ReadFile(path)
	w := fileWrites(fs)
	_, err := OpenPageFileFS(fs, path)
	if err == nil || !strings.Contains(err.Error(), "pagefile format 1") {
		t.Fatalf("open of a format-1 file: %v, want a refusal naming format 1", err)
	}
	if fileWrites(fs) != w {
		t.Fatal("the refused open wrote to the file")
	}
	for name, want := range map[string][]byte{path: file, path + ".journal": journal} {
		if got, err := fs.ReadFile(name); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s changed under the refused open (%v)", name, err)
		}
	}
}

// TestPageFileTruncatedTailSlot: a pagefile cut mid-slot opens — the
// partial tail slot is no page, and the open trims it off — and every
// whole slot stays readable.
func TestPageFileTruncatedTailSlot(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pagefile.db")
	pf := openPF(t, path)
	for pid := uint64(1); pid <= 3; pid++ {
		if err := pf.Put(pid, pfTestImage(pid, byte(pid))); err != nil {
			t.Fatal(err)
		}
	}
	pf.Close()

	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-100); err != nil {
		t.Fatal(err)
	}
	pf2, err := OpenPageFile(path)
	if err != nil {
		t.Fatalf("truncated pagefile must open, not panic/fail: %v", err)
	}
	defer pf2.Close()
	pids, err := pf2.Pages()
	if err != nil || len(pids) != 2 {
		t.Fatalf("whole slots after truncation: %v (%v), want pages 1,2", pids, err)
	}
	for _, pid := range pids {
		if _, err := pf2.Get(pid); err != nil {
			t.Fatalf("page %d unreadable: %v", pid, err)
		}
	}
}

// TestPageFileHeaderSizeMismatch: a header claiming a different page
// size (or format) must fail loudly at Open.
func TestPageFileHeaderSizeMismatch(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pagefile.db")
	pf := openPF(t, path)
	if err := pf.Put(1, pfTestImage(1, 0x01)); err != nil {
		t.Fatal(err)
	}
	pf.Close()

	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	var sz [4]byte
	binary.LittleEndian.PutUint32(sz[:], 4096) // lie about the page size
	if _, err := f.WriteAt(sz[:], 8); err != nil {
		t.Fatal(err)
	}
	f.Close()

	if _, err := OpenPageFile(path); err == nil || !strings.Contains(err.Error(), "page size") {
		t.Fatalf("mismatched page size must fail loudly, got %v", err)
	}
}

// shortReaderAt serves r, except that reads at offset cut return only
// half of what was asked, with no error.
type shortReaderAt struct {
	r   *bytes.Reader
	cut int64
}

func (s shortReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if off == s.cut {
		return s.r.ReadAt(p[:len(p)/2], off)
	}
	return s.r.ReadAt(p, off)
}

// TestScanSlotsReadsHeadersInPlace: the open's slot scan reads each
// 32-byte header into one buffer, so its allocations do not grow with the
// slots it reads (only the directory of live pages does), and a header
// that comes back short fails the open, naming its slot.
func TestScanSlotsReadsHeadersInPlace(t *testing.T) {
	// A file of unused slots: nothing goes into the live map.
	scan := func(slots int) float64 {
		raw := make([]byte, pfHeaderSize+slots*pfSlotSize)
		r := bytes.NewReader(raw)
		return testing.AllocsPerRun(5, func() {
			if _, err := scanSlots(r, int64(len(raw)), 0); err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := scan(8), scan(2_000); many > few {
		t.Fatalf("scanning 2 000 slots allocates %.0f objects, 8 slots %.0f", many, few)
	}

	raw := make([]byte, pfHeaderSize+4*pfSlotSize)
	for slot := uint64(0); slot < 4; slot++ {
		hdr := raw[pfSlotOff(slot):]
		binary.LittleEndian.PutUint64(hdr[0:8], slot+1)
		binary.LittleEndian.PutUint64(hdr[8:16], 1)
		binary.LittleEndian.PutUint32(hdr[20:24], pfFlagUsed)
	}
	r := bytes.NewReader(raw)
	if sc, err := scanSlots(r, int64(len(raw)), 1); err != nil || len(sc.live) != 4 {
		t.Fatalf("whole file: %d live pages, err %v", len(sc.live), err)
	}
	_, err := scanSlots(shortReaderAt{r, pfSlotOff(2)}, int64(len(raw)), 1)
	if !errors.Is(err, io.ErrUnexpectedEOF) || !strings.Contains(err.Error(), "slot 2:") {
		t.Fatalf("short header read: %v, want an unexpected EOF naming slot 2", err)
	}
}
