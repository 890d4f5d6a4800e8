package storage

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// pageChecksum is slotChecksum from the identity's parts.
func pageChecksum(pid, version uint64, img []byte) uint32 {
	var ident [16]byte
	binary.LittleEndian.PutUint64(ident[0:8], pid)
	binary.LittleEndian.PutUint64(ident[8:16], version)
	return slotChecksum(ident[:], img)
}

// jnlSpec is one crafted journal entry for the hardening tests.
type jnlSpec struct {
	slot    uint64
	pid     uint64
	version uint64
	badSum  bool // corrupt the per-entry page checksum
}

// buildJournal assembles raw journal bytes. With breakCRC the batch
// checksum is flipped (a torn journal); with lieCount the header claims
// that many entries regardless of the body.
func buildJournal(entries []jnlSpec, breakCRC bool, lieCount int) []byte {
	buf := make([]byte, pfJnlHdrSize+len(entries)*pfJnlEntrySize)
	for i, e := range entries {
		dst := buf[pfJnlHdrSize+i*pfJnlEntrySize:]
		binary.LittleEndian.PutUint64(dst[0:8], e.slot)
		binary.LittleEndian.PutUint64(dst[8:16], e.pid)
		binary.LittleEndian.PutUint64(dst[16:24], e.version)
		img := dst[pfJnlEntryHdr:pfJnlEntrySize]
		sum := pageChecksum(e.pid, e.version, img)
		if e.badSum {
			sum ^= 0xDEADBEEF
		}
		binary.LittleEndian.PutUint32(dst[24:28], sum)
	}
	count := len(entries)
	if lieCount > 0 {
		count = lieCount
	}
	binary.LittleEndian.PutUint32(buf[0:4], pfJournalMagic)
	binary.LittleEndian.PutUint32(buf[4:8], pfVersion)
	binary.LittleEndian.PutUint32(buf[8:12], uint32(count))
	binary.LittleEndian.PutUint32(buf[12:16], PageSize)
	sum := crc32.Checksum(buf[pfJnlHdrSize:], pfCRC)
	if breakCRC {
		sum ^= 1
	}
	binary.LittleEndian.PutUint32(buf[16:20], sum)
	return buf
}

// TestPageFileJournalBounds feeds OpenPageFile corrupted journals and
// headers. Absurd slot indices and lying sizes must fail loudly (an
// error naming the problem — never a panic, never a silently ballooned
// file); torn journals are discarded as the protocol demands.
func TestPageFileJournalBounds(t *testing.T) {
	valid := func(dir string) string {
		path := filepath.Join(dir, "pagefile.db")
		pf := openPF(t, path)
		if err := pf.Put(1, pfTestImage(1, 0x11)); err != nil {
			t.Fatal(err)
		}
		pf.Close()
		return path
	}

	cases := []struct {
		name    string
		journal []byte
		wantErr string // "" = Open must succeed (journal discarded)
		pages   int    // expected page count when Open succeeds
	}{
		{
			name:    "slot-overflows-int64-offset",
			journal: buildJournal([]jnlSpec{{slot: 1 << 62, pid: 9, version: 1}}, false, 0),
			wantErr: "absurd slot",
		},
		{
			name:    "slot-beyond-file-plus-batch",
			journal: buildJournal([]jnlSpec{{slot: 10_000, pid: 9, version: 1}}, false, 0),
			wantErr: "absurd slot",
		},
		{
			name:    "entry-checksum-corrupt",
			journal: buildJournal([]jnlSpec{{slot: 0, pid: 1, version: 2, badSum: true}}, false, 0),
			wantErr: "fails its checksum",
		},
		{
			name:    "torn-batch-crc",
			journal: buildJournal([]jnlSpec{{slot: 0, pid: 1, version: 2}}, true, 0),
			pages:   1, // discarded: previous contents intact
		},
		{
			name:    "count-exceeds-body",
			journal: buildJournal([]jnlSpec{{slot: 0, pid: 1, version: 2}}, false, 50),
			pages:   1, // fails parse → treated as torn, discarded
		},
		{
			name:    "count-zero",
			journal: buildJournal(nil, false, 0),
			pages:   1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := valid(dir)
			if err := os.WriteFile(path+".journal", tc.journal, 0o644); err != nil {
				t.Fatal(err)
			}
			pf, err := OpenPageFile(path)
			if tc.wantErr != "" {
				if err == nil {
					pf.Close()
					t.Fatalf("Open accepted a journal with %s", tc.name)
				}
				if !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error %q does not mention %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			defer pf.Close()
			pids, err := pf.Pages()
			if err != nil || len(pids) != tc.pages {
				t.Fatalf("pages after open: %d (%v), want %d", len(pids), err, tc.pages)
			}
			if img, err := pf.Get(1); err != nil || len(img) != PageSize {
				t.Fatalf("page 1 unreadable after discard: %v", err)
			}
		})
	}
}

// TestPageFileTruncatedTailSlot documents the torn-write contract: a
// pagefile cut mid-slot opens (the partial tail slot was never committed
// without a journal to repair it) and every whole slot stays readable.
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
