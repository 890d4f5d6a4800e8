package logdev

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// segFile returns the path of segment idx in dir (16-digit zero-padded,
// matching dirSegBackend.segPath).
func segFile(dir string, idx int64) string {
	return filepath.Join(dir, fmt.Sprintf("%016d.seg", idx))
}

// rawSegment is the file image of a segment that holds data and whose
// header was never written (no Sync covered it).
func rawSegment(data []byte) []byte {
	return append(make([]byte, SegmentHeaderSize), data...)
}

// TestTornTailRepairedFromWatermark is the headline crash test: a power
// loss whose writeback persisted unsynced bytes in segment N+1 but not
// in segment N used to read as a mid-log gap ("corruption") and fail
// Open. With the durable watermark in the segment headers, Open
// clamps the log back to the watermark — discarding only bytes no
// completed Sync ever covered — and the synced prefix reads back intact.
func TestTornTailRepairedFromWatermark(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSegmentedDir(dir, 64)
	if err != nil {
		t.Fatal(err)
	}
	want := batch(150, 'w') // segments 0,1 full; segment 2 holds 22 bytes
	appendSync(t, s, want)  // watermark hardens at 150
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulated power loss mid-append: the device's write cache flushed
	// a later segment's unsynced bytes (a brand-new segment 3 appears,
	// fully written) but dropped the earlier segment 2's tail (it stays
	// at its synced 22 bytes). File sizes now lie about durability.
	if err := os.WriteFile(segFile(dir, 3), rawSegment(fill(64, 'J')), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenSegmentedDir(dir, 0)
	if err != nil {
		t.Fatalf("Open failed on a repairable torn tail: %v", err)
	}
	defer s2.Close()
	if got := s2.DurableSize(); got != 150 {
		t.Fatalf("DurableSize = %d after repair, want the watermark 150", got)
	}
	if got := s2.RepairedTailBytes(); got != 64 { // segment 3's junk; the hole holds nothing
		t.Fatalf("RepairedTailBytes = %d, want 64", got)
	}
	got := make([]byte, 150)
	if _, err := s2.ReadAt(got, 0); err != nil {
		t.Fatalf("ReadAt after repair: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("synced prefix corrupted by the repair")
	}
	if _, err := os.Stat(segFile(dir, 3)); !os.IsNotExist(err) {
		t.Fatal("torn segment 3 survived the repair")
	}
	// The log keeps working where the watermark left it.
	appendSync(t, s2, batch(10, 'n'))
	if got := s2.DurableSize(); got != 160 {
		t.Fatalf("DurableSize after post-repair append = %d, want 160", got)
	}
}

// A torn tail inside the last synced segment (unsynced bytes persisted
// beyond the watermark in segment N itself) is trimmed back.
func TestTornTailTrimsPartialSegment(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSegmentedDir(dir, 64)
	if err != nil {
		t.Fatal(err)
	}
	want := batch(90, 'p') // segment 1 holds 26 synced bytes
	appendSync(t, s, want)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Unsynced bytes the crash happened to persist in the tail segment,
	// right after its 26 synced ones.
	f, err := os.OpenFile(segFile(dir, 1), os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(fill(20, 'X'), SegmentHeaderSize+26); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := OpenSegmentedDir(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.DurableSize(); got != 90 {
		t.Fatalf("DurableSize = %d, want 90", got)
	}
	if got := s2.RepairedTailBytes(); got != 20 {
		t.Fatalf("RepairedTailBytes = %d, want 20", got)
	}
	got := make([]byte, 90)
	if _, err := s2.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("synced bytes corrupted by trim")
	}
}

// Bytes the watermark covers that the segment files no longer hold are
// NOT a torn tail: that is mid-log corruption (bit rot, truncated or
// deleted files) and Open must fail loudly instead of silently
// discarding acknowledged commits.
func TestWatermarkRejectsMidLogCorruption(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSegmentedDir(dir, 64)
	if err != nil {
		t.Fatal(err)
	}
	appendSync(t, s, batch(150, 'c'))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	saved, err := os.ReadFile(segFile(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	refused := func(t *testing.T) {
		t.Helper()
		_, err := OpenSegmentedDir(dir, 0)
		if err == nil || !strings.Contains(err.Error(), "mid-log corruption, refusing to repair") {
			t.Fatalf("Open = %v, want the mid-log corruption refusal", err)
		}
		if err := os.WriteFile(segFile(dir, 1), saved, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Run("truncated segment", func(t *testing.T) {
		if err := os.Truncate(segFile(dir, 1), SegmentHeaderSize+10); err != nil {
			t.Fatal(err)
		}
		refused(t)
	})
	t.Run("missing segment", func(t *testing.T) {
		if err := os.Remove(segFile(dir, 1)); err != nil {
			t.Fatal(err)
		}
		refused(t)
	})
}

// A directory in an earlier format — format 1's layout (MANIFEST without
// a format line, headerless segments, a MANIFEST.durable watermark file),
// format 2's record encoding (today's files around 48-byte record
// headers), format 3's (whole insert and delete rows, a CLR's undo-next
// as is), format 4's (a fixed 8-byte frame, chained commit and end
// records), format 5's (an update's before and after images both
// logged), format 6's (a back-pointer on every record but a commit or
// an end), format 7's (a CRC-32C in every record's frame, no seals) or
// format 8's (the full TxnID on every record of a transaction),
// format 9's (a checkpoint's tables in one record, not in chunks) or
// format 10's (a CRC-32C of the covered bytes in each watermark slot) —
// is refused with ErrFormat by both kinds of open and left
// untouched: reading format 1's segments as if they began with a header
// would misplace every byte, format 2's and format 4's records would be
// framed at the wrong length, format 3's inserts would be read as rows
// of the wrong length, format 5's updates would be XORed into their
// rows as if their images were one, format 6's back-pointer bit
// would read as the first-record mark, its back-pointer as the fields
// after it, format 7's checksums as the kind byte and the fields, and
// format 8's TxnID on a later record as a slot, or as no record at all
// where a first record's slot is missing, format 9's checkpoint
// counts as a chunk header, and format 10's 28-byte slots would fail
// their slot CRC, every one, leaving the durable horizon at the base.
func TestOldFormatDirectoryRefused(t *testing.T) {
	for name, files := range map[string]map[string][]byte{
		"format 1": {
			manifestName:           []byte("segsize 64\nbase 0\n"),
			"MANIFEST.durable":     make([]byte, 32),
			"0000000000000000.seg": fill(40, 'o'),
		},
		"format 2": {
			manifestName:           []byte("format 2\nsegsize 64\nbase 0\n"),
			"0000000000000000.seg": append(make([]byte, SegmentHeaderSize), fill(40, 'o')...),
		},
		"format 3": {
			manifestName:           []byte("format 3\nsegsize 64\nbase 0\n"),
			"0000000000000000.seg": append(make([]byte, SegmentHeaderSize), fill(40, 'o')...),
		},
		"format 4": {
			manifestName:           []byte("format 4\nsegsize 64\nbase 0\n"),
			"0000000000000000.seg": append(make([]byte, SegmentHeaderSize), fill(40, 'o')...),
		},
		"format 5": {
			manifestName:           []byte("format 5\nsegsize 64\nbase 0\n"),
			"0000000000000000.seg": append(make([]byte, SegmentHeaderSize), fill(40, 'o')...),
		},
		"format 6": {
			manifestName:           []byte("format 6\nsegsize 64\nbase 0\n"),
			"0000000000000000.seg": append(make([]byte, SegmentHeaderSize), fill(40, 'o')...),
		},
		"format 7": {
			manifestName:           []byte("format 7\nsegsize 64\nbase 0\n"),
			"0000000000000000.seg": append(make([]byte, SegmentHeaderSize), fill(40, 'o')...),
		},
		"format 8": {
			manifestName:           []byte("format 8\nsegsize 64\nbase 0\n"),
			"0000000000000000.seg": append(make([]byte, SegmentHeaderSize), fill(40, 'o')...),
		},
		"format 9": {
			manifestName:           []byte("format 9\nsegsize 64\nbase 0\n"),
			"0000000000000000.seg": append(make([]byte, SegmentHeaderSize), fill(40, 'o')...),
		},
		"format 10": {
			manifestName:           []byte("format 10\nsegsize 64\nbase 0\n"),
			"0000000000000000.seg": append(make([]byte, SegmentHeaderSize), fill(40, 'o')...),
		},
	} {
		dir := t.TempDir()
		for name, data := range files {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := OpenSegmentedDir(dir, 64); !errors.Is(err, ErrFormat) {
			t.Fatalf("OpenSegmentedDir on a %s directory: %v, want ErrFormat", name, err)
		}
		if _, err := OpenSegmentedDirRO(dir); !errors.Is(err, ErrFormat) {
			t.Fatalf("OpenSegmentedDirRO on a %s directory: %v, want ErrFormat", name, err)
		}
		for file, want := range files {
			got, err := os.ReadFile(filepath.Join(dir, file))
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("refused open of a %s directory touched %s (err %v)", name, file, err)
			}
		}
		if entries, _ := os.ReadDir(dir); len(entries) != len(files) {
			t.Fatalf("refused open of a %s directory left %d entries, it held %d", name, len(entries), len(files))
		}
	}
}

// Bit rot in one header slot falls back to the other — always a safe,
// merely conservative horizon, exactly as for a torn slot write (see
// TestSyncCrashTable for the crash shapes).
func TestWatermarkSurvivesScribbledSlot(t *testing.T) {
	// Each scenario gets a fresh directory: the repair that follows a
	// lost slot legitimately rewrites the segment file.
	for slot, want := range []int64{128, 64} {
		dir := t.TempDir()
		s, err := OpenSegmentedDir(dir, 256)
		if err != nil {
			t.Fatal(err)
		}
		appendSync(t, s, batch(64, 'a')) // watermark 64 in slot 0
		appendSync(t, s, batch(64, 'b')) // watermark 128 in slot 1
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		f, err := os.OpenFile(segFile(dir, 0), os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(fill(wmSlotSize, 'T'), int64(slot)*wmSlotStride); err != nil {
			t.Fatal(err)
		}
		f.Close()
		s2, err := OpenSegmentedDir(dir, 0)
		if err != nil {
			t.Fatalf("scribbled slot %d rejected the directory: %v", slot, err)
		}
		if got := s2.DurableSize(); got != want {
			t.Fatalf("DurableSize = %d with slot %d scribbled, want %d", got, slot, want)
		}
		// The survivor must keep working: the next Sync must not land on
		// the slot that holds the recovered watermark.
		appendSync(t, s2, batch(10, 'c'))
		s2.Close()
		s3, err := OpenSegmentedDir(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := s3.DurableSize(); got != want+10 {
			t.Fatalf("DurableSize = %d after a post-recovery Sync, want %d", got, want+10)
		}
		s3.Close()
	}
}

// TestArchiveBeforeRecycle is the lifecycle test: with an archiver
// attached, Truncate parks dead segments instead of deleting them, and
// every one of them reaches cold storage (byte-identical) before its
// file is removed. While the cold store is down, nothing is recycled.
func TestArchiveBeforeRecycle(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSegmentedDir(dir, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	store := NewMemObjectStore()
	arch := newArchiver(t, store)
	s.SetArchiver(arch)

	want := fill(300, 'q') // segments 0..4
	appendSync(t, s, want)
	if err := s.Truncate(200); err != nil { // segments 0,1,2 dead
		t.Fatal(err)
	}
	if got := s.PendingArchive(); len(got) != 3 {
		t.Fatalf("PendingArchive = %v, want 3 dead segments", got)
	}
	for idx := int64(0); idx < 3; idx++ {
		if _, err := os.Stat(segFile(dir, idx)); err != nil {
			t.Fatalf("dead segment %d recycled before archiving: %v", idx, err)
		}
	}
	segs, _ := s.TruncStats()
	if segs != 0 {
		t.Fatalf("TruncStats counted %d recycled segments before the archive ran", segs)
	}

	// Cold store down: the drain fails and every slot stays occupied.
	store.Arm(NetFault{Outage: errors.New("cold storage unreachable")})
	if n, err := s.ArchivePending(); err == nil || n != 0 {
		t.Fatalf("ArchivePending with cold store down: n=%d err=%v", n, err)
	}
	for idx := int64(0); idx < 3; idx++ {
		if _, err := os.Stat(segFile(dir, idx)); err != nil {
			t.Fatalf("segment %d recycled while the archiver was failing", idx)
		}
	}

	// Cold store back: segments ship, then (and only then) recycle.
	store.Arm(NetFault{})
	n, err := s.ArchivePending()
	if err != nil || n != 3 {
		t.Fatalf("ArchivePending = (%d, %v), want (3, nil)", n, err)
	}
	if got := s.PendingArchive(); len(got) != 0 {
		t.Fatalf("PendingArchive = %v after drain, want empty", got)
	}
	if got := s.ArchivedSegments(); got != 3 {
		t.Fatalf("ArchivedSegments = %d, want 3", got)
	}
	if segs, _ := s.TruncStats(); segs != 3 {
		t.Fatalf("TruncStats = %d recycled after drain, want 3", segs)
	}
	for idx := int64(0); idx < 3; idx++ {
		if _, err := os.Stat(segFile(dir, idx)); !os.IsNotExist(err) {
			t.Fatalf("segment %d not recycled after archiving", idx)
		}
		got, err := arch.Retrieve(idx)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[idx*64:(idx+1)*64]) {
			t.Fatalf("archived segment %d contents mismatch", idx)
		}
	}

	// Restore-on-demand: the archived history below the base reassembles
	// byte-identically.
	data, err := restoreRange(arch, 64, 0, 192)
	if err != nil || !bytes.Equal(data, want[:192]) {
		t.Fatalf("restoreRange = (%d bytes, %v), want the full archived history", len(data), err)
	}
	if data, err := restoreRange(arch, 64, 70, 150); err != nil || !bytes.Equal(data, want[70:150]) {
		t.Fatalf("restoreRange(70, 150) = (%d bytes, %v), want those bytes", len(data), err)
	}
	// A range reaching below what the archive holds is not restorable.
	if err := store.Delete(arch.segKey(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := restoreRange(arch, 64, 0, 192); !errors.Is(err, ErrNotArchived) {
		t.Fatalf("restoreRange over a missing segment: %v, want ErrNotArchived", err)
	}
}

// RestoreLog must never hand back bytes that begin mid-record: when the
// archive cannot reach the requested offset, it falls back to the
// record-aligned truncation base rather than a segment boundary.
func TestRestoreLogFallsBackToRecordAlignedBase(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSegmentedDir(dir, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	want := fill(300, 'f')
	appendSync(t, s, want)
	if err := s.Truncate(200); err != nil { // recycles 0,1,2; base 200
		t.Fatal(err)
	}

	// No archive at all: only the hot log from its base is returnable.
	data, start, err := s.RestoreLog(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if start != 200 || !bytes.Equal(data, want[200:]) {
		t.Fatalf("RestoreLog(nil, 0) start=%d len=%d, want the base 200", start, len(data))
	}

	// Partial archive (hole below segment 2): restorable bytes would
	// begin at a segment boundary mid-record, so the base wins again.
	arch := newArchiver(t, NewMemObjectStore())
	if err := arch.Archive(2, want[128:192]); err != nil {
		t.Fatal(err)
	}
	data, start, err = s.RestoreLog(arch, 0)
	if err != nil {
		t.Fatal(err)
	}
	if start != 200 || !bytes.Equal(data, want[200:]) {
		t.Fatalf("partial archive: start=%d, want fallback to base 200", start)
	}

	// Complete archive: the full history comes back from offset 0.
	if err := arch.Archive(0, want[0:64]); err != nil {
		t.Fatal(err)
	}
	if err := arch.Archive(1, want[64:128]); err != nil {
		t.Fatal(err)
	}
	data, start, err = s.RestoreLog(arch, 0)
	if err != nil {
		t.Fatal(err)
	}
	if start != 0 || !bytes.Equal(data, want) {
		t.Fatalf("complete archive: start=%d len=%d, want the full history", start, len(data))
	}
}

// A read-only open (logdump's path) must leave a crashed directory
// byte-identical: no repair, no unlinking — while still presenting the
// repaired view in memory.
func TestOpenSegmentedDirRODoesNotMutate(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSegmentedDir(dir, 64)
	if err != nil {
		t.Fatal(err)
	}
	want := batch(150, 'o')
	appendSync(t, s, want)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// The torn-tail crash shape: junk segment 3 persisted.
	if err := os.WriteFile(segFile(dir, 3), rawSegment(fill(64, 'J')), 0o644); err != nil {
		t.Fatal(err)
	}
	snapshot := func() map[string]int64 {
		out := make(map[string]int64)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			info, err := e.Info()
			if err != nil {
				t.Fatal(err)
			}
			out[e.Name()] = info.Size()
		}
		return out
	}
	before := snapshot()

	ro, err := OpenSegmentedDirRO(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := ro.DurableSize(); got != 150 {
		t.Fatalf("RO DurableSize = %d, want the watermark 150", got)
	}
	if got := ro.RepairedTailBytes(); got != 64 {
		t.Fatalf("RO RepairedTailBytes = %d, want 64", got)
	}
	got := make([]byte, 150)
	if _, err := ro.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("RO read mismatch")
	}
	if _, err := ro.Append([]byte("x")); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("RO Append: %v, want ErrReadOnly", err)
	}
	if err := ro.Sync(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("RO Sync: %v, want ErrReadOnly", err)
	}
	if err := ro.Truncate(100); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("RO Truncate: %v, want ErrReadOnly", err)
	}
	if err := ro.Close(); err != nil {
		t.Fatal(err)
	}
	after := snapshot()
	if len(before) != len(after) {
		t.Fatalf("RO open changed the directory: %v → %v", before, after)
	}
	for name, size := range before {
		if after[name] != size {
			t.Fatalf("RO open resized %s: %d → %d", name, size, after[name])
		}
	}
	// The read-only open reports how it judged the headers: segment 2
	// holds the admitted watermark, the junk segment no slot at all.
	reports := ro.SlotReports()
	if len(reports) != 4 {
		t.Fatalf("SlotReports covers %d segments, want 4", len(reports))
	}
	if sl := reports[2].Slots[0]; !sl.Written || !sl.DataOK || !sl.Admitted || sl.Durable != 150 || sl.From != 0 {
		t.Fatalf("segment 2 slot 0 = %+v, want the admitted watermark 150 covering its Sync's [0, 150)", sl)
	}
	if sl := reports[3].Slots; sl[0].Written || sl[1].Written {
		t.Fatalf("junk segment reports written slots: %+v", sl)
	}
}

// A crash between parking dead segments and the archive drain leaves
// them on disk below the base; a reopen re-parks them and the next
// drain ships them.
func TestReopenDrainsPendingDeadSegments(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSegmentedDir(dir, 64)
	if err != nil {
		t.Fatal(err)
	}
	arch := newArchiver(t, NewMemObjectStore())
	s.SetArchiver(arch)
	want := append(batch(200, 'r'), batch(100, 'r')...) // the base starts a batch
	appendSync(t, s, want)
	if err := s.Truncate(200); err != nil {
		t.Fatal(err)
	}
	// "Crash" before ArchivePending ran: close with segments parked.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenSegmentedDir(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.PendingArchive(); len(got) != 3 {
		t.Fatalf("PendingArchive after reopen = %v, want the 3 dead segments", got)
	}
	// Reads of the live tail are unaffected by parked segments.
	p := make([]byte, 100)
	if _, err := s2.ReadAt(p, 200); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p, want[200:]) {
		t.Fatal("live tail mismatch with parked segments")
	}
	s2.SetArchiver(arch)
	if n, err := s2.ArchivePending(); err != nil || n != 3 {
		t.Fatalf("drain after reopen = (%d, %v), want (3, nil)", n, err)
	}
	for idx := int64(0); idx < 3; idx++ {
		got, err := arch.Retrieve(idx)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[idx*64:(idx+1)*64]) {
			t.Fatalf("archived segment %d mismatch after reopen drain", idx)
		}
	}
}

// A power cut undoes the drain's unlinks (they are not made durable), so
// the reopened device holds segment files wholly below its MANIFEST's
// base with no archiver to ship them. They are ordinary dead segments:
// the next Truncate recycles them, even though its horizon does not move.
func TestTruncateRecyclesDeadSegmentsACrashLeft(t *testing.T) {
	m := newMemDev(t, ProfileMemory, 64)
	defer func() { m.Close() }()
	want := append(batch(200, 'd'), batch(100, 'd')...) // segments 0..4; the base starts a batch
	appendSync(t, m, want)
	if err := m.Truncate(200); err != nil { // segments 0,1,2 dead
		t.Fatal(err)
	}
	m.crash(t)
	if got := m.Base(); got != 200 {
		t.Fatalf("Base = %d after the power cut, want the MANIFEST's 200", got)
	}
	for idx := int64(0); idx < 3; idx++ {
		if _, err := m.fs.Stat(segFile("/log", idx)); err != nil {
			t.Fatalf("segment %d did not come back with the power cut: %v", idx, err)
		}
	}
	if got := m.PendingArchive(); len(got) != 3 {
		t.Fatalf("PendingArchive = %v after the power cut, want the 3 dead segments", got)
	}
	if got := m.Segments(); len(got) != 2 || got[0].Index != 3 {
		t.Fatalf("Segments = %v, want the live segments 3 and 4 only", got)
	}

	if err := m.Truncate(200); err != nil {
		t.Fatal(err)
	}
	for idx := int64(0); idx < 3; idx++ {
		if _, err := m.fs.Stat(segFile("/log", idx)); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("dead segment %d survived the next truncation: %v", idx, err)
		}
	}
	if got := m.PendingArchive(); len(got) != 0 {
		t.Fatalf("PendingArchive = %v after the truncation, want empty", got)
	}
	if segs, _ := m.TruncStats(); segs != 3 {
		t.Fatalf("TruncStats = %d recycled, want 3", segs)
	}
	p := make([]byte, 100)
	if _, err := m.ReadAt(p, 200); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p, want[200:]) {
		t.Fatal("live tail mismatch after the drain")
	}
}
