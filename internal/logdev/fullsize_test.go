package logdev

import (
	"bytes"
	"math"
	"os"
	"testing"

	"aether/internal/vfs"
)

// TestSegmentsBornFullSize is the count behind a blocking commit's
// cheaper fsync: a segment file is sized once, when it is created, to its
// header plus the whole segment, so no Sync's fsync carries a file-size
// change — and the sizing costs no fsync of its own.
func TestSegmentsBornFullSize(t *testing.T) {
	const (
		segSize = 64 << 10
		rec     = 218 // a TPC-B transaction's log bytes
		commits = 1000
		full    = SegmentHeaderSize + segSize
	)
	fs := vfs.NewFaultFS(1)
	if err := fs.MkdirAll("/db", 0o755); err != nil {
		t.Fatal(err)
	}
	s, err := OpenSegmentedDirFS(fs, "/db", segSize)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	truncates := fs.AddRule(vfs.Rule{Op: vfs.OpTruncate, Dir: "/db", Path: "*.seg", After: math.MaxInt}) // counts, never fires
	size := func(idx int64) int64 {
		t.Helper()
		st, err := fs.Stat(segFile("/db", idx))
		if err != nil {
			t.Fatal(err)
		}
		return st.Size()
	}

	var end, created, wantFsyncs int64
	for i := 0; i < commits; i++ {
		if _, err := s.Append(fill(rec, byte('a'+i%26))); err != nil {
			t.Fatal(err)
		}
		first, last := end/segSize, (end+rec-1)/segSize
		end += rec
		if last >= created {
			for ; created <= last; created++ {
				if got := size(created); got != full {
					t.Fatalf("segment %d is %d bytes before its first Sync, want %d", created, got, full)
				}
			}
			wantFsyncs++ // the directory fsync for the new entry
		}
		wantFsyncs += last - first + 1 // one per segment the batch touches
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		for idx := int64(0); idx < created; idx++ {
			if got := size(idx); got != full {
				t.Fatalf("after Sync %d segment %d is %d bytes, want %d", i, idx, got, full)
			}
		}
	}
	if created < 2 {
		t.Fatalf("%d commits filled %d segments; the test needs at least 2", commits, created)
	}
	if got := fs.RuleStats()[truncates].Matched; got != int(created) {
		t.Fatalf("%d truncates of segment files for %d segments created, want one each", got, created)
	}
	if got := s.Stats().Fsyncs.Load(); got != wantFsyncs {
		t.Fatalf("Stats.Fsyncs = %d over %d Syncs, want %d", got, commits, wantFsyncs)
	}
	if got := s.DurableSize(); got != end {
		t.Fatalf("DurableSize = %d, want %d", got, end)
	}
}

// A directory written before segments were born full-size — every file
// as long as its header plus its data — opens unchanged with nothing
// reported torn; the open gives the tail file its full size, and the log
// goes on from there across another reopen.
func TestShortSegmentFilesReopen(t *testing.T) {
	const segSize = 256
	dir := t.TempDir()
	s, err := OpenSegmentedDir(dir, segSize)
	if err != nil {
		t.Fatal(err)
	}
	want := append(batch(300, 'v'), batch(300, 'v')...) // segments 0 and 1 full, segment 2 holds 88 bytes
	appendSync(t, s, want[:300])
	appendSync(t, s, want[300:])
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for idx := int64(0); idx < 3; idx++ {
		if err := os.Truncate(segFile(dir, idx), SegmentHeaderSize+min(segSize, 600-idx*segSize)); err != nil {
			t.Fatal(err)
		}
	}

	s2, err := OpenSegmentedDir(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.DurableSize(); got != 600 {
		t.Fatalf("DurableSize = %d, want 600", got)
	}
	if got := s2.RepairedTailBytes(); got != 0 {
		t.Fatalf("RepairedTailBytes = %d on a clean short-file directory, want 0", got)
	}
	st, err := os.Stat(segFile(dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != SegmentHeaderSize+segSize {
		t.Fatalf("tail segment is %d bytes after the open, want %d", st.Size(), SegmentHeaderSize+segSize)
	}
	more := batch(200, 'w') // crosses into segment 3
	appendSync(t, s2, more)
	want = append(want, more...)
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	s3, err := OpenSegmentedDir(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if got := s3.DurableSize(); got != 800 {
		t.Fatalf("DurableSize after the second reopen = %d, want 800", got)
	}
	got := make([]byte, 800)
	if _, err := s3.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("log does not read back across the reopens")
	}
}

// A clean reopen of full-size segments reads one block past the
// watermark and writes nothing. Bytes a crash leaves past the watermark
// are counted up to the last non-zero one, wherever it lies, and zeroed.
func TestTornTailPastAllocatedZeros(t *testing.T) {
	const segSize = 64 << 10
	fs := vfs.NewFaultFS(1)
	if err := fs.MkdirAll("/db", 0o755); err != nil {
		t.Fatal(err)
	}
	s, err := OpenSegmentedDirFS(fs, "/db", segSize)
	if err != nil {
		t.Fatal(err)
	}
	want := batch(100_000, 'c') // segment 1 holds 34 464 bytes
	appendSync(t, s, want)
	s.Close()
	tail := segFile("/db", 1)
	wmOff := int64(SegmentHeaderSize + 100_000 - segSize) // file offset of the watermark

	mark := fs.Trace()[len(fs.Trace())-1].Seq
	before := fs.OpCounts()
	s2, err := OpenSegmentedDirFS(fs, "/db", 0)
	if err != nil {
		t.Fatal(err)
	}
	after := fs.OpCounts()
	for _, op := range []vfs.Op{vfs.OpWrite, vfs.OpTruncate, vfs.OpSync, vfs.OpSyncDir, vfs.OpRemove, vfs.OpRename} {
		if after[op] != before[op] {
			t.Errorf("clean reopen issued %d %s ops", after[op]-before[op], op)
		}
	}
	var past int64
	for _, e := range fs.Trace() {
		if e.Seq > mark && e.Op == vfs.OpRead && e.Path == tail && e.Off+int64(e.Len) > wmOff {
			past += e.Off + int64(e.Len) - max(e.Off, wmOff)
		}
	}
	if past > tailBlock {
		t.Errorf("clean reopen read %d bytes past the watermark, want at most %d", past, tailBlock)
	}
	if got := s2.RepairedTailBytes(); got != 0 {
		t.Fatalf("RepairedTailBytes = %d on a clean reopen, want 0", got)
	}
	s2.Close()

	// A crash persisted bytes inside the first block past the watermark
	// and beyond it.
	f, err := fs.OpenFile(tail, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range []int64{100, 10_000} {
		if _, err := f.WriteAt(fill(50, 'J'), wmOff+off); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	s3, err := OpenSegmentedDirFS(fs, "/db", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := s3.RepairedTailBytes(); got != 10_050 {
		t.Fatalf("RepairedTailBytes = %d, want the 10 050 bytes up to the last torn one", got)
	}
	s3.Close()
	img, err := fs.ReadFile(tail)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(img)) != SegmentHeaderSize+segSize || !allZero(img[wmOff:]) {
		t.Fatalf("repaired tail segment: %d bytes, zero past the watermark %v", len(img), allZero(img[wmOff:]))
	}
	if !bytes.Equal(img[SegmentHeaderSize:wmOff], want[segSize:]) {
		t.Fatal("repair damaged the durable bytes")
	}
}
