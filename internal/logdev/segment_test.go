package logdev

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"aether/internal/logrec"
	"aether/internal/vfs"
)

// fill returns n bytes of a repeating pattern seeded by b.
func fill(n int, b byte) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = b + byte(i%7)
	}
	return p
}

// batch returns n bytes of log as the flush daemon hardens them: a pad
// record whose payload is fill's pattern seeded by b, closed by its seal
// (logrec.AppendSeal), or two such batches where no one batch is n bytes
// long. Its first and last bytes are never zero, so a torn-tail count
// of it is its length. n is at least 9, a 2-byte pad and its seal.
func batch(n int, b byte) []byte {
	for m := n - logrec.MaxSealSize; m < n; m++ {
		if m < logrec.MinRecordSize || m+logrec.SealSize(m) != n {
			continue
		}
		pad := logrec.NewPad(m)
		if int(pad.EncodedSize()) != m {
			continue
		}
		for tweak := byte(0); ; tweak++ {
			copy(pad.Payload, fill(len(pad.Payload), b+tweak))
			enc, err := pad.Encode()
			if err != nil {
				panic(err)
			}
			if enc = logrec.AppendSeal(enc, 0); enc[n-1] != 0 {
				return enc
			}
		}
	}
	return append(batch(n/2, b), batch(n-n/2, b)...)
}

func appendSync(t *testing.T, dev Device, p []byte) {
	t.Helper()
	if n, err := dev.Append(p); err != nil || n != len(p) {
		t.Fatalf("Append: n=%d err=%v", n, err)
	}
	if err := dev.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
}

func TestSegmentedAppendReadAcrossBoundaries(t *testing.T) {
	for name, open := range map[string]func(t *testing.T) Device{
		"mem": func(t *testing.T) Device { return newMemDev(t, ProfileMemory, 64) },
		"dir": func(t *testing.T) Device {
			s, err := OpenSegmentedDir(t.TempDir(), 64)
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
	} {
		t.Run(name, func(t *testing.T) {
			dev := open(t)
			defer dev.Close()
			want := fill(300, 'a') // spans 5 segments of 64
			appendSync(t, dev, want)
			if got := dev.DurableSize(); got != 300 {
				t.Fatalf("DurableSize = %d, want 300", got)
			}
			got := make([]byte, 300)
			if _, err := io.ReadFull(io.NewSectionReader(dev, 0, 300), got); err != nil {
				t.Fatalf("read: %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("read-back mismatch across segment boundaries")
			}
			// A read straddling one boundary.
			part := make([]byte, 20)
			if _, err := dev.ReadAt(part, 60); err != nil {
				t.Fatalf("boundary read: %v", err)
			}
			if !bytes.Equal(part, want[60:80]) {
				t.Fatal("boundary read mismatch")
			}
		})
	}
}

func TestSegmentedTruncateRecyclesSegments(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSegmentedDir(dir, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	appendSync(t, s, fill(300, 'x')) // segments 0..4

	if err := s.Truncate(200); err != nil { // segments 0,1,2 end at 64,128,192 ≤ 200
		t.Fatal(err)
	}
	if got := s.Base(); got != 200 {
		t.Fatalf("Base = %d, want 200", got)
	}
	segs, freed := s.TruncStats()
	if segs != 3 || freed != 200 {
		t.Fatalf("TruncStats = (%d, %d), want (3, 200)", segs, freed)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
	if len(files) != 2 {
		t.Fatalf("%d segment files remain, want 2: %v", len(files), files)
	}
	// Reads below the horizon fail; reads at it succeed.
	if _, err := s.ReadAt(make([]byte, 8), 100); err == nil {
		t.Fatal("ReadAt below base succeeded")
	}
	p := make([]byte, 8)
	if _, err := s.ReadAt(p, 200); err != nil {
		t.Fatalf("ReadAt at base: %v", err)
	}
	if !bytes.Equal(p, fill(300, 'x')[200:208]) {
		t.Fatal("ReadAt at base returned wrong bytes")
	}
	// Truncate is idempotent and never moves backwards.
	if err := s.Truncate(150); err != nil {
		t.Fatal(err)
	}
	if got := s.Base(); got != 200 {
		t.Fatalf("Base moved backwards to %d", got)
	}
}

func TestSegmentedDirReopenAfterTruncate(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSegmentedDir(dir, 64)
	if err != nil {
		t.Fatal(err)
	}
	want := append(batch(200, 'r'), batch(100, 'r')...) // the base starts a batch
	appendSync(t, s, want)
	if err := s.Truncate(200); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen with segment size taken from the manifest.
	s2, err := OpenSegmentedDir(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.SegmentSize() != 64 {
		t.Fatalf("SegmentSize = %d after reopen", s2.SegmentSize())
	}
	if s2.Base() != 200 {
		t.Fatalf("Base = %d after reopen, want 200", s2.Base())
	}
	if s2.DurableSize() != 300 {
		t.Fatalf("DurableSize = %d after reopen, want 300", s2.DurableSize())
	}
	got := make([]byte, 100)
	if _, err := s2.ReadAt(got, 200); err != nil {
		t.Fatalf("ReadAt after reopen: %v", err)
	}
	if !bytes.Equal(got, want[200:]) {
		t.Fatal("tail mismatch after reopen")
	}
	// Appends continue at the logical end.
	appendSync(t, s2, batch(10, 'z'))
	if s2.DurableSize() != 310 {
		t.Fatalf("DurableSize = %d after append, want 310", s2.DurableSize())
	}
	// A mismatched segment size is rejected.
	s2.Close()
	if _, err := OpenSegmentedDir(dir, 128); err == nil {
		t.Fatal("mismatched segment size accepted")
	}
}

func TestSegmentedMemCrashDropsUnsynced(t *testing.T) {
	s := newMemDev(t, ProfileMemory, 64)
	defer func() { s.Close() }()
	appendSync(t, s, batch(100, 'd'))
	if _, err := s.Append(batch(100, 'u')); err != nil { // unsynced
		t.Fatal(err)
	}
	s.fs.PowerCut()
	if _, err := s.Append([]byte("x")); !errors.Is(err, vfs.ErrPowerCut) {
		t.Fatalf("Append after the power cut: %v", err)
	}
	s.fs.Recover()
	s.crash(t)
	if got := s.DurableSize(); got != 100 {
		t.Fatalf("DurableSize after crash = %d, want 100", got)
	}
	// The unsynced region reads as gone (EOF past durable).
	if _, err := s.ReadAt(make([]byte, 1), 150); err != io.EOF {
		t.Fatalf("read past durable after crash: %v", err)
	}
	// New appends land where the durable log ended.
	appendSync(t, s, batch(28, 'n')) // exactly up to the segment boundary at 128
	got := make([]byte, 28)
	if _, err := s.ReadAt(got, 100); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, batch(28, 'n')) {
		t.Fatal("post-crash append mismatch")
	}
}

func TestSegmentedTruncateKeepsNewestSegment(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSegmentedDir(dir, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	appendSync(t, s, batch(128, 'k')) // exactly two full segments
	if err := s.Truncate(128); err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
	if len(files) != 1 {
		t.Fatalf("%d files remain, want the newest kept: %v", len(files), files)
	}
	s.Close()
	s2, err := OpenSegmentedDir(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Base() != 128 || s2.DurableSize() != 128 {
		t.Fatalf("reopen after full truncation: base=%d durable=%d, want 128/128", s2.Base(), s2.DurableSize())
	}
}

// TestMemSyncDoesNotPublishMidSyncAppends is the regression test for the
// durability bug where bytes appended during a slow Sync were marked
// durable without paying for a sync: a crash right after Sync returned
// must only preserve what was appended before the call.
func TestMemSyncDoesNotPublishMidSyncAppends(t *testing.T) {
	m := newMemDev(t, Profile{Name: "slow", SyncLatency: 50 * time.Millisecond}, DefaultSegmentSize)
	defer func() { m.Close() }()
	if _, err := m.Append(batch(100, 'a')); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- m.Sync() }()
	time.Sleep(10 * time.Millisecond) // sync is inside its latency sleep
	if _, err := m.Append(batch(50, 'b')); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := m.DurableSize(); got != 100 {
		t.Fatalf("DurableSize after mid-sync append = %d, want 100 (mid-sync bytes must not be durable)", got)
	}
	m.crash(t)
	if _, err := m.ReadAt(make([]byte, 1), 100); err != io.EOF {
		t.Fatalf("mid-sync append survived the crash: %v", err)
	}
	// The next sync pays for and hardens the remainder.
	if _, err := m.Append(batch(50, 'b')); err != nil {
		t.Fatal(err)
	}
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := m.DurableSize(); got != 150 {
		t.Fatalf("DurableSize after second sync = %d, want 150", got)
	}
}

// Same contract for the segmented device.
func TestSegmentedSyncDoesNotPublishMidSyncAppends(t *testing.T) {
	s := newMemDev(t, Profile{Name: "slow", SyncLatency: 50 * time.Millisecond}, 64)
	defer s.Close()
	if _, err := s.Append(fill(100, 'a')); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Sync() }()
	time.Sleep(10 * time.Millisecond)
	if _, err := s.Append(fill(50, 'b')); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := s.DurableSize(); got != 100 {
		t.Fatalf("DurableSize after mid-sync append = %d, want 100", got)
	}
}

func TestOpenSegmentedDirRejectsMissingSize(t *testing.T) {
	if _, err := OpenSegmentedDir(t.TempDir(), 0); err == nil {
		t.Fatal("fresh segmented dir with no segment size accepted")
	}
}

func TestSegmentedDoubleCloseAndStrayFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSegmentedDir(dir, 64)
	if err != nil {
		t.Fatal(err)
	}
	appendSync(t, s, fill(10, 's'))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	// A stray .seg file is rejected rather than silently misparsed.
	if err := os.WriteFile(filepath.Join(dir, "junk.seg"), []byte("?"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSegmentedDir(dir, 0); err == nil {
		t.Fatal("stray segment file accepted")
	}
}

// TestHardenReadsNothingBack counts, not times, what a harden costs in
// reads: a watermark slot carries no checksum of the bytes it covers —
// their seals, computed before they reach the device, vouch for them —
// so 1 000 append+Sync hardens, segment switches and batches that
// straddle them included, read not one byte of a segment file. A reopen
// then admits the last slot: the seals vouch for what the file holds.
func TestHardenReadsNothingBack(t *testing.T) {
	fs := vfs.NewFaultFS(1)
	dev, err := OpenSegmentedDirFS(fs, "/log", 4096)
	if err != nil {
		t.Fatal(err)
	}
	reads := fs.OpCounts()[vfs.OpRead]
	for i := 0; i < 1000; i++ {
		appendSync(t, dev, batch(9+i*37%300, byte(i)))
	}
	if got := fs.OpCounts()[vfs.OpRead] - reads; got != 0 {
		t.Fatalf("1 000 hardens read segment files %d times, want 0", got)
	}
	durable := dev.DurableSize()
	if err := dev.Close(); err != nil {
		t.Fatal(err)
	}
	fs.PowerCut()
	fs.Recover()
	dev, err = OpenSegmentedDirFS(fs, "/log", 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	if got := dev.DurableSize(); got != durable {
		t.Fatalf("reopen after a power cut: durable %d, want %d (the seals did not vouch for the last slot's bytes)", got, durable)
	}
}

// TestSlotAfterFailedSyncCoversBoth: a Sync that fails leaves its bytes
// to the next one, whose slot must cover them and what was appended
// since — its range begins at the durable end, not where the Sync that
// did not complete would have ended.
func TestSlotAfterFailedSyncCoversBoth(t *testing.T) {
	fs := vfs.NewFaultFS(1)
	dev, err := OpenSegmentedDirFS(fs, "/log", 4096)
	if err != nil {
		t.Fatal(err)
	}
	appendSync(t, dev, batch(100, 1))
	fs.AddRule(vfs.Rule{Op: vfs.OpSync, Times: 1})
	if _, err := dev.Append(batch(200, 2)); err != nil {
		t.Fatal(err)
	}
	if err := dev.Sync(); err == nil {
		t.Fatal("the injected fsync failure did not fail Sync")
	}
	appendSync(t, dev, batch(50, 3))
	if err := dev.Close(); err != nil {
		t.Fatal(err)
	}
	fs.PowerCut()
	fs.Recover()
	dev, err = OpenSegmentedDirFS(fs, "/log", 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	if got := dev.DurableSize(); got != 350 {
		t.Fatalf("reopen: durable %d, want 350", got)
	}
}
