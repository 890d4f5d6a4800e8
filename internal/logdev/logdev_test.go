package logdev

import (
	"errors"
	"fmt"
	"io"
	"testing"
	"time"

	"aether/internal/vfs"
)

// memDev is a device on an in-memory filesystem of its own, as NewMem
// builds one, with its filesystem at hand for power cuts and fault rules.
type memDev struct {
	*Segmented
	fs *vfs.FaultFS
}

func newMemDev(t *testing.T, p Profile, segSize int64) *memDev {
	t.Helper()
	fs := vfs.NewFaultFS(1)
	s, err := OpenSegmentedDirFS(fs, "/log", segSize)
	if err != nil {
		t.Fatal(err)
	}
	s.SetProfile(p)
	return &memDev{Segmented: s, fs: fs}
}

// crash cuts the power under the device and reopens it from what the
// filesystem kept, the way a restart would.
func (m *memDev) crash(t *testing.T) {
	t.Helper()
	m.fs.PowerCut()
	m.Close()
	m.fs.Recover()
	s, err := OpenSegmentedDirFS(m.fs, "/log", 0)
	if err != nil {
		t.Fatalf("reopen after power cut: %v", err)
	}
	s.SetProfile(m.profile)
	m.Segmented = s
}

func TestMemAppendSyncDurable(t *testing.T) {
	m := NewMem(ProfileMemory)
	if _, err := m.Append([]byte("hello ")); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Append([]byte("world")); err != nil {
		t.Fatal(err)
	}
	if got := m.DurableSize(); got != 0 {
		t.Fatalf("durable before sync: %d", got)
	}
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := m.DurableSize(); got != 11 {
		t.Fatalf("durable after sync: %d", got)
	}
	buf, _, err := ReadTail(m)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf) != "hello world" {
		t.Fatalf("contents: %q", buf)
	}
}

func TestMemCrashDropsUnsynced(t *testing.T) {
	m := newMemDev(t, ProfileMemory, DefaultSegmentSize)
	m.Append([]byte("durable."))
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	m.Append([]byte("volatile"))
	m.crash(t)
	buf, _, err := ReadTail(m)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf) != "durable." {
		t.Fatalf("after crash: %q", buf)
	}
	// The reopened device appends where the durable log ended.
	m.Append([]byte("again"))
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	buf, _, _ = ReadTail(m)
	if string(buf) != "durable.again" {
		t.Fatalf("after restart: %q", buf)
	}
}

func TestMemReadAtBounds(t *testing.T) {
	m := NewMem(ProfileMemory)
	m.Append([]byte("0123456789"))
	m.Sync()
	m.Append([]byte("unsynced"))

	p := make([]byte, 4)
	n, err := m.ReadAt(p, 3)
	if err != nil || n != 4 || string(p) != "3456" {
		t.Fatalf("ReadAt(3): n=%d err=%v p=%q", n, err, p)
	}
	// Reading past the durable boundary hits EOF even though volatile
	// bytes exist.
	if _, err := m.ReadAt(p, 10); err != io.EOF {
		t.Fatalf("ReadAt(durable boundary): err=%v", err)
	}
	// Partial read at the end.
	n, err = m.ReadAt(p, 8)
	if n != 2 || err != io.EOF {
		t.Fatalf("partial ReadAt: n=%d err=%v", n, err)
	}
	if _, err := m.ReadAt(p, -1); err == nil {
		t.Fatal("negative offset must error")
	}
}

func TestMemSyncLatency(t *testing.T) {
	m := NewMem(Profile{Name: "test", SyncLatency: 20 * time.Millisecond})
	m.Append([]byte("x"))
	start := time.Now()
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Fatalf("sync returned in %v, want >= 20ms", elapsed)
	}
}

func TestMemBandwidthThrottle(t *testing.T) {
	// 1 MB/s: syncing 100KB should take >= ~100ms.
	m := NewMem(Profile{Name: "slow", BytesPerSecond: 1 << 20})
	m.Append(make([]byte, 100<<10))
	start := time.Now()
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Fatalf("throttled sync too fast: %v", elapsed)
	}
}

// TestMemFailureInjection: an I/O error the filesystem returns reaches
// the device's caller, and the device works again once the fault clears.
func TestMemFailureInjection(t *testing.T) {
	m := newMemDev(t, ProfileMemory, 64)
	boom := errors.New("boom")
	m.fs.AddRule(vfs.Rule{Op: vfs.OpWrite, Err: boom})
	if _, err := m.Append([]byte("x")); !errors.Is(err, boom) {
		t.Fatalf("append: got %v", err)
	}
	m.fs.ClearRules()
	if _, err := m.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	m.fs.AddRule(vfs.Rule{Op: vfs.OpSync, Err: boom})
	if err := m.Sync(); !errors.Is(err, boom) {
		t.Fatalf("sync: got %v", err)
	}
	m.fs.ClearRules()
	appendSync(t, m, []byte("y"))
	if got := m.DurableSize(); got != 2 {
		t.Fatalf("durable after clearing = %d, want 1", got)
	}
}

func TestMemClosed(t *testing.T) {
	m := NewMem(ProfileMemory)
	m.Close()
	if _, err := m.Append([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v", err)
	}
	if err := m.Sync(); !errors.Is(err, ErrClosed) {
		t.Fatalf("sync after close: %v", err)
	}
	if _, err := m.ReadAt(make([]byte, 1), 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("read after close: %v", err)
	}
}

func TestMemStats(t *testing.T) {
	m := NewMem(ProfileMemory)
	m.Append([]byte("abc"))
	m.Append([]byte("de"))
	m.Sync()
	st := m.Stats()
	if st.Appends.Load() != 2 || st.Syncs.Load() != 1 || st.BytesWritten.Load() != 5 {
		t.Fatalf("stats: appends=%d syncs=%d bytes=%d",
			st.Appends.Load(), st.Syncs.Load(), st.BytesWritten.Load())
	}
}

func TestProfilesOrdering(t *testing.T) {
	if len(Profiles) != 4 {
		t.Fatalf("want 4 standard profiles, got %d", len(Profiles))
	}
	if ProfileFlash.SyncLatency != 100*time.Microsecond {
		t.Fatal("flash latency wrong")
	}
	if ProfileSlowDisk.SyncLatency != 10*time.Millisecond {
		t.Fatal("slow disk latency wrong")
	}
}

// BenchmarkMemAppendSync is one flush group through an in-memory device:
// Append, then Sync with its watermark read-back, slot write and fsync on
// the in-memory filesystem. 220 B is one TPC-B transaction's log, 14 KiB
// a pipelined group.
func BenchmarkMemAppendSync(b *testing.B) {
	for _, size := range []int{220, 14 << 10} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			m := NewMem(ProfileMemory)
			defer m.Close()
			p := make([]byte, size)
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				if _, err := m.Append(p); err != nil {
					b.Fatal(err)
				}
				if err := m.Sync(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
