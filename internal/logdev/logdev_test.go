package logdev

import (
	"errors"
	"io"
	"testing"
	"time"
)

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
	m := NewMem(ProfileMemory)
	m.Append([]byte("durable."))
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	m.Append([]byte("volatile"))
	m.Crash()
	buf, _, err := ReadTail(m)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf) != "durable." {
		t.Fatalf("after crash: %q", buf)
	}
	// Device stays usable after the crash (restart semantics).
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

func TestMemFailureInjection(t *testing.T) {
	m := NewMem(ProfileMemory)
	boom := errors.New("boom")
	m.FailWith(boom)
	if _, err := m.Append([]byte("x")); !errors.Is(err, boom) {
		t.Fatalf("append: got %v", err)
	}
	if err := m.Sync(); !errors.Is(err, boom) {
		t.Fatalf("sync: got %v", err)
	}
	m.FailWith(nil)
	if _, err := m.Append([]byte("x")); err != nil {
		t.Fatalf("after clearing: %v", err)
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
