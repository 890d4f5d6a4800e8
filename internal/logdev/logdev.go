// Package logdev models the stable storage the log is flushed to.
//
// The paper's ELR evaluation (§3.2) imposes log-device response times of
// 0 (ramdisk), 100µs (flash), 1ms (fast disk) and 10ms (slow disk) using a
// ramdisk plus high-resolution timers; Mem reproduces exactly that
// methodology. Segmented is the database's log device: the same profiles
// over fixed-size in-memory segments, or a directory of segment files
// whose CRC'd watermark slots record where the durable bytes end — the one
// device that outlives the process, and it does all its I/O through vfs.
//
// A device is an append-only byte stream with an explicit durability
// barrier: bytes become durable only when Sync returns. The flush daemon is
// the single writer; recovery reads the durable prefix after a (simulated)
// crash.
package logdev

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"aether/internal/metrics"
)

// Device is an append-only, explicitly-synced log volume.
type Device interface {
	// Append buffers p in the device's volatile write cache. It returns
	// the number of bytes accepted.
	Append(p []byte) (int, error)
	// Sync makes every appended byte durable, modeling the device's
	// response time. Group commit amortizes this call.
	Sync() error
	// DurableSize returns how many bytes are durable (survive a crash).
	DurableSize() int64
	// ReadAt reads from the durable prefix (io.ReaderAt semantics).
	// Reading unsynced bytes returns io.EOF at the durable boundary.
	ReadAt(p []byte, off int64) (int, error)
	// Close releases resources; further operations fail.
	Close() error
	// Stats returns operation counters for the experiments.
	Stats() *Stats
}

// Stats counts device operations. Figures 4 and 5 use Syncs to show group
// commit batching (fewer, larger I/Os as load grows).
type Stats struct {
	// Appends counts Append calls (write-cache fills).
	Appends metrics.Counter
	// Syncs counts completed Sync calls (durability barriers).
	Syncs metrics.Counter
	// Fsyncs counts the fsyncs a real device actually issued to honor
	// them: for Segmented, every segment-file and segment-directory
	// fsync (one per Sync in steady state; more when a batch spans or
	// creates segments, or Open repairs a torn tail). Simulated devices
	// issue none.
	Fsyncs metrics.Counter
	// BytesWritten counts bytes accepted by Append.
	BytesWritten metrics.Counter
	// SyncTime records the wall-clock latency of each Sync.
	SyncTime metrics.Histogram
}

// ErrClosed is returned after Close.
var ErrClosed = errors.New("logdev: device closed")

// Profile bundles the latency characteristics of a device class.
type Profile struct {
	// Name labels result rows ("memory", "flash", ...).
	Name string
	// SyncLatency is the fixed response time of one Sync (seek/program
	// time); the paper's 0/100µs/1ms/10ms series.
	SyncLatency time.Duration
	// BytesPerSecond throttles sustained write bandwidth; 0 = unlimited.
	BytesPerSecond int64
}

// Standard profiles matching the paper's evaluation series (§3.2).
var (
	ProfileMemory   = Profile{Name: "memory", SyncLatency: 0}
	ProfileFlash    = Profile{Name: "flash", SyncLatency: 100 * time.Microsecond}
	ProfileFastDisk = Profile{Name: "fast-disk", SyncLatency: time.Millisecond}
	ProfileSlowDisk = Profile{Name: "slow-disk", SyncLatency: 10 * time.Millisecond}
)

// Profiles lists the standard profiles in the order the paper's Figure 3
// legend uses.
var Profiles = []Profile{ProfileSlowDisk, ProfileFlash, ProfileFastDisk, ProfileMemory}

// simulateSync sleeps for the profile's imposed response time for a sync
// of pending bytes (seek/program latency plus bandwidth-limited
// transfer) — the shared core of every simulated device's Sync.
func (p Profile) simulateSync(pending int64) {
	if d := p.SyncLatency; d > 0 {
		time.Sleep(d)
	}
	if bps := p.BytesPerSecond; bps > 0 && pending > 0 {
		transfer := time.Duration(float64(pending) / float64(bps) * float64(time.Second))
		if transfer > 0 {
			time.Sleep(transfer)
		}
	}
}

// Mem is an in-memory device with configurable latency and crash
// simulation. It is safe for one writer concurrent with readers of the
// durable prefix.
type Mem struct {
	profile Profile

	mu      sync.Mutex
	data    []byte
	durable int64
	closed  bool
	failErr error // injected failure

	stats Stats
}

// NewMem returns an empty in-memory device with the given profile.
func NewMem(p Profile) *Mem {
	return &Mem{profile: p}
}

// Profile returns the device's latency profile.
func (m *Mem) Profile() Profile { return m.profile }

// Append implements Device.
func (m *Mem) Append(p []byte) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return 0, ErrClosed
	}
	if m.failErr != nil {
		return 0, m.failErr
	}
	m.data = append(m.data, p...)
	m.stats.Appends.Inc()
	m.stats.BytesWritten.Add(int64(len(p)))
	return len(p), nil
}

// Sync implements Device, sleeping for the profile's response time before
// publishing durability — the same imposed-latency technique the paper
// uses. Durability covers exactly the bytes appended before the call: a
// real fsync only hardens what was in the write cache when it started, so
// bytes appended mid-sync wait for the next one.
func (m *Mem) Sync() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return ErrClosed
	}
	if m.failErr != nil {
		err := m.failErr
		m.mu.Unlock()
		return err
	}
	target := int64(len(m.data))
	pending := target - m.durable
	m.mu.Unlock()

	start := time.Now()
	m.profile.simulateSync(pending)

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	if m.failErr != nil {
		return m.failErr
	}
	if target > int64(len(m.data)) {
		// A crash raced the sync and trimmed the cache; only what
		// survived can be durable.
		target = int64(len(m.data))
	}
	if target > m.durable {
		m.durable = target
	}
	m.stats.Syncs.Inc()
	m.stats.SyncTime.Observe(time.Since(start))
	return nil
}

// DurableSize implements Device.
func (m *Mem) DurableSize() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.durable
}

// ReadAt implements Device, reading only the durable prefix.
func (m *Mem) ReadAt(p []byte, off int64) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return 0, ErrClosed
	}
	if off < 0 {
		return 0, fmt.Errorf("logdev: negative offset %d", off)
	}
	if off >= m.durable {
		return 0, io.EOF
	}
	n := copy(p, m.data[off:m.durable])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// Crash simulates power loss: every byte not covered by a completed Sync
// vanishes. The device remains usable (as if remounted at restart).
func (m *Mem) Crash() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.data = m.data[:m.durable]
}

// ErrCrashed is returned by a frozen (crashed, not yet remounted) device.
var ErrCrashed = errors.New("logdev: device crashed")

// CrashFreeze simulates power loss with the host still wired up: unsynced
// bytes vanish and every subsequent write fails with ErrCrashed until
// Remount. Tests use it to stop a still-running flush daemon from
// extending the durable log past the crash point.
func (m *Mem) CrashFreeze() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.data = m.data[:m.durable]
	m.failErr = ErrCrashed
}

// Remount brings a frozen device back online (the restart).
func (m *Mem) Remount() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if errors.Is(m.failErr, ErrCrashed) {
		m.failErr = nil
	}
	m.data = m.data[:m.durable]
}

// FailWith injects err into every subsequent Append/Sync until cleared
// with FailWith(nil). Tests use this to exercise the flush daemon's error
// path.
func (m *Mem) FailWith(err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.failErr = err
}

// Close implements Device.
func (m *Mem) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	return nil
}

// Stats implements Device.
func (m *Mem) Stats() *Stats { return &m.stats }

// ReadAll returns the full durable contents of a device — the recovery
// scan's input.
func ReadAll(dev Device) ([]byte, error) {
	size := dev.DurableSize()
	buf := make([]byte, size)
	var off int64
	for off < size {
		n, err := dev.ReadAt(buf[off:], off)
		off += int64(n)
		if err != nil {
			if err == io.EOF && off == size {
				break
			}
			return nil, err
		}
	}
	return buf, nil
}

var _ Device = (*Mem)(nil)
