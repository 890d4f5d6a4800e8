// Package logdev models the stable storage the log is flushed to.
//
// There is one log device, Segmented: an append-only byte stream spread
// over fixed-size segments in a directory on a vfs.FS. Each segment is a
// file, created at its full size (header plus segment) so that no
// commit's fsync grows it, whose CRC'd watermark slots — not its length —
// record where the durable bytes end; a MANIFEST holds the segment size
// and the truncation horizon. On the real filesystem (OpenSegmentedDir)
// the device outlives the process. On an in-memory one (NewMem, or
// OpenSegmentedDirFS over a vfs.FaultFS) it reproduces the paper's ELR
// evaluation methodology (§3.2): the real log on a ramdisk, with
// log-device response times of 0 (ramdisk), 100µs (flash), 1ms (fast
// disk) and 10ms (slow disk) imposed by a Profile on every Sync. A crash
// is a power cut of that filesystem followed by a reopen; the device
// itself has no crash mode.
//
// A device is an append-only byte stream with an explicit durability
// barrier: bytes become durable only when Sync returns. The flush daemon is
// the single writer; recovery reads the durable tail after a (simulated)
// crash.
package logdev

import (
	"errors"
	"time"

	"aether/internal/metrics"
	"aether/internal/vfs"
)

// Device is what the log manager asks of its log volume: Segmented's
// methods, as an interface so tests can wrap a device to delay or stall
// its Append and Sync.
type Device interface {
	// Append buffers p in the device's volatile write cache. It returns
	// the number of bytes accepted.
	Append(p []byte) (int, error)
	// Sync makes every appended byte durable, modeling the device's
	// response time. Group commit amortizes this call.
	Sync() error
	// DurableSize returns the logical offset the durable bytes end at
	// (they survive a crash). It counts from the beginning of time, the
	// truncated prefix included, so LSNs stay stable across truncation.
	DurableSize() int64
	// ReadAt reads from the durable tail [Base, DurableSize) with
	// io.ReaderAt semantics: reading unsynced bytes returns io.EOF at the
	// durable boundary, and offsets below Base are an error.
	ReadAt(p []byte, off int64) (int, error)
	// Truncate advances the truncation horizon to before (clamped to the
	// durable size) and recycles every whole segment below it. before
	// must be a record boundary — recovery starts its scan exactly there.
	Truncate(before int64) error
	// Base returns the truncation horizon: the logical offset of the
	// first readable byte (0 if nothing was ever truncated).
	Base() int64
	// ArchivePending ships every dead segment awaiting recycle to the
	// attached archiver and recycles it, returning how many were
	// archived this pass.
	ArchivePending() (int, error)
	// HasArchiver reports whether an archiver is attached.
	HasArchiver() bool
	// Close releases resources; further operations fail.
	Close() error
	// Stats returns operation counters for the experiments.
	Stats() *Stats
}

// DefaultSegmentSize is the segment size of an in-memory device made by
// NewMem and of a new database log that names none.
const DefaultSegmentSize = 8 << 20

// NewMem returns an empty device with DefaultSegmentSize segments and
// the given latency profile, in a directory of an in-memory filesystem
// of its own: the segmented directory engine over a ramdisk.
func NewMem(p Profile) *Segmented {
	s, err := OpenSegmentedDirFS(vfs.NewFaultFS(1), "/log", DefaultSegmentSize)
	if err != nil {
		panic("logdev: in-memory device: " + err.Error()) // a fresh FaultFS cannot refuse it
	}
	s.SetProfile(p)
	return s
}

// Stats counts device operations. Figures 4 and 5 use Syncs to show group
// commit batching (fewer, larger I/Os as load grows).
type Stats struct {
	// Appends counts Append calls (write-cache fills).
	Appends metrics.Counter
	// Syncs counts completed Sync calls (durability barriers).
	Syncs metrics.Counter
	// Fsyncs counts the fsyncs the device actually issued to honor them:
	// every segment-file and segment-directory fsync (one per Sync in
	// steady state; more when a batch spans or creates segments, or Open
	// repairs a torn tail), on an in-memory filesystem as on a disk.
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
// transfer), paid by Segmented's Sync before it hardens the batch.
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
