package logbuf

import (
	"runtime"
	"sync/atomic"
	"time"

	"aether/internal/lsn"
	"aether/internal/metrics"
)

// spinner is the waiting policy for chain-critical waits (in-order
// release, slot notification). Two failure modes constrain it:
//
//   - It must never sleep: the release protocol serializes these waits,
//     and one sleeping waiter (Linux timer slack turns a 1µs sleep into
//     ~60µs) poisons the whole chain — orders-of-magnitude collapse.
//   - It must rarely call runtime.Gosched: Gosched moves the goroutine
//     through the runtime's global run queue under the scheduler lock;
//     a dozen hot-spinning goroutines convoy on that lock and starve
//     the very thread being waited for.
//
// So: busy-spin with a deliberate per-iteration pause (core-local atomic
// loads, ~30ns) to keep the watched cache line from being hammered, and
// a yield only every 4096 iterations (~100µs) purely as a fairness
// safety valve for goroutine counts above GOMAXPROCS. The paper's SPARC
// T2 spins the same way on dedicated hardware threads.
type spinner struct {
	n     uint32
	pause atomic.Uint32 // spinner-local; loads stay core-local
}

func (s *spinner) spin() {
	s.n++
	if s.n&4095 == 0 {
		runtime.Gosched()
		return
	}
	for i := 0; i < 16; i++ {
		_ = s.pause.Load()
	}
}

// spinLock is the log-buffer mutex: a test-and-test-and-set spinlock.
// The paper's critical sections here are sub-microsecond (LSN bump, or
// LSN bump + one memcpy), which is exactly the regime where parking
// locks lose: Go's sync.Mutex flips into starvation (handoff) mode after
// one unlucky >1ms wait and then serializes every acquisition through a
// goroutine wakeup (~10µs), collapsing insert throughput by an order of
// magnitude and never recovering. A spinlock matches both the paper's
// implementation and the workload.
type spinLock struct {
	v atomic.Int32
}

// TryLock attempts the lock without waiting.
func (l *spinLock) TryLock() bool {
	return l.v.Load() == 0 && l.v.CompareAndSwap(0, 1)
}

// Lock spins until the lock is acquired.
func (l *spinLock) Lock() {
	var sp spinner
	for {
		if l.v.Load() == 0 && l.v.CompareAndSwap(0, 1) {
			return
		}
		sp.spin()
	}
}

// Unlock releases the lock. Like sync.Mutex, unlocking from a different
// goroutine than the locker is allowed (a locked-release group's last
// fill relies on it).
func (l *spinLock) Unlock() {
	l.v.Store(0)
}

// parkSpinner is the policy for long, non-chain waits (buffer space):
// busy, then yield, then sleep. Sleeping is fine here because the waiter
// resumes only after the flush daemon frees megabytes of space; latency
// is amortized.
type parkSpinner int

func (s *parkSpinner) spin() {
	n := *s
	*s++
	switch {
	case n < 128:
		// busy wait
	case n < 512:
		runtime.Gosched()
	default:
		time.Sleep(5 * time.Microsecond)
	}
}

// ring is the circular byte buffer all variants share. LSNs are logical
// byte addresses; the physical location of LSN l is l & mask. Three
// watermarks partition the LSN space:
//
//	flushed  ≤  released  ≤  next (variant-owned insertion point)
//
// [0, flushed)        — copied out by the flusher; space reclaimable.
// [flushed, released) — filled and released; the flusher may drain it.
// [released, next)    — acquired by inserters, fills in flight.
//
// A writer may only touch bytes whose LSN is within capacity of the
// flushed watermark, which waitForSpace enforces.
type ring struct {
	buf      []byte
	capacity uint64
	mask     uint64

	released lsn.Atomic
	flushed  lsn.Atomic

	bd *metrics.Breakdown // optional probe; nil disables
}

func newRing(size int, base lsn.LSN, bd *metrics.Breakdown) *ring {
	r := &ring{
		buf:      make([]byte, size),
		capacity: uint64(size),
		mask:     uint64(size - 1),
		bd:       bd,
	}
	r.released.Store(base)
	r.flushed.Store(base)
	return r
}

// waitForSpace blocks until the region ending at end fits in the ring,
// i.e. no byte of it would overwrite unflushed data. Progress is
// guaranteed because the flusher drains released bytes independently of
// any lock the caller may hold, and every byte below the caller's region
// eventually gets released (fills never block on acquisition). The wait
// is not charged here: it falls inside the caller's contention lap.
func (r *ring) waitForSpace(end lsn.LSN) {
	var sp parkSpinner
	for uint64(end)-uint64(r.flushed.Load()) > r.capacity {
		sp.spin()
	}
}

// copyIn writes p at LSN start, wrapping across the physical end of the
// buffer if needed. The caller must own [start, start+len(p)).
func (r *ring) copyIn(start lsn.LSN, p []byte) {
	off := uint64(start) & r.mask
	n := copy(r.buf[off:], p)
	if n < len(p) {
		copy(r.buf, p[n:])
	}
}

// copyOut linearizes [start, end) into dst.
func (r *ring) copyOut(dst []byte, start, end lsn.LSN) int {
	total := int(end.Sub(start))
	if total > len(dst) {
		total = len(dst)
		end = start.Add(total)
	}
	off := uint64(start) & r.mask
	n := copy(dst[:total], r.buf[off:])
	if n < total {
		copy(dst[n:total], r.buf)
	}
	return total
}

// publishInOrder implements Algorithm 3's release step: wait until every
// earlier byte is released, then advance the frontier past our region.
// The implicit queue of the release LSN avoids atomics beyond one load
// and one store per release.
func (r *ring) publishInOrder(start, end lsn.LSN) {
	if r.released.Load() != start {
		var t0 time.Time
		if r.bd != nil {
			t0 = time.Now()
		}
		var sp spinner
		for r.released.Load() != start {
			sp.spin()
		}
		if r.bd != nil {
			r.bd.Add(metrics.PhaseLogContention, time.Since(t0))
		}
	}
	r.released.Store(end)
}

// publish advances the release frontier when the caller already holds
// exclusive release rights (locked release: the mutex is held here).
func (r *ring) publish(end lsn.LSN) {
	r.released.Store(end)
}
