package logbuf

import (
	"sync/atomic"
	"time"

	"aether/internal/lsn"
	"aether/internal/metrics"
)

// xorshift is a tiny per-inserter PRNG (xorshift64*) used for slot probing
// and the CDME anti-treadmill coin. Each inserter owns one, so random
// choices never rendezvous on shared state.
type xorshift struct {
	s uint64
}

var rngSeed atomic.Uint64

func newXorshift() *xorshift {
	seed := rngSeed.Add(0x9E3779B97F4A7C15)
	if seed == 0 {
		seed = 1
	}
	return &xorshift{s: seed}
}

func (x *xorshift) next() uint64 {
	s := x.s
	s ^= s << 13
	s ^= s >> 7
	s ^= s << 17
	x.s = s
	return s * 0x2545F4914F6CDD1D
}

// probeTimer optionally charges contention/work phases to a breakdown.
type probeTimer struct {
	bd *metrics.Breakdown
	t0 time.Time
}

func (p *probeTimer) start(bd *metrics.Breakdown) {
	if bd != nil {
		p.bd = bd
		p.t0 = time.Now()
	}
}

func (p *probeTimer) lap(phase metrics.Phase) {
	if p.bd != nil {
		now := time.Now()
		p.bd.Add(phase, now.Sub(p.t0))
		p.t0 = now
	}
}

// Inserter is a per-worker handle for inserting encoded records. Handles
// are not safe for concurrent use; each goroutine takes its own, which
// gives the algorithms their thread-local state (probe RNG, delegation
// RNG, local-fill scratch) without any shared-state rendezvous.
type Inserter struct {
	b     *Buffer
	rng   *xorshift
	local []byte
}

// Insert copies one encoded record into the log and returns the LSN it
// was assigned (its address in the logical log stream). The insert
// reserves its own region when it gets the mutex at once, or when the
// variant does not consolidate and it waits for the mutex instead; a
// consolidating variant's insert that finds the mutex busy joins a group
// (insertGroup). Either way, each step is the variant's row of the table
// in the package doc.
func (ins *Inserter) Insert(p []byte) (lsn.LSN, error) {
	b := ins.b
	if len(p) > b.cfg.MaxGroup {
		return 0, ErrRecordTooLarge
	}
	var pt probeTimer
	pt.start(b.cfg.Breakdown)
	if !b.mu.TryLock() {
		if b.consolidate {
			return ins.insertGroup(p, &pt), nil
		}
		b.mu.Lock()
	}
	start, end, qn := b.reserve(len(p))
	pt.lap(metrics.PhaseLogContention)
	ins.fill(start, p)
	pt.lap(metrics.PhaseLogWork)
	b.publish(start, end, qn, ins.rng)
	return start, nil
}

// insertGroup is consolidation-array backoff (Algorithm 2): the group's
// leader takes the mutex and reserves one region for every member, each
// member fills its own part in parallel, and the last fill to finish
// publishes the whole region.
func (ins *Inserter) insertGroup(p []byte, pt *probeTimer) lsn.LSN {
	b := ins.b
	size := int64(len(p))
	s, offset := b.arr.join(ins.rng, size)
	var base lsn.LSN
	var group int64
	if offset == 0 {
		b.mu.Lock()
		group = b.arr.close(s)
		base, _, s.qnode = b.reserve(int(group))
		s.notify(base, group)
	} else {
		base, group = s.wait()
	}
	pt.lap(metrics.PhaseLogContention)

	my := base.Add(int(offset))
	ins.fill(my, p)
	pt.lap(metrics.PhaseLogWork)

	if s.release(size) {
		// Freeing hands the slot to the next group: read its queue node
		// first (base and group are already this goroutine's own).
		qn := s.qnode
		s.free()
		b.publish(base, base.Add(int(group)), qn, ins.rng)
	}
	return my
}

// reserve claims the next n bytes of the log for a caller holding the
// mutex, waiting for the flush daemon to free ring space if it must (the
// caller's next probe lap charges that wait as contention). Unless the
// variant releases under the lock, it drops the mutex before the fill;
// under delegated release it first queues the region's release node, so
// queue order is LSN order.
func (b *Buffer) reserve(n int) (start, end lsn.LSN, qn *relNode) {
	start = b.next
	end = start.Add(n)
	b.r.waitForSpace(end)
	b.next = end
	switch b.release {
	case inOrder:
		b.mu.Unlock()
	case delegated:
		qn = b.q.join(start, end)
		b.mu.Unlock()
	}
	return start, end, qn
}

// publish hands the filled region [start, end) to the flush daemon.
func (b *Buffer) publish(start, end lsn.LSN, qn *relNode, rng *xorshift) {
	switch b.release {
	case locked:
		// The mutex the region was reserved under is still held; under C
		// its group's leader took it, and the last fill, on whichever
		// goroutine, lets it go.
		b.r.publish(end)
		b.mu.Unlock()
	case inOrder:
		b.r.publishInOrder(start, end)
	case delegated:
		b.q.release(qn, rng)
	}
}

// fill copies the record into the ring at start (or, in LocalFill mode,
// into the inserter's scratch — the paper's "CD in L1" measurement mode).
func (ins *Inserter) fill(start lsn.LSN, p []byte) {
	if ins.local != nil {
		copy(ins.local, p)
		return
	}
	ins.b.r.copyIn(start, p)
}
