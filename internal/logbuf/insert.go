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
	// room is how many bytes of the ring the inserter's inserts leave
	// free: ReaderRoom, or 0 for the reader's own (Reader.Inserter).
	room int
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
	return ins.place(p, &pt), nil
}

// place reserves, fills and publishes p for a caller holding the mutex.
func (ins *Inserter) place(p []byte, pt *probeTimer) lsn.LSN {
	b := ins.b
	start, end, qn := b.reserve(len(p), ins.room)
	pt.lap(metrics.PhaseLogContention)
	ins.fill(start, p)
	pt.lap(metrics.PhaseLogWork)
	b.publish(start, end, qn, ins.rng)
	return start
}

// InsertAt is Insert for a record whose bytes depend on the address it
// gets, such as a seal, whose length field is the distance to the
// previous one: build runs once, under the buffer's mutex, with that
// address, and returns the encoded record, at most max bytes. It must be
// quick and must not insert. empty, asked under the mutex too, reports
// that there is nothing to insert at an address: InsertAt then returns it
// at once and never waits for room, so a record that only closes what
// came before it is not held up by a ring that holds nothing new. The
// record never joins a consolidation group (its size is not known before
// it has an address); otherwise it takes Insert's path (place).
func (ins *Inserter) InsertAt(max int, empty func(at lsn.LSN) bool, build func(at lsn.LSN) []byte) (lsn.LSN, error) {
	b := ins.b
	if max > b.cfg.MaxGroup {
		return 0, ErrRecordTooLarge
	}
	var pt probeTimer
	pt.start(b.cfg.Breakdown)
	b.mu.Lock()
	if !b.waitForRoom(max, ins.room, empty) {
		at := b.next
		b.mu.Unlock()
		return at, nil
	}
	return ins.place(build(b.next), &pt), nil
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
		base, _, s.qnode = b.reserve(int(group), ins.room)
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
// mutex, leaving room bytes of the ring free and waiting for the flush
// daemon to free space if it must (the caller's next probe lap charges
// that wait as contention). Unless the variant releases under the lock,
// it drops the mutex before the fill; under delegated release it first
// queues the region's release node, so queue order is LSN order.
func (b *Buffer) reserve(n, room int) (start, end lsn.LSN, qn *relNode) {
	b.waitForRoom(n, room, nil)
	start = b.next
	end = start.Add(n)
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

// waitForRoom returns true, with the mutex held as on entry, once the
// next n bytes fit in the ring with room bytes to spare — or false, as
// soon as empty (if not nil) reports nothing to insert at the next
// address. It waits with the mutex dropped, so the reader can insert
// (Reader.Inserter) before its next flush frees the space. The first
// ordinary insert that must wait raises b.waiting, and later ones queue
// behind it until it has its room, as they would behind a mutex held
// through the wait: a stream of small records cannot take, piece by
// piece, the space a large one waits for. The reader's inserts (room 0)
// never queue. An insert that waits at all is counted in b.waits, with
// the time it waited.
func (b *Buffer) waitForRoom(n, room int, empty func(at lsn.LSN) bool) (fits bool) {
	queued := false
	var t0 time.Time
	for {
		if empty != nil && empty(b.next) {
			break
		}
		flushed := b.r.flushed.Load()
		first := room == 0 || queued || !b.waiting.Load()
		if first && b.r.fits(b.next.Add(n+room), flushed) {
			fits = true
			break
		}
		if first && room != 0 {
			queued = true
			b.waiting.Store(true)
		}
		if t0.IsZero() {
			t0 = time.Now()
		}
		b.mu.Unlock()
		if first {
			b.r.waitForFlush(flushed)
		} else {
			var sp parkSpinner
			for b.waiting.Load() {
				sp.spin()
			}
		}
		b.mu.Lock()
	}
	if queued {
		b.waiting.Store(false)
	}
	if !t0.IsZero() {
		b.waits.Waits.Inc()
		b.waits.WaitNanos.Add(int64(time.Since(t0)))
	}
	return fits
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
