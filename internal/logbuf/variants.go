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

// fill copies the record into the ring region (or, in LocalFill mode,
// into the inserter's scratch — the paper's "CD in L1" measurement mode).
func fill(r *ring, local []byte, start lsn.LSN, p []byte) {
	if local != nil {
		copy(local, p)
		return
	}
	r.copyIn(start, p)
}

// ---------------------------------------------------------------------
// Baseline (Algorithm 1)
// ---------------------------------------------------------------------

// baselineBuf serializes LSN generation, fill and release under one
// mutex. Contention grows with thread count, and the critical section
// grows with record size — the two weaknesses §5 sets out to fix.
type baselineBuf struct {
	r   *ring
	cfg Config

	mu   spinLock
	next lsn.LSN
}

func newBaseline(r *ring, cfg Config) *baselineBuf {
	return &baselineBuf{r: r, cfg: cfg, next: cfg.Base}
}

// Variant implements Buf.
func (b *baselineBuf) Variant() Variant { return VariantBaseline }

// Capacity implements Buf.
func (b *baselineBuf) Capacity() int { return int(b.r.capacity) }

// MaxRecord implements Buf.
func (b *baselineBuf) MaxRecord() int { return b.cfg.MaxGroup }

// Reader implements Buf.
func (b *baselineBuf) Reader() *Reader { return &Reader{r: b.r} }

// NewInserter implements Buf.
func (b *baselineBuf) NewInserter() Inserter {
	ins := &baselineInserter{b: b}
	if b.cfg.LocalFill {
		ins.local = make([]byte, b.cfg.MaxGroup)
	}
	return ins
}

type baselineInserter struct {
	b     *baselineBuf
	local []byte
}

// Insert implements Inserter — Algorithm 1: one mutex covers LSN
// allocation, buffer fill and release.
func (ins *baselineInserter) Insert(p []byte) (lsn.LSN, error) {
	b := ins.b
	if len(p) > b.cfg.MaxGroup {
		return 0, ErrRecordTooLarge
	}
	var pt probeTimer
	pt.start(b.cfg.Breakdown)
	b.mu.Lock()
	pt.lap(metrics.PhaseLogContention)
	start := b.next
	end := start.Add(len(p))
	b.r.waitForSpace(end)
	b.next = end
	fill(b.r, localBuf(ins.local, len(p)), start, p)
	b.r.publish(end)
	b.mu.Unlock()
	pt.lap(metrics.PhaseLogWork)
	return start, nil
}

func localBuf(local []byte, n int) []byte {
	if local == nil {
		return nil
	}
	return local[:n]
}

// ---------------------------------------------------------------------
// Decoupled buffer fill (Algorithm 3)
// ---------------------------------------------------------------------

// decoupledBuf holds the mutex only for LSN generation; fills run in
// parallel and regions are released in LSN order through the implicit
// release queue (publishInOrder). The critical section no longer depends
// on record size, but every thread still takes the mutex, so contention
// still grows with thread count.
type decoupledBuf struct {
	r   *ring
	cfg Config

	mu   spinLock
	next lsn.LSN
}

func newDecoupled(r *ring, cfg Config) *decoupledBuf {
	return &decoupledBuf{r: r, cfg: cfg, next: cfg.Base}
}

// Variant implements Buf.
func (d *decoupledBuf) Variant() Variant { return VariantD }

// Capacity implements Buf.
func (d *decoupledBuf) Capacity() int { return int(d.r.capacity) }

// MaxRecord implements Buf.
func (d *decoupledBuf) MaxRecord() int { return d.cfg.MaxGroup }

// Reader implements Buf.
func (d *decoupledBuf) Reader() *Reader { return &Reader{r: d.r} }

// NewInserter implements Buf.
func (d *decoupledBuf) NewInserter() Inserter {
	ins := &decoupledInserter{d: d}
	if d.cfg.LocalFill {
		ins.local = make([]byte, d.cfg.MaxGroup)
	}
	return ins
}

type decoupledInserter struct {
	d     *decoupledBuf
	local []byte
}

// Insert implements Inserter — Algorithm 3, decoupled buffer fill: a
// short spinlock-protected LSN allocation, then the copy proceeds
// outside any lock and release is signalled per-record.
func (ins *decoupledInserter) Insert(p []byte) (lsn.LSN, error) {
	d := ins.d
	if len(p) > d.cfg.MaxGroup {
		return 0, ErrRecordTooLarge
	}
	var pt probeTimer
	pt.start(d.cfg.Breakdown)
	d.mu.Lock()
	start := d.next
	end := start.Add(len(p))
	d.r.waitForSpace(end)
	d.next = end
	d.mu.Unlock()
	pt.lap(metrics.PhaseLogContention)
	fill(d.r, localBuf(ins.local, len(p)), start, p)
	pt.lap(metrics.PhaseLogWork)
	d.r.publishInOrder(start, end)
	return start, nil
}

// ---------------------------------------------------------------------
// Consolidation array (Algorithm 2)
// ---------------------------------------------------------------------

// consolidatedBuf keeps the baseline's monolithic critical section but
// diverts contending threads into the consolidation array: only group
// leaders compete for the mutex, so contention is bounded by the array
// width instead of the thread count. Fills within a group run in
// parallel (the group holds the mutex until its last member finishes);
// fills across groups are still serialized — the limitation the hybrid
// removes.
type consolidatedBuf struct {
	r   *ring
	cfg Config
	arr *cArray

	mu   spinLock
	next lsn.LSN
}

func newConsolidated(r *ring, cfg Config) *consolidatedBuf {
	return &consolidatedBuf{
		r:    r,
		cfg:  cfg,
		arr:  newCArray(cfg.Slots, cfg.slotPool(), int64(cfg.MaxGroup)),
		next: cfg.Base,
	}
}

// Variant implements Buf.
func (c *consolidatedBuf) Variant() Variant { return VariantC }

// Capacity implements Buf.
func (c *consolidatedBuf) Capacity() int { return int(c.r.capacity) }

// MaxRecord implements Buf.
func (c *consolidatedBuf) MaxRecord() int { return c.cfg.MaxGroup }

// Reader implements Buf.
func (c *consolidatedBuf) Reader() *Reader { return &Reader{r: c.r} }

// NewInserter implements Buf.
func (c *consolidatedBuf) NewInserter() Inserter {
	ins := &consolidatedInserter{c: c, rng: newXorshift()}
	if c.cfg.LocalFill {
		ins.local = make([]byte, c.cfg.MaxGroup)
	}
	return ins
}

type consolidatedInserter struct {
	c     *consolidatedBuf
	rng   *xorshift
	local []byte
}

// Insert implements Inserter — Algorithm 2, consolidation-array
// backoff: threads that lose the buffer mutex combine their requests
// in an array slot and one leader inserts the whole group.
func (ins *consolidatedInserter) Insert(p []byte) (lsn.LSN, error) {
	c := ins.c
	size := int64(len(p))
	if len(p) > c.cfg.MaxGroup {
		return 0, ErrRecordTooLarge
	}
	var pt probeTimer
	pt.start(c.cfg.Breakdown)

	// Uncontended fast path: behave exactly like the baseline.
	if c.mu.TryLock() {
		pt.lap(metrics.PhaseLogContention)
		start := c.next
		end := start.Add(len(p))
		c.r.waitForSpace(end)
		c.next = end
		fill(c.r, localBuf(ins.local, len(p)), start, p)
		c.r.publish(end)
		c.mu.Unlock()
		pt.lap(metrics.PhaseLogWork)
		return start, nil
	}

	// Contention: back off into the consolidation array.
	s, offset := c.arr.join(ins.rng, size)
	var base lsn.LSN
	var group int64
	if offset == 0 {
		// Group leader: acquire buffer space for everyone.
		c.mu.Lock()
		group = c.arr.close(s)
		base = c.next
		end := base.Add(int(group))
		c.r.waitForSpace(end)
		c.next = end
		s.notify(base, group)
	} else {
		base, group = s.wait()
	}
	pt.lap(metrics.PhaseLogContention)

	my := base.Add(int(offset))
	fill(c.r, localBuf(ins.local, len(p)), my, p)
	pt.lap(metrics.PhaseLogWork)

	if s.release(size) {
		// Last fill of the group: release the group's region and the
		// mutex the leader acquired. Go's sync.Mutex explicitly permits
		// unlock from a goroutine other than the locker.
		c.r.publish(base.Add(int(group)))
		c.mu.Unlock()
		s.free()
	}
	return my, nil
}

// ---------------------------------------------------------------------
// Hybrid CD (§5.3)
// ---------------------------------------------------------------------

// hybridBuf combines consolidation (bounded contention) with decoupled
// fill (pipelining across groups, record-size-independent critical
// section) — the paper's headline design.
type hybridBuf struct {
	r   *ring
	cfg Config
	arr *cArray

	mu   spinLock
	next lsn.LSN
}

func newHybrid(r *ring, cfg Config) *hybridBuf {
	return &hybridBuf{
		r:    r,
		cfg:  cfg,
		arr:  newCArray(cfg.Slots, cfg.slotPool(), int64(cfg.MaxGroup)),
		next: cfg.Base,
	}
}

// Variant implements Buf.
func (h *hybridBuf) Variant() Variant { return VariantCD }

// Capacity implements Buf.
func (h *hybridBuf) Capacity() int { return int(h.r.capacity) }

// MaxRecord implements Buf.
func (h *hybridBuf) MaxRecord() int { return h.cfg.MaxGroup }

// Reader implements Buf.
func (h *hybridBuf) Reader() *Reader { return &Reader{r: h.r} }

// NewInserter implements Buf.
func (h *hybridBuf) NewInserter() Inserter {
	ins := &hybridInserter{h: h, rng: newXorshift()}
	if h.cfg.LocalFill {
		ins.local = make([]byte, h.cfg.MaxGroup)
	}
	return ins
}

type hybridInserter struct {
	h     *hybridBuf
	rng   *xorshift
	local []byte
}

// Insert implements Inserter — the paper's hybrid CD design (§5.3):
// consolidation-array group formation over decoupled buffer fill.
func (ins *hybridInserter) Insert(p []byte) (lsn.LSN, error) {
	h := ins.h
	size := int64(len(p))
	if len(p) > h.cfg.MaxGroup {
		return 0, ErrRecordTooLarge
	}
	var pt probeTimer
	pt.start(h.cfg.Breakdown)

	// Uncontended fast path: decoupled insert.
	if h.mu.TryLock() {
		start := h.next
		end := start.Add(len(p))
		h.r.waitForSpace(end)
		h.next = end
		h.mu.Unlock()
		pt.lap(metrics.PhaseLogContention)
		fill(h.r, localBuf(ins.local, len(p)), start, p)
		pt.lap(metrics.PhaseLogWork)
		h.r.publishInOrder(start, end)
		return start, nil
	}

	// Contention: consolidate, then fill decoupled.
	s, offset := h.arr.join(ins.rng, size)
	var base lsn.LSN
	var group int64
	if offset == 0 {
		h.mu.Lock()
		group = h.arr.close(s)
		base = h.next
		end := base.Add(int(group))
		h.r.waitForSpace(end)
		h.next = end
		h.mu.Unlock() // decoupled: fills happen outside the mutex
		s.notify(base, group)
	} else {
		base, group = s.wait()
	}
	pt.lap(metrics.PhaseLogContention)

	my := base.Add(int(offset))
	fill(h.r, localBuf(ins.local, len(p)), my, p)
	pt.lap(metrics.PhaseLogWork)

	if s.release(size) {
		// Last member releases the whole group's region, in LSN order
		// with respect to other groups and direct inserts.
		h.r.publishInOrder(base, base.Add(int(group)))
		s.free()
	}
	return my, nil
}
