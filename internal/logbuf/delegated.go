package logbuf

import (
	"sync/atomic"

	"aether/internal/lsn"
	"aether/internal/metrics"
)

// This file implements the paper's CDME design (Algorithm 4, §A.3):
// hybrid CD plus *delegated buffer release*. The in-order release rule
// means many small inserts that finish in the shadow of one large insert
// must all wait for it; CDME turns the implicit LSN release queue into a
// physical lock-free queue so a finished thread can hand its release off
// to the slow predecessor and leave. The protocol follows Scott's
// abortable MCS queue locks and Oyama-style critical-section combining,
// as the paper describes.

// Release-queue node states.
const (
	// relWaiting: the owner has not finished its buffer fill (or has not
	// decided what to do with the node yet).
	relWaiting int32 = iota
	// relDelegated: the owner finished and abandoned the node; whichever
	// predecessor reaches it performs the release ("aborted" in Scott's
	// protocol).
	relDelegated
	// relReleased: a predecessor reached this node while its owner still
	// held it; the owner must perform its own release. A successful CAS
	// waiting→released is how the releaser "leaves before the successor
	// can delegate more work".
	relReleased
)

// relNode is one pending buffer release.
type relNode struct {
	start, end lsn.LSN
	hasPred    bool
	status     atomic.Int32
	next       atomic.Pointer[relNode]
}

// relQueue is the delegation queue. Nodes join in LSN order (joins happen
// inside the buffer-acquire critical section), so walking the queue and
// releasing node regions in order is exactly the in-order release rule.
type relQueue struct {
	r    *ring
	tail atomic.Pointer[relNode]
}

// join appends a node covering [start, end). Must be called while holding
// the log mutex so queue order equals LSN order.
func (q *relQueue) join(start, end lsn.LSN) *relNode {
	n := &relNode{start: start, end: end}
	prev := q.tail.Swap(n)
	if prev != nil {
		n.hasPred = true
		prev.next.Store(n)
	}
	return n
}

// release completes the owner's obligation for n after its fill is done:
// delegate to a predecessor if one is still working, otherwise release in
// order and sweep up any delegated successors.
func (q *relQueue) release(n *relNode, rng *xorshift) {
	if n.hasPred {
		// With probability 1/32 decline to delegate, park until the
		// frontier reaches us, and process the chain ourselves. This is
		// the paper's anti-treadmill rule: it bounds how long any single
		// predecessor can be stuck releasing other threads' buffers.
		if rng.next()&31 != 0 {
			if n.status.CompareAndSwap(relWaiting, relDelegated) {
				return // a predecessor owns our release now
			}
			// CAS failed: a predecessor already marked us released —
			// the frontier is at our region; fall through.
		} else {
			var sp spinner
			for n.status.Load() != relReleased {
				sp.spin()
			}
		}
	}

	// do_release: the frontier is exactly at cur.start.
	cur := n
	for {
		q.r.publishInOrder(cur.start, cur.end)
		next := cur.next.Load()
		if next == nil {
			// We appear to be the tail: try to leave.
			if q.tail.CompareAndSwap(cur, nil) {
				return
			}
			// Someone joined concurrently; wait for the link.
			var sp spinner
			for next == nil {
				sp.spin()
				next = cur.next.Load()
			}
		}
		if next.status.CompareAndSwap(relWaiting, relReleased) {
			// Successor still filling: it will release itself (and
			// everything we would have swept) when it finishes.
			return
		}
		// Successor had delegated: its release is ours too.
		cur = next
	}
}

// delegatedBuf is the CDME log buffer.
type delegatedBuf struct {
	r   *ring
	cfg Config
	arr *cArray
	q   relQueue

	mu   spinLock
	next lsn.LSN
}

func newDelegated(r *ring, cfg Config) *delegatedBuf {
	d := &delegatedBuf{
		r:    r,
		cfg:  cfg,
		arr:  newCArray(cfg.Slots, cfg.slotPool(), int64(cfg.MaxGroup)),
		next: cfg.Base,
	}
	d.q.r = r
	return d
}

// Variant implements Buf.
func (d *delegatedBuf) Variant() Variant { return VariantCDME }

// Capacity implements Buf.
func (d *delegatedBuf) Capacity() int { return int(d.r.capacity) }

// MaxRecord implements Buf.
func (d *delegatedBuf) MaxRecord() int { return d.cfg.MaxGroup }

// Reader implements Buf.
func (d *delegatedBuf) Reader() *Reader { return &Reader{r: d.r} }

// NewInserter implements Buf.
func (d *delegatedBuf) NewInserter() Inserter {
	ins := &delegatedInserter{d: d, rng: newXorshift()}
	if d.cfg.LocalFill {
		ins.local = make([]byte, d.cfg.MaxGroup)
	}
	return ins
}

type delegatedInserter struct {
	d     *delegatedBuf
	rng   *xorshift
	local []byte
}

// Insert implements Inserter — Algorithm 4 (§A.3), delegated buffer
// release: inserters enqueue their filled regions and leave; a queue
// leader publishes releases in order so no thread waits on a stalled
// predecessor.
func (ins *delegatedInserter) Insert(p []byte) (lsn.LSN, error) {
	d := ins.d
	size := int64(len(p))
	if len(p) > d.cfg.MaxGroup {
		return 0, ErrRecordTooLarge
	}
	var pt probeTimer
	pt.start(d.cfg.Breakdown)

	// Uncontended fast path: decoupled insert with a queued release.
	if d.mu.TryLock() {
		start := d.next
		end := start.Add(len(p))
		d.r.waitForSpace(end)
		d.next = end
		qn := d.q.join(start, end)
		d.mu.Unlock()
		pt.lap(metrics.PhaseLogContention)
		fill(d.r, localBuf(ins.local, len(p)), start, p)
		pt.lap(metrics.PhaseLogWork)
		d.q.release(qn, ins.rng)
		return start, nil
	}

	// Contention: consolidate; the group shares one queue node.
	s, offset := d.arr.join(ins.rng, size)
	var base lsn.LSN
	var group int64
	if offset == 0 {
		d.mu.Lock()
		group = d.arr.close(s)
		base = d.next
		end := base.Add(int(group))
		d.r.waitForSpace(end)
		d.next = end
		s.qnode = d.q.join(base, end)
		d.mu.Unlock()
		s.notify(base, group)
	} else {
		base, group = s.wait()
	}
	pt.lap(metrics.PhaseLogContention)

	my := base.Add(int(offset))
	fill(d.r, localBuf(ins.local, len(p)), my, p)
	pt.lap(metrics.PhaseLogWork)

	if s.release(size) {
		qn := s.qnode
		s.free()
		d.q.release(qn, ins.rng)
	}
	return my, nil
}
