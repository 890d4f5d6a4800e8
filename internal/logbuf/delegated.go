package logbuf

import (
	"sync/atomic"

	"aether/internal/lsn"
)

// This file implements the release queue of the paper's CDME design
// (Algorithm 4, §A.3): hybrid CD plus *delegated buffer release*, the
// delegated row of the variant table. The in-order release rule
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
