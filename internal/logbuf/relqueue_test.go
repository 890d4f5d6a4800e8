package logbuf

import (
	"sync"
	"testing"

	"aether/internal/lsn"
)

// relHarness builds a queue over a fresh ring with a reclaiming reader.
func relHarness(size int) (*relQueue, func()) {
	r := newRing(size, 0, nil)
	q := &relQueue{r: r}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rd := Reader{r: r}
		for {
			s, e := rd.Pending()
			if s != e {
				rd.MarkFlushed(e)
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	return q, func() { close(done); wg.Wait() }
}

func TestRelQueueSingleNode(t *testing.T) {
	q, stop := relHarness(1 << 12)
	defer stop()
	n := q.join(0, 100)
	if n.hasPred {
		t.Fatal("first node must have no predecessor")
	}
	q.release(n, newXorshift())
	if got := q.r.released.Load(); got != 100 {
		t.Fatalf("released %v, want 100", got)
	}
	if q.tail.Load() != nil {
		t.Fatal("tail should be empty after release")
	}
}

func TestRelQueueInOrderChain(t *testing.T) {
	q, stop := relHarness(1 << 12)
	defer stop()
	// Join three contiguous regions, then release them out of order:
	// the delegation protocol must still advance the frontier to the end.
	n1 := q.join(0, 10)
	n2 := q.join(10, 30)
	n3 := q.join(30, 60)
	rng := newXorshift()

	// n3 finishes first and delegates (or its releaser sweeps it).
	q.release(n3, rng)
	q.release(n2, rng)
	if got := q.r.released.Load(); got != 0 {
		// n2 and n3 may both have delegated; nothing released yet is legal.
		// But if n2 declined delegation it spun until n1 released — it
		// cannot have, since n1 hasn't released. So released must be 0.
		t.Fatalf("released %v before head, want 0", got)
	}
	q.release(n1, rng)
	// After the head releases, the chain must complete (possibly by n1
	// sweeping, possibly by handoff marks — but all paths end released=60).
	waitFor(t, func() bool { return q.r.released.Load() == 60 })
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	for i := 0; i < 1_000_000; i++ {
		if cond() {
			return
		}
	}
	t.Fatal("condition never reached")
}

// TestRelQueueConcurrent hammers the queue from many goroutines with
// contiguous regions handed out under a mutex (as the real buffer does).
func TestRelQueueConcurrent(t *testing.T) {
	q, stop := relHarness(1 << 16)
	defer stop()

	var mu sync.Mutex
	var next lsn.LSN
	const workers = 16
	const perW = 400
	var wg sync.WaitGroup
	var total int
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := newXorshift()
			for i := 0; i < perW; i++ {
				size := 48 + (w*13+i*7)%300
				mu.Lock()
				start := next
				end := start.Add(size)
				for f := q.r.flushed.Load(); !q.r.fits(end, f); f = q.r.flushed.Load() {
					q.r.waitForFlush(f)
				}
				next = end
				n := q.join(start, end)
				mu.Unlock()
				// Simulate a fill of varying length.
				for spin := 0; spin < (w*i)%50; spin++ {
					_ = spin
				}
				q.release(n, rng)
			}
		}(w)
	}
	wg.Wait()
	mu.Lock()
	total = int(next)
	mu.Unlock()
	waitFor(t, func() bool { return q.r.released.Load() == lsn.LSN(total) })
	if q.tail.Load() != nil {
		t.Fatal("queue not drained")
	}
}

// TestRelQueueDelegationHandoff exercises the waiting→released handoff:
// a successor that is still "filling" when its predecessor finishes must
// perform its own release.
func TestRelQueueDelegationHandoff(t *testing.T) {
	q, stop := relHarness(1 << 12)
	defer stop()
	rng := newXorshift()

	n1 := q.join(0, 10)
	n2 := q.join(10, 20)

	// Head releases while n2 is still filling: n1's sweep should mark n2
	// released and leave.
	q.release(n1, rng)
	waitFor(t, func() bool { return q.r.released.Load() == 10 })
	if got := n2.status.Load(); got != relReleased {
		t.Fatalf("n2 status %d, want released (handoff)", got)
	}
	// n2's owner now finishes; it must release itself.
	q.release(n2, rng)
	if got := q.r.released.Load(); got != 20 {
		t.Fatalf("released %v, want 20", got)
	}
}

// TestRelQueueTreadmillBreaker verifies the decline-to-delegate path
// (coin == 0) completes: the owner spins until the frontier reaches it
// and then releases itself.
func TestRelQueueTreadmillBreaker(t *testing.T) {
	q, stop := relHarness(1 << 12)
	defer stop()
	n1 := q.join(0, 10)
	n2 := q.join(10, 20)

	done := make(chan struct{})
	go func() {
		// Force the declining branch with a rigged RNG: next()&31 == 0.
		q.release(n2, &xorshift{s: riggedZeroCoinSeed})
		close(done)
	}()
	q.release(n1, newXorshift())
	<-done
	if got := q.r.released.Load(); got != 20 {
		t.Fatalf("released %v, want 20", got)
	}
}

// riggedZeroCoinSeed makes xorshift's first output ≡ 0 mod 32, found by
// search in TestRiggedSeedValid.
var riggedZeroCoinSeed = func() uint64 {
	for seed := uint64(1); ; seed++ {
		x := xorshift{s: seed}
		if x.next()&31 == 0 {
			return seed
		}
	}
}()

func TestRiggedSeedValid(t *testing.T) {
	x := xorshift{s: riggedZeroCoinSeed}
	if x.next()&31 != 0 {
		t.Fatal("rigged seed does not produce a zero coin")
	}
}
