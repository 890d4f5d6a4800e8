package txn

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestDaemonStopBeatsPendingNudge drives the loop on the test's own
// goroutine with both channels ready: a halt that races a pending nudge
// must win every time, or Close would sit behind a whole pass — for the
// cold-tier daemon, an archive drain, a snapshot and a prune.
func TestDaemonStopBeatsPendingNudge(t *testing.T) {
	for i := 0; i < 1000; i++ {
		passes := 0
		d := newDaemon()
		d.nudge()
		d.halt()
		d.loop(0, func(*daemon) { passes++ })
		d.wait()
		if passes != 0 {
			t.Fatalf("iteration %d: %d passes ran after halt", i, passes)
		}
	}
}

// TestDaemonNudgeCoalescesAndNeverBlocks parks the daemon inside a pass,
// nudges it from many goroutines at once — none may block — and requires
// exactly one follow-up pass for all of them.
func TestDaemonNudgeCoalescesAndNeverBlocks(t *testing.T) {
	var none *daemon
	none.nudge() // a worker that was not configured
	none.halt()
	none.wait()

	var passes atomic.Int64
	entered := make(chan struct{})
	release := make(chan struct{})
	d := startDaemon(0, func(*daemon) {
		passes.Add(1)
		entered <- struct{}{}
		<-release
	})
	d.nudge()
	<-entered // first pass parked

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				d.nudge()
			}
		}()
	}
	wg.Wait() // 800 nudges returned while the pass was parked

	release <- struct{}{}
	<-entered // the one follow-up pass
	d.halt()
	release <- struct{}{}
	d.wait()
	if got := passes.Load(); got != 2 {
		t.Fatalf("%d passes for one nudge plus 800 coalesced ones, want 2", got)
	}
}

// TestDaemonSleepReturnsOnStop: a pass sleeping out a backoff must give
// the sleep up the moment the daemon is halted.
func TestDaemonSleepReturnsOnStop(t *testing.T) {
	asleep := make(chan struct{})
	slept := make(chan bool, 1)
	d := startDaemon(0, func(d *daemon) {
		close(asleep)
		slept <- d.sleep(time.Hour)
	})
	d.nudge()
	<-asleep
	d.halt()
	d.wait()
	if <-slept {
		t.Fatal("sleep reported a full hour's wait")
	}
	if !d.stopping() {
		t.Fatal("stopping() false after halt")
	}
	if d := newDaemon(); !d.sleep(time.Microsecond) {
		t.Fatal("sleep on a running daemon reported a stop")
	}
}
