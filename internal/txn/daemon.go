package txn

import "time"

// daemon is the one shape every background worker of the engine has —
// checkpointer, cold tier, page cleaner:
// a goroutine that runs one pass per wake-up, woken by a coalescing nudge
// (and, optionally, a ticker), stopped by halt and joined by wait. The
// loop and its stop-wins rule live here once; a worker is its pass body.
type daemon struct {
	trig chan struct{} // one pending nudge at most: later ones coalesce
	stop chan struct{} // closed by halt
	done chan struct{} // closed when the loop has returned
}

func newDaemon() *daemon {
	return &daemon{
		trig: make(chan struct{}, 1),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
}

// startDaemon runs pass on its own goroutine once per nudge and, with
// tick > 0, once per tick. pass is handed the daemon so that a long body
// can poll stopping or sleep between steps.
func startDaemon(tick time.Duration, pass func(*daemon)) *daemon {
	d := newDaemon()
	go d.loop(tick, pass)
	return d
}

func (d *daemon) loop(tick time.Duration, pass func(*daemon)) {
	defer close(d.done)
	var ticks <-chan time.Time // nil without a tick: never ready
	if tick > 0 {
		t := time.NewTicker(tick)
		defer t.Stop()
		ticks = t.C
	}
	for {
		select {
		case <-d.stop:
			return
		case <-ticks:
		case <-d.trig:
		}
		// A stop racing a pending wake-up must win, or Close would block
		// behind a whole pass — a checkpoint, a cold-store copy, a
		// snapshot — that nobody needs.
		if d.stopping() {
			return
		}
		pass(d)
	}
}

// nudge asks for a pass: one send on a channel made at start, so it is
// safe on a transaction's path. It never blocks — a nudge already pending
// absorbs this one — and on a nil daemon (a worker that was not
// configured) it does nothing.
func (d *daemon) nudge() {
	if d == nil {
		return
	}
	select {
	case d.trig <- struct{}{}:
	default:
	}
}

// stopping reports whether halt has been called.
func (d *daemon) stopping() bool {
	select {
	case <-d.stop:
		return true
	default:
		return false
	}
}

// sleep waits for dur, or until halt; it reports whether the whole wait
// elapsed.
func (d *daemon) sleep(dur time.Duration) bool {
	t := time.NewTimer(dur)
	defer t.Stop()
	select {
	case <-d.stop:
		return false
	case <-t.C:
		return true
	}
}

// halt tells the loop to stop without waiting for it, so that an owner
// can signal all its daemons before it waits on any. Call it once.
func (d *daemon) halt() {
	if d != nil {
		close(d.stop)
	}
}

// wait returns once the loop has exited.
func (d *daemon) wait() {
	if d != nil {
		<-d.done
	}
}
