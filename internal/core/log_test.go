package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aether/internal/logbuf"
	"aether/internal/logdev"
	"aether/internal/logrec"
	"aether/internal/lsn"
	"aether/internal/vfs"
)

// faultDev opens a log device on an in-memory filesystem whose faults
// and power cuts the test controls.
func faultDev(t *testing.T) (*logdev.Segmented, *vfs.FaultFS) {
	t.Helper()
	fs := vfs.NewFaultFS(1)
	dev, err := logdev.OpenSegmentedDirFS(fs, "/log", logdev.DefaultSegmentSize)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dev.Close() })
	return dev, fs
}

func newTestLM(t *testing.T, variant logbuf.Variant, dev logdev.Device) *LogManager {
	t.Helper()
	if dev == nil {
		dev = logdev.NewMem(logdev.ProfileMemory)
	}
	lm, err := New(Config{
		Buffer: logbuf.Config{Variant: variant, Size: 1 << 18},
		Device: dev,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lm.Close() })
	return lm
}

func TestNewRequiresDevice(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil device must be rejected")
	}
}

func TestAppendAndWaitDurable(t *testing.T) {
	dev := logdev.NewMem(logdev.ProfileMemory)
	lm := newTestLM(t, logbuf.VariantCD, dev)
	ap := lm.NewAppender()

	var end lsn.LSN
	for i := 0; i < 10; i++ {
		rec := logrec.NewUpdate(uint64(i), lsn.Undefined, 1, logrec.UpdatePayload{
			Op: logrec.OpSet, After: []byte("value"),
		})
		_, e, err := ap.Append(rec)
		if err != nil {
			t.Fatal(err)
		}
		end = e
	}
	if err := lm.WaitDurable(end); err != nil {
		t.Fatal(err)
	}
	if got := lm.Durable(); got < end {
		t.Fatalf("durable %v < %v", got, end)
	}
	// The device must hold a decodable stream of exactly those records.
	data, _, err := logdev.ReadTail(dev)
	if err != nil {
		t.Fatal(err)
	}
	it := logrec.NewIterator(data, 0)
	n := 0
	for {
		rec, ok := it.Next()
		if !ok {
			break
		}
		if rec.Kind != logrec.KindUpdate || rec.TxnID != uint64(n) {
			t.Fatalf("record %d wrong: %+v", n, rec.Header)
		}
		n++
	}
	if it.Err() != nil || n != 10 {
		t.Fatalf("device stream: n=%d err=%v", n, it.Err())
	}
}

func TestWaitDurableAlreadyDurable(t *testing.T) {
	lm := newTestLM(t, logbuf.VariantBaseline, nil)
	ap := lm.NewAppender()
	_, end, err := ap.Append(logrec.NewCommit(1, lsn.Undefined))
	if err != nil {
		t.Fatal(err)
	}
	if err := lm.WaitDurable(end); err != nil {
		t.Fatal(err)
	}
	// Second wait returns immediately (fast path).
	start := time.Now()
	if err := lm.WaitDurable(end); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 50*time.Millisecond {
		t.Fatal("fast path too slow")
	}
}

func TestOnDurableRunsContinuation(t *testing.T) {
	lm := newTestLM(t, logbuf.VariantCD, nil)
	ap := lm.NewAppender()
	_, end, err := ap.Append(logrec.NewCommit(7, lsn.Undefined))
	if err != nil {
		t.Fatal(err)
	}
	ch := make(chan error, 1)
	lm.OnDurable(end, func(err error) { ch <- err })
	select {
	case err := <-ch:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("continuation never ran")
	}
	if lm.Durable() < end {
		t.Fatal("continuation ran before durability")
	}
}

func TestOnDurableOrdering(t *testing.T) {
	// Continuations must fire in LSN order: a dependant transaction's
	// commit callback can never run before its predecessor's (the ELR
	// safety condition realized by the serial log).
	lm := newTestLM(t, logbuf.VariantCDME, nil)
	ap := lm.NewAppender()
	const n = 200
	var order []int
	var mu sync.Mutex
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		_, end, err := ap.Append(logrec.NewCommit(uint64(i), lsn.Undefined))
		if err != nil {
			t.Fatal(err)
		}
		i := i
		lm.OnDurable(end, func(err error) {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			wg.Done()
		})
	}
	wg.Wait()
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			t.Fatalf("continuations out of order: %d before %d", order[i-1], order[i])
		}
	}
}

// Blocking commits form groups with no pacing period: while one group's
// sync is in flight on a 1 ms device, the other committers park and ride
// the next flush together — at most one flush per two commits. Under
// -short (the race run, where inserters spinning in the log buffer can
// convoy and dribble commits in: ROADMAP 3(c)) only batching itself is
// asserted.
func TestGroupCommitBatches(t *testing.T) {
	for _, workers := range []int{8, 16} {
		t.Run(fmt.Sprint(workers), func(t *testing.T) {
			dev := logdev.NewMem(logdev.ProfileFastDisk)
			lm, err := New(Config{
				Buffer:        logbuf.Config{Variant: logbuf.VariantCD, Size: 1 << 18},
				Device:        dev,
				FlushInterval: 200 * time.Microsecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer lm.Close()

			const perW = 25
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					ap := lm.NewAppender()
					for i := 0; i < perW; i++ {
						_, end, err := ap.Append(logrec.NewCommit(uint64(w*1000+i), lsn.Undefined))
						if err == nil {
							err = lm.WaitDurable(end)
						}
						if err != nil {
							t.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			commits := int64(workers * perW)
			syncs := dev.Stats().Syncs.Load()
			t.Logf("group commit: %d commits in %d syncs (%.1f commits/sync)",
				commits, syncs, float64(commits)/float64(syncs))
			if syncs >= commits || !testing.Short() && 2*syncs > commits {
				t.Fatalf("%d syncs for %d blocking commits from %d committers on a 1ms device, want at most one per two", syncs, commits, workers)
			}
		})
	}
}

func TestDeviceFailurePropagates(t *testing.T) {
	dev, fs := faultDev(t)
	lm := newTestLM(t, logbuf.VariantBaseline, dev)
	ap := lm.NewAppender()
	_, end, err := ap.Append(logrec.NewCommit(1, lsn.Undefined))
	if err != nil {
		t.Fatal(err)
	}
	if err := lm.WaitDurable(end); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("media gone")
	fs.AddRule(vfs.Rule{Err: boom})
	_, end2, err := ap.Append(logrec.NewCommit(2, lsn.Undefined))
	if err != nil {
		t.Fatal(err)
	}
	if err := lm.WaitDurable(end2); !errors.Is(err, boom) {
		t.Fatalf("got %v, want device error", err)
	}
	// Subsequent subscriptions fail immediately.
	if err := lm.WaitDurable(end2.Add(10)); !errors.Is(err, boom) {
		t.Fatalf("poisoned log accepted a waiter: %v", err)
	}
}

// TestFailedSyncIsNeverRetried: after one failed fsync the log stays
// failed even though the device's next fsync would succeed — a later
// fsync says nothing of the bytes the failed one did not persist — so no
// later commit is acknowledged and the durable horizon stays put.
func TestFailedSyncIsNeverRetried(t *testing.T) {
	dev, fs := faultDev(t)
	lm := newTestLM(t, logbuf.VariantBaseline, dev)
	ap := lm.NewAppender()
	boom := errors.New("fsync: I/O error")
	fs.AddRule(vfs.Rule{Op: vfs.OpSync, Times: 1, Err: boom})
	_, end, err := ap.Append(logrec.NewCommit(1, lsn.Undefined))
	if err != nil {
		t.Fatal(err)
	}
	if err := lm.WaitDurable(end); !errors.Is(err, boom) {
		t.Fatalf("commit over the failed fsync: %v, want the fsync error", err)
	}
	durable := lm.Durable()
	var last lsn.LSN
	for id := uint64(2); id < 5; id++ {
		if _, last, err = ap.Append(logrec.NewCommit(id, lsn.Undefined)); err != nil {
			t.Fatal(err)
		}
	}
	// The device's next fsync succeeds: wait until it has taken them.
	lm.Flush()
	waitFor(t, time.Second, func() bool { return dev.DurableSize() >= int64(last) })
	if err := lm.WaitDurable(last); !errors.Is(err, boom) {
		t.Fatalf("commit after the failed fsync: %v, want the fsync error", err)
	}
	if got := lm.Durable(); got != durable {
		t.Fatalf("durable horizon moved from %v to %v after a failed fsync", durable, got)
	}
}

func TestCloseDrainsAndCompletesWaiters(t *testing.T) {
	dev := logdev.NewMem(logdev.ProfileMemory)
	lm, err := New(Config{
		Buffer:        logbuf.Config{Variant: logbuf.VariantCD, Size: 1 << 18},
		Device:        dev,
		FlushInterval: time.Hour, // only explicit triggers
		FlushTxns:     1 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	ap := lm.NewAppender()
	_, end, err := ap.Append(logrec.NewCommit(1, lsn.Undefined))
	if err != nil {
		t.Fatal(err)
	}
	if err := lm.Close(); err != nil {
		t.Fatal(err)
	}
	if got := lm.Durable(); got < end {
		t.Fatalf("Close did not drain: durable %v < %v", got, end)
	}
	// Operations after close fail.
	if err := lm.WaitDurable(end.Add(1000)); !errors.Is(err, ErrClosed) {
		t.Fatalf("got %v, want ErrClosed", err)
	}
	// Double close is safe.
	if err := lm.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestFlushTrigger(t *testing.T) {
	dev := logdev.NewMem(logdev.ProfileMemory)
	lm, err := New(Config{
		Buffer:        logbuf.Config{Variant: logbuf.VariantBaseline, Size: 1 << 18},
		Device:        dev,
		FlushInterval: time.Hour,
		FlushTxns:     1 << 30,
		FlushBytes:    1 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lm.Close()
	ap := lm.NewAppender()
	_, end, _ := ap.Append(logrec.NewCommit(1, lsn.Undefined))
	if lm.Durable() >= end {
		t.Fatal("flushed without any trigger")
	}
	lm.Flush()
	deadline := time.After(2 * time.Second)
	for lm.Durable() < end {
		select {
		case <-deadline:
			t.Fatal("Flush never made the record durable")
		default:
			time.Sleep(time.Millisecond)
		}
	}
}

// TestParkedWaiterWakesDaemon pins the two halves of the wake-up policy
// with every group-commit trigger disabled, so only a subscription can
// start a flush: a detached OnDurable subscriber must NOT (waking per
// pipelined commit multiplies flushes — its batching belongs to the
// X/L/T triggers), while a WaitDurable, whose thread is parked, must,
// without any timer.
func TestParkedWaiterWakesDaemon(t *testing.T) {
	dev := logdev.NewMem(logdev.ProfileMemory)
	lm, err := New(Config{
		Buffer:        logbuf.Config{Variant: logbuf.VariantBaseline, Size: 1 << 18},
		Device:        dev,
		FlushInterval: time.Hour,
		FlushTxns:     1 << 30,
		FlushBytes:    1 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lm.Close()
	ap := lm.NewAppender()

	_, end1, err := ap.Append(logrec.NewCommit(1, lsn.Undefined))
	if err != nil {
		t.Fatal(err)
	}
	detached := make(chan error, 1)
	lm.OnDurable(end1, func(err error) { detached <- err })
	select {
	case <-detached:
		t.Fatal("an OnDurable subscription alone started a flush")
	case <-time.After(20 * time.Millisecond):
	}
	if got := lm.Stats().Flushes.Load(); got != 0 {
		t.Fatalf("%d flushes with every trigger disabled and nobody parked", got)
	}

	_, end2, err := ap.Append(logrec.NewCommit(2, lsn.Undefined))
	if err != nil {
		t.Fatal(err)
	}
	parked := make(chan error, 1)
	go func() { parked <- lm.WaitDurable(end2) }()
	select {
	case err := <-parked:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitDurable hung: a parked thread did not wake the flush daemon")
	}
	// The flush the parked thread started carried the detached commit.
	select {
	case err := <-detached:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("detached subscriber not completed by the parked thread's flush")
	}
	if got := lm.Stats().Flushes.Load(); got != 1 {
		t.Fatalf("%d flushes for one parked commit, want 1", got)
	}
}

// latencyDev is an in-memory device whose Sync takes d, slept precisely:
// a Profile's latency is a time.Sleep, which a runtime with
// nothing else to run stretches to a millisecond.
type latencyDev struct {
	*logdev.Segmented
	d time.Duration
}

func (l latencyDev) Sync() error {
	sleepPrecise(l.d)
	return l.Segmented.Sync()
}

// Nothing clocks a blocking commit but the device: on a 50 µs, a 400 µs
// and a 5 ms device a lone blocking client gets exactly one flush per
// commit, no commit beats the device, and on the 50 µs device 20 commits
// finish well inside the 19 × 400 µs a fixed pacing period once held
// them to. A sleep only overshoots, so the device's share is a lower
// bound on every round and "well inside" needs the best of a few (and
// no -short, the race run, whose commits cost a few hundred µs of CPU).
func TestFlushPacing(t *testing.T) {
	for _, d := range []time.Duration{50 * time.Microsecond, 400 * time.Microsecond, 5 * time.Millisecond} {
		t.Run(d.String(), func(t *testing.T) {
			lm, err := New(Config{
				Buffer:        logbuf.Config{Variant: logbuf.VariantBaseline, Size: 1 << 18},
				Device:        latencyDev{logdev.NewMem(logdev.ProfileMemory), d},
				FlushInterval: time.Hour,
				FlushTxns:     1 << 30,
				FlushBytes:    1 << 30,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer lm.Close()
			ap := lm.NewAppender()

			const commits, rounds = 20, 3
			var id uint64
			best := time.Hour
			for r := 0; r < rounds; r++ {
				start := time.Now()
				for i := 0; i < commits; i++ {
					id++
					_, end, err := ap.Append(logrec.NewCommit(id, lsn.Undefined))
					if err != nil {
						t.Fatal(err)
					}
					if err := lm.WaitDurable(end); err != nil {
						t.Fatal(err)
					}
				}
				best = min(best, time.Since(start))
			}
			if got := lm.Stats().Flushes.Load(); got != commits*rounds {
				t.Fatalf("%d flushes for %d lone commits", got, commits*rounds)
			}
			if floor := commits * d; best < floor {
				t.Fatalf("%d commits took %v on a %v device, the device alone takes %v", commits, best, d, floor)
			}
			if ceiling := 19 * 400 * time.Microsecond / 2; d == 50*time.Microsecond && !testing.Short() && best >= ceiling {
				t.Fatalf("%d commits on a %v device took %v (best of %d), want under %v", commits, d, best, rounds, ceiling)
			}
		})
	}
}

// The group window is a cap, not a clock. Behind a flush that has just
// started, a group of detached commits that stops growing is closed by
// the stall rule, a stream that never pauses is held to the cap, and
// the four early-close reasons close a growing group before either. Each
// is checked by the daemon's own count of the rule that closed the
// group (GroupsStalled, GroupsCapped), not by how long it took.
//
// A stream that goes quiet for as long as the stall rule waits after its
// latest arrival has paused, and a stall is then the right verdict,
// whatever the case meant to test; so is the cap for a close that came
// after the window. The test measures its own stream against the rule's
// wait and the window, and runs an attempt that paused again, on a
// fresh log: on a reused one, earlier commits would have taught the
// arrival average their own pace.
func TestGroupWindow(t *testing.T) {
	// open starts a log whose only group-commit triggers are the rules
	// under test.
	open := func(flushTxns int) (*LogManager, *Appender, func() lsn.LSN) {
		lm, err := New(Config{
			Buffer:        logbuf.Config{Variant: logbuf.VariantBaseline, Size: 1 << 18},
			Device:        logdev.NewMem(logdev.ProfileMemory),
			FlushInterval: time.Hour,
			FlushTxns:     flushTxns,
			FlushBytes:    16 << 10,
		})
		if err != nil {
			t.Fatal(err)
		}
		ap := lm.NewAppender()
		var id uint64
		commit := func() lsn.LSN {
			id++
			_, end, err := ap.Append(logrec.NewCommit(id, lsn.Undefined))
			if err != nil {
				t.Fatal(err)
			}
			return end
		}
		// The first flush creates the device's first segment, which takes
		// milliseconds: flushed behind it, a group would find the window
		// spent before its first commit arrived.
		if err := lm.WaitDurable(commit()); err != nil {
			t.Fatal(err)
		}
		return lm, ap, commit
	}

	// quiet is how long the stall rule waits after the latest arrival
	// before it closes lm's group.
	quiet := func(lm *LogManager) time.Duration {
		lm.mu.Lock()
		defer lm.mu.Unlock()
		return max(paceSlice, stallGaps*lm.arrivalGap)
	}

	// verdict is how far each counter moved by the time the group
	// holding a stream's first detached commit was closed.
	type verdict struct{ stalled, capped int64 }

	// A stream subscribes a commit every pace: slow enough that the
	// stall rule waits several hundred µs after each arrival, so that an
	// ordinary scheduling delay of the test is not a pause. A window's
	// worth of it is ~15 commits.
	const pace = 100 * time.Microsecond

	// stream has a parked commit start a flush on a fresh log, then
	// subscribes a detached commit and, with more set, one more each
	// pace until the first is acknowledged, running closeGroup (if any)
	// 200 µs in. The counters are read on the daemon goroutine as it
	// acknowledges the first commit, before it can close a later group.
	//
	// paused reports whether the attempt strayed from what it sets up:
	//   - the first commit came so long after the parked one started
	//     that the stall rule's wait after it outlasts the window (the
	//     group is meant to be behind a flush that has just started);
	//   - before closeGroup returned, the stream went quiet(lm) without
	//     a subscription, from the start of one OnDurable call to the
	//     end of the next or, with more set, to the acknowledgement
	//     (once closeGroup has returned the group is due, and silence no
	//     longer matters);
	//   - closeGroup returned past the window.
	type closer func(lm *LogManager, ap *Appender, commit func() lsn.LSN, detach func())
	stream := func(flushTxns int, more bool, closeGroup closer) (v verdict, paused bool) {
		lm, ap, commit := open(flushTxns)
		defer lm.Close()
		st := lm.Stats()
		start := time.Now()
		if err := lm.WaitDurable(commit()); err != nil {
			t.Fatal(err)
		}
		stalled, capped := st.GroupsStalled.Load(), st.GroupsCapped.Load()
		type ack struct {
			v  verdict
			at time.Time
		}
		acked := make(chan ack, 1)
		// last is when the latest subscription started and q the stall
		// rule's wait after it; prev and qPrev the same for the one
		// before.
		last, q := start, time.Duration(0)
		var prev time.Time
		var qPrev time.Duration
		closed := false
		subscribe := func(fn func(error)) {
			now := time.Now()
			lm.OnDurable(commit(), fn)
			if !closed {
				paused = paused || (q > 0 && time.Since(last) >= q)
			}
			prev, qPrev = last, q
			last, q = now, quiet(lm)
		}
		subscribe(func(err error) {
			if err != nil {
				t.Error(err)
			}
			acked <- ack{verdict{st.GroupsStalled.Load() - stalled, st.GroupsCapped.Load() - capped}, time.Now()}
		})
		paused = time.Since(start)+q >= groupWindow
		detach := func() { subscribe(func(error) {}) }
		lm.Poke()
		closeAt := last.Add(200 * time.Microsecond)
		for {
			select {
			case a := <-acked:
				if more && !closed {
					// A subscription that started after the
					// acknowledgement says nothing of the silence before it.
					if last.After(a.at) {
						last, q = prev, qPrev
					}
					paused = paused || a.at.Sub(last) >= q
				}
				return a.v, paused
			default:
			}
			now := time.Now()
			if closeGroup != nil && now.After(closeAt) {
				closeGroup(lm, ap, commit, detach)
				closeGroup, closed = nil, true
				paused = paused || time.Since(last) >= q || time.Since(start) >= groupWindow
			}
			if more && now.Sub(last) >= pace {
				detach()
			}
			if now.Sub(start) > 5*time.Second {
				t.Fatal("detached commit never acknowledged")
			}
			runtime.Gosched() // a daemon readied by this goroutine may wait on its P
		}
	}

	// attempts runs stream until it neither pauses nor leaves the
	// verdict unsettled, at most 50 times, and returns its verdict.
	attempts := func(name string, settled func(verdict) bool, flushTxns int, more bool, closeGroup closer) verdict {
		for i := 0; i < 50; i++ {
			if v, paused := stream(flushTxns, more, closeGroup); !paused && settled(v) {
				return v
			}
		}
		t.Fatalf("%s: every one of 50 attempts paused or went unheld", name)
		return verdict{}
	}
	always := func(verdict) bool { return true }

	// A lone detached commit: nothing more is coming, so the stall rule
	// closes its group.
	if v := attempts("lone commit", always, 128, false, nil); v != (verdict{stalled: 1}) {
		t.Errorf("a lone detached commit's group: %+v, want closed by the stall rule alone", v)
	}

	// FlushTxns 128 never closes a window's worth of the stream, so only
	// the cap can. A daemon that first looked at the group past the
	// window held nothing and counts nothing: that attempt runs again.
	held := func(v verdict) bool { return v != verdict{} }
	if v := attempts("never pauses", held, 128, true, nil); v != (verdict{capped: 1}) {
		t.Errorf("a stream that never paused: %+v, want its group held to the cap", v)
	}

	for _, c := range []struct {
		name       string
		flushTxns  int // the stream alone reaches 16 only past the window
		closeGroup closer
	}{
		{"somebody parks", 128, func(lm *LogManager, _ *Appender, commit func() lsn.LSN, _ func()) {
			if err := lm.WaitDurable(commit()); err != nil {
				t.Error(err)
			}
		}},
		{"Flush", 128, func(lm *LogManager, _ *Appender, _ func() lsn.LSN, _ func()) { lm.Flush() }},
		{"FlushTxns commits", 16, func(_ *LogManager, _ *Appender, _ func() lsn.LSN, detach func()) {
			for i := 0; i < 16; i++ {
				detach()
			}
		}},
		{"FlushBytes", 128, func(_ *LogManager, ap *Appender, _ func() lsn.LSN, detach func()) {
			// Log bytes are not arrivals, so a slow run of them reads as
			// a stall: a commit follows each append but the last.
			for i := 0; i < 4; i++ { // 4 * 4.5KiB > 16KiB
				if i > 0 {
					detach()
				}
				if _, _, err := ap.Append(logrec.NewPad(9 << 9)); err != nil {
					t.Fatal(err)
				}
			}
		}},
	} {
		if v := attempts(c.name, always, c.flushTxns, true, c.closeGroup); v != (verdict{}) {
			t.Errorf("%s: %+v, want the group closed before either rule", c.name, v)
		}
	}
}

// A closed loop keeping 32 detached commits in flight is one group per
// turn: the stall rule waits for the pipeline to fill, so it flushes
// ≈ commits/32 times, and the cap never has to close a group. The device
// is ProfileFlash's 100 µs slept precisely, so the cap, which counts from
// the previous flush's start, leaves the refill 1.4 ms. Under -short (the
// race run) a refill can take that long, so the cap is not checked there.
func TestPipelineIsOneGroup(t *testing.T) {
	lm := newTestLM(t, logbuf.VariantCD, latencyDev{logdev.NewMem(logdev.ProfileMemory), logdev.ProfileFlash.SyncLatency})
	ap := lm.NewAppender()
	const depth, commits = 32, 32 * 40
	slots := make(chan error, depth)
	for i := 0; i < depth; i++ {
		slots <- nil
	}
	ack := func(err error) { slots <- err }
	for i := 0; i < commits; i++ {
		if err := <-slots; err != nil {
			t.Fatal(err)
		}
		_, end, err := ap.Append(logrec.NewCommit(uint64(i+1), lsn.Undefined))
		if err != nil {
			t.Fatal(err)
		}
		lm.OnDurable(end, ack)
	}
	for i := 0; i < depth; i++ {
		if err := <-slots; err != nil {
			t.Fatal(err)
		}
	}
	st := lm.Stats()
	flushes := st.Flushes.Load()
	t.Logf("%d commits, depth %d: %d flushes, %d closed by a stall, %d by the cap",
		commits, depth, flushes, st.GroupsStalled.Load(), st.GroupsCapped.Load())
	if limit := 1.25 * commits / depth; float64(flushes) > limit {
		t.Fatalf("%d flushes for %d commits at depth %d, want ≤ %.0f: the pipeline was split", flushes, commits, depth, limit)
	}
	if got := st.GroupsCapped.Load(); got != 0 && !testing.Short() {
		t.Fatalf("%d groups held to the cap: a full pipeline has nothing more coming", got)
	}
}

// Detached commits that arrive every ~300 µs (a wire client's pace) are
// still grouped: the silence that closes a group scales with the gaps,
// so the first one does not cut it.
func TestSparseDetachedCommitsGroup(t *testing.T) {
	lm := newTestLM(t, logbuf.VariantCD, nil)
	ap := lm.NewAppender()
	const commits = 200
	var wg sync.WaitGroup
	wg.Add(commits)
	for i := 0; i < commits; i++ {
		_, end, err := ap.Append(logrec.NewCommit(uint64(i+1), lsn.Undefined))
		if err != nil {
			t.Fatal(err)
		}
		lm.OnDurable(end, func(error) { wg.Done() })
		sleepPrecise(300 * time.Microsecond)
	}
	wg.Wait()
	flushes := lm.Stats().Flushes.Load()
	t.Logf("%d commits ~300µs apart: %d flushes", commits, flushes)
	if ratio := float64(flushes) / commits; ratio > 0.5 {
		t.Fatalf("%.2f flushes per commit at one commit per ~300µs, want ≤ 0.5", ratio)
	}
}

// A group larger than the daemon's staging buffer is flushed whole, and
// the buffer it was copied through is not kept: the staging buffer stays
// flushBatch bytes however large the largest group ever flushed.
func TestLargeFlushKeepsBatchSmall(t *testing.T) {
	dev := logdev.NewMem(logdev.ProfileMemory)
	lm, err := New(Config{
		Buffer:        logbuf.Config{Variant: logbuf.VariantCD, Size: 4 << 20},
		Device:        dev,
		FlushInterval: time.Hour,
		FlushTxns:     1 << 30,
		FlushBytes:    1 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lm.Close()
	ap := lm.NewAppender()
	var end lsn.LSN
	for i := 0; i < 32; i++ { // 32 * 64KiB = 2MiB
		if _, end, err = ap.Append(logrec.NewPad(64 << 10)); err != nil {
			t.Fatal(err)
		}
	}
	if err := lm.WaitDurable(end); err != nil {
		t.Fatal(err)
	}
	if got := lm.Stats().Flushes.Load(); got != 1 || dev.DurableSize() != int64(end) {
		t.Fatalf("%d flushes left %d of %d bytes durable, want one flush of all of them", got, dev.DurableSize(), end)
	}
	if got := cap(lm.batch); got != flushBatch {
		t.Fatalf("the daemon keeps a %d-byte staging buffer after a %d-byte group, want %d", got, end, flushBatch)
	}
}
func TestFlushBytesTrigger(t *testing.T) {
	dev := logdev.NewMem(logdev.ProfileMemory)
	lm, err := New(Config{
		Buffer:        logbuf.Config{Variant: logbuf.VariantBaseline, Size: 1 << 18},
		Device:        dev,
		FlushInterval: time.Hour,
		FlushTxns:     1 << 30,
		FlushBytes:    4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lm.Close()
	ap := lm.NewAppender()
	for i := 0; i < 200; i++ { // 200 * 48B > 4096
		if _, _, err := ap.Append(logrec.NewPad(48)); err != nil {
			t.Fatal(err)
		}
	}
	// The byte trigger guarantees a flush once ≥4096 bytes are pending;
	// the sub-threshold tail is the interval trigger's job (disabled here).
	deadline := time.After(2 * time.Second)
	for lm.Durable() < 4096 {
		select {
		case <-deadline:
			t.Fatalf("byte trigger never flushed (durable=%v)", lm.Durable())
		default:
			time.Sleep(time.Millisecond)
		}
	}
}

func TestConcurrentCommitStress(t *testing.T) {
	for _, v := range []logbuf.Variant{logbuf.VariantBaseline, logbuf.VariantCD, logbuf.VariantCDME} {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			t.Parallel()
			dev := logdev.NewMem(logdev.ProfileMemory)
			lm := newTestLM(t, v, dev)
			var completed atomic.Int64
			var wg sync.WaitGroup
			const workers = 12
			const perW = 150
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					ap := lm.NewAppender()
					var done sync.WaitGroup
					for i := 0; i < perW; i++ {
						rec := logrec.NewUpdate(uint64(w), lsn.Undefined, uint64(i),
							logrec.UpdatePayload{Op: logrec.OpSet, After: make([]byte, 64)})
						if _, _, err := ap.Append(rec); err != nil {
							t.Error(err)
							return
						}
						_, end, err := ap.Append(logrec.NewCommit(uint64(w*perW+i), lsn.Undefined))
						if err != nil {
							t.Error(err)
							return
						}
						if i%2 == 0 {
							if err := lm.WaitDurable(end); err != nil {
								t.Error(err)
								return
							}
							completed.Add(1)
						} else {
							done.Add(1)
							lm.OnDurable(end, func(err error) {
								if err == nil {
									completed.Add(1)
								}
								done.Done()
							})
						}
					}
					done.Wait()
				}(w)
			}
			wg.Wait()
			if got := completed.Load(); got != workers*perW {
				t.Fatalf("completed %d, want %d", got, workers*perW)
			}
			// Whole device stream decodes.
			lm.Close()
			data, _, err := logdev.ReadTail(dev)
			if err != nil {
				t.Fatal(err)
			}
			it := logrec.NewIterator(data, 0)
			n := 0
			for {
				if _, ok := it.Next(); !ok {
					break
				}
				n++
			}
			if it.Err() != nil {
				t.Fatalf("stream gap: %v", it.Err())
			}
			if n != workers*perW*2 {
				t.Fatalf("decoded %d records, want %d", n, workers*perW*2)
			}
		})
	}
}

func TestStatsAccounting(t *testing.T) {
	lm := newTestLM(t, logbuf.VariantCD, nil)
	ap := lm.NewAppender()
	_, end, _ := ap.Append(logrec.NewCommit(1, lsn.Undefined))
	lm.WaitDurable(end)
	ch := make(chan struct{})
	lm.OnDurable(end, func(error) { close(ch) })
	<-ch
	st := lm.Stats()
	if st.Inserts.Load() != 1 || st.SyncWaiters.Load() != 1 || st.AsyncWaiters.Load() != 1 {
		t.Fatalf("stats wrong: %d %d %d",
			st.Inserts.Load(), st.SyncWaiters.Load(), st.AsyncWaiters.Load())
	}
}

// A record larger than the appender's scratch is appended whole, and the
// buffer it was encoded in is not kept: the scratch stays what it started
// as, however large the largest record ever appended.
func TestAppendLargeRecordKeepsScratchSmall(t *testing.T) {
	dev := logdev.NewMem(logdev.ProfileMemory)
	lm := newTestLM(t, logbuf.VariantCD, dev)
	ap := lm.NewAppender()
	big := logrec.NewPad(16 << 10)
	at, end, err := ap.Append(big)
	if err != nil {
		t.Fatal(err)
	}
	if err := lm.WaitDurable(end); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, end.Sub(at))
	if _, err := dev.ReadAt(got, int64(at)); err != nil {
		t.Fatal(err)
	}
	if rec, n, err := logrec.Decode(got); err != nil || n != 16<<10 || rec.Kind != logrec.KindPad {
		t.Fatalf("large record read back as %v, %d bytes: %v", rec.Kind, n, err)
	}
	if cap(ap.scratch) != appenderScratch {
		t.Fatalf("appender keeps a %d-byte scratch after a %d-byte record, want %d", cap(ap.scratch), 16<<10, appenderScratch)
	}
}

// TestCommitPathAllocations is the log manager's allocation budget: in
// steady state neither appending a TPC-B update record nor subscribing
// to its durability and being called back allocates — the appender
// encodes into its own buffer, and the durable-waiter heap and the
// daemon's completion batch keep waiters by value in slices they reuse.
// (The count is process-wide, so it covers the daemon's side too; the
// in-memory device's occasional growth is a fraction of an allocation
// per run and rounds away.)
func TestCommitPathAllocations(t *testing.T) {
	lm := newTestLM(t, logbuf.VariantCD, nil)
	ap := lm.NewAppender()
	rec := logrec.NewUpdate(42, 4096, 77, logrec.UpdatePayload{
		Op: logrec.OpSet, Slot: 5, Before: make([]byte, 100), After: make([]byte, 100),
	})
	var acked atomic.Int64
	ack := func(error) { acked.Add(1) }
	commit := func() {
		_, end, err := ap.Append(rec)
		if err != nil {
			t.Fatal(err)
		}
		lm.OnDurable(end, ack)
	}
	const runs = 2_000
	for i := 0; i < runs; i++ {
		commit()
	}
	if got := testing.AllocsPerRun(runs, commit); got != 0 {
		t.Fatalf("%.0f allocations per append + durability callback, budget 0", got)
	}
	if err := lm.WaitDurable(lm.AppendEnd()); err != nil {
		t.Fatal(err)
	}
	// WaitDurable may return as soon as the horizon passes its end, while
	// the daemon still runs that flush's other callbacks; Close returns
	// once the daemon has run them all.
	if err := lm.Close(); err != nil {
		t.Fatal(err)
	}
	if got := acked.Load(); got != 2*runs+1 {
		t.Fatalf("%d of %d callbacks ran", got, 2*runs+1)
	}
}
