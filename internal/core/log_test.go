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
)

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
// convoy and dribble commits in: ROADMAP 2(c)) only batching itself is
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
	dev := logdev.NewMem(logdev.ProfileMemory)
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
	dev.FailWith(boom)
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
// started, a group of detached commits that stops growing is flushed
// long before groupWindow; a stream that never pauses is held to it; and
// the four early-close reasons still close a growing group at once. A
// hiccup in a stream is a pause the rule is right to act on, so each
// held or closed-early case needs one of several attempts that the
// stall rule did not close.
func TestGroupWindow(t *testing.T) {
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
		t.Cleanup(func() { lm.Close() })
		ap := lm.NewAppender()
		var id uint64
		return lm, ap, func() lsn.LSN {
			id++
			_, end, err := ap.Append(logrec.NewCommit(id, lsn.Undefined))
			if err != nil {
				t.Fatal(err)
			}
			return end
		}
	}

	// A lone detached commit behind a parked one's flush: nothing more is
	// coming, so the group closes a silence after its arrival. Each
	// attempt opens a fresh log: on a reused one the attempts themselves
	// would teach the arrival average their own period.
	best, stalled := time.Hour, int64(0)
	for i := 0; i < 50 && best >= groupWindow/2; i++ {
		lm, _, commit := open(128)
		before := time.Now()
		if err := lm.WaitDurable(commit()); err != nil {
			t.Fatal(err)
		}
		acked := make(chan error, 1)
		lm.OnDurable(commit(), func(err error) { acked <- err })
		lm.Poke()
		select {
		case err := <-acked:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("detached commit never acknowledged")
		}
		best = min(best, time.Since(before))
		stalled += lm.Stats().GroupsStalled.Load()
		lm.Close()
	}
	if best >= groupWindow/2 {
		t.Fatalf("a group that stopped growing was held %v (best of 50), want under %v", best, groupWindow/2)
	}
	if stalled == 0 {
		t.Fatal("no group was counted as closed by its arrivals stopping")
	}

	// stream has a parked commit start a flush on lm, then subscribes a
	// detached commit every ~20 µs and runs closeGroup (if any) 200 µs in.
	// It returns how long after that flush's start the stream's first
	// commit was acknowledged, and whether the group was closed by its
	// arrivals stopping.
	stream := func(lm *LogManager, commit func() lsn.LSN, closeGroup func()) (time.Duration, bool) {
		st := lm.Stats()
		before := time.Now()
		if err := lm.WaitDurable(commit()); err != nil {
			t.Fatal(err)
		}
		stalled := st.GroupsStalled.Load()
		acked := make(chan error, 1)
		lm.OnDurable(commit(), func(err error) { acked <- err })
		lm.Poke()
		last := time.Now()
		closeAt := last.Add(200 * time.Microsecond)
		for {
			select {
			case err := <-acked:
				if err != nil {
					t.Fatal(err)
				}
				return time.Since(before), st.GroupsStalled.Load() != stalled
			default:
			}
			now := time.Now()
			if closeGroup != nil && now.After(closeAt) {
				closeGroup()
				closeGroup = nil
			}
			if now.Sub(last) >= 20*time.Microsecond {
				lm.OnDurable(commit(), func(error) {})
				last = now
			}
			runtime.Gosched() // a daemon readied by this goroutine may wait on its P
			if now.Sub(before) > 5*time.Second {
				t.Fatal("detached commit never acknowledged")
			}
		}
	}

	// A window's worth of the stream is ~75 commits: FlushTxns 128 never
	// closes it.
	lm, _, commit := open(128)
	held := false
	for i := 0; i < 20 && !held; i++ {
		capped := lm.Stats().GroupsCapped.Load()
		got, _ := stream(lm, commit, nil)
		held = got >= groupWindow && lm.Stats().GroupsCapped.Load() == capped+1
	}
	if !held {
		t.Fatalf("a stream that never paused was never held to the %v cap in 20 attempts", groupWindow)
	}

	var parks sync.WaitGroup
	defer parks.Wait()
	for _, c := range []struct {
		name       string
		flushTxns  int // the stream reaches 16 only ~300 µs in, after closeGroup
		closeGroup func(lm *LogManager, ap *Appender, commit func() lsn.LSN)
	}{
		{"somebody parks", 128, func(lm *LogManager, _ *Appender, commit func() lsn.LSN) {
			end := commit()
			parks.Add(1)
			go func() {
				defer parks.Done()
				if err := lm.WaitDurable(end); err != nil {
					t.Error(err)
				}
			}()
		}},
		{"Flush", 128, func(lm *LogManager, _ *Appender, _ func() lsn.LSN) { lm.Flush() }},
		{"FlushTxns commits", 16, func(lm *LogManager, _ *Appender, commit func() lsn.LSN) {
			for i := 0; i < 16; i++ {
				lm.OnDurable(commit(), func(error) {})
			}
		}},
		{"FlushBytes", 128, func(_ *LogManager, ap *Appender, _ func() lsn.LSN) {
			// Two appends, not many small ones: log bytes are not
			// arrivals, so a slow run of them reads as a stall.
			for i := 0; i < 2; i++ { // 2 * 9KiB > 16KiB
				if _, _, err := ap.Append(logrec.NewPad(9 << 10)); err != nil {
					t.Fatal(err)
				}
			}
		}},
	} {
		lm, ap, commit := open(c.flushTxns)
		early := false
		for i := 0; i < 20 && !early; i++ {
			got, stalled := stream(lm, commit, func() { c.closeGroup(lm, ap, commit) })
			early = got < groupWindow && !stalled
		}
		if !early {
			t.Errorf("%s: a growing group still waited out the window in 20 attempts", c.name)
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
	if got := acked.Load(); got != 2*runs+1 {
		t.Fatalf("%d of %d callbacks ran", got, 2*runs+1)
	}
}
