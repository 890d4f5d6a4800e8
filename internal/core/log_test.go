package core

import (
	"errors"
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
	data, err := logdev.ReadAll(dev)
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

func TestGroupCommitBatches(t *testing.T) {
	// With a slow device and many concurrent committers, the daemon must
	// batch: far fewer syncs than commits.
	dev := logdev.NewMem(logdev.Profile{Name: "slow", SyncLatency: time.Millisecond})
	lm, err := New(Config{
		Buffer:        logbuf.Config{Variant: logbuf.VariantCD, Size: 1 << 18},
		Device:        dev,
		FlushInterval: 200 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lm.Close()

	const workers = 16
	const perW = 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ap := lm.NewAppender()
			for i := 0; i < perW; i++ {
				_, end, err := ap.Append(logrec.NewCommit(uint64(w*1000+i), lsn.Undefined))
				if err != nil {
					t.Error(err)
					return
				}
				if err := lm.WaitDurable(end); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	commits := int64(workers * perW)
	syncs := dev.Stats().Syncs.Load()
	if syncs >= commits {
		t.Fatalf("no batching: %d syncs for %d commits", syncs, commits)
	}
	t.Logf("group commit: %d commits in %d syncs (%.1f commits/sync)",
		commits, syncs, float64(commits)/float64(syncs))
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

// Flush pacing: back-to-back blocking commits are one flush each, and
// the flushes start no closer together than minFlushPeriod — the
// commit rate is the period's, not the (here instantaneous) device's.
func TestFlushPacing(t *testing.T) {
	lm, err := New(Config{
		Buffer:        logbuf.Config{Variant: logbuf.VariantBaseline, Size: 1 << 18},
		Device:        logdev.NewMem(logdev.ProfileMemory),
		FlushInterval: time.Hour,
		FlushTxns:     1 << 30,
		FlushBytes:    1 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lm.Close()
	ap := lm.NewAppender()

	const commits = 20
	start := time.Now()
	for i := 0; i < commits; i++ {
		_, end, err := ap.Append(logrec.NewCommit(uint64(i+1), lsn.Undefined))
		if err != nil {
			t.Fatal(err)
		}
		if err := lm.WaitDurable(end); err != nil {
			t.Fatal(err)
		}
	}
	if got, floor := time.Since(start), (commits-1)*minFlushPeriod; got < floor {
		t.Fatalf("%d back-to-back commits took %v, pacing allows no less than %v", commits, got, floor)
	}
	if got := lm.Stats().Flushes.Load(); got != commits {
		t.Fatalf("%d flushes for %d lone commits", got, commits)
	}
}

// The group window: behind a flush that has just started, a group of
// detached commits is held until groupWindow after that start, and the
// window closes early — at minFlushPeriod — for each of the reasons
// flushPeriod names. Sleeps only overshoot, so "held" is a lower bound
// on one attempt and "closed early" needs one of many attempts to come
// in under the window: held for it, none could.
func TestGroupWindow(t *testing.T) {
	const txns = 4
	lm, err := New(Config{
		Buffer:        logbuf.Config{Variant: logbuf.VariantBaseline, Size: 1 << 18},
		Device:        logdev.NewMem(logdev.ProfileMemory),
		FlushInterval: time.Hour,
		FlushTxns:     txns,
		FlushBytes:    4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lm.Close()
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
	// detachedBehindFlush has a parked commit start a flush, subscribes a
	// detached commit behind it, shows it to the daemon, runs closeGroup
	// and returns how long after that flush's start (at the latest) the
	// detached commit was acknowledged.
	detachedBehindFlush := func(closeGroup func()) time.Duration {
		before := time.Now()
		if err := lm.WaitDurable(commit()); err != nil {
			t.Fatal(err)
		}
		acked := make(chan error, 1)
		lm.OnDurable(commit(), func(err error) { acked <- err })
		lm.Poke()
		closeGroup()
		select {
		case err := <-acked:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("detached commit never acknowledged")
		}
		return time.Since(before)
	}

	if got := detachedBehindFlush(func() {}); got < groupWindow {
		t.Fatalf("detached group flushed %v after the previous flush began, the window is %v", got, groupWindow)
	}
	for _, c := range []struct {
		name       string
		closeGroup func()
	}{
		{"somebody parks", func() {
			if err := lm.WaitDurable(commit()); err != nil {
				t.Fatal(err)
			}
		}},
		{"Flush", lm.Flush},
		{"FlushTxns commits", func() {
			for i := 1; i < txns; i++ {
				lm.OnDurable(commit(), func(error) {})
			}
		}},
		{"FlushBytes", func() {
			for i := 0; i < 100; i++ { // 100 * 48B > 4096
				if _, _, err := ap.Append(logrec.NewPad(48)); err != nil {
					t.Fatal(err)
				}
			}
		}},
	} {
		best := time.Hour
		for i := 0; i < 50 && best >= groupWindow; i++ {
			best = min(best, detachedBehindFlush(c.closeGroup))
		}
		if best >= groupWindow {
			t.Errorf("%s: the group still waited out the window (best of 50: %v)", c.name, best)
		}
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
			data, err := logdev.ReadAll(dev)
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
