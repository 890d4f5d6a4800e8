package core

import (
	"bytes"
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

// encoded returns rec's encoding.
func encoded(t *testing.T, rec *logrec.Record) []byte {
	t.Helper()
	buf, err := rec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// checkDevice reads the device's durable stream and checks that it holds
// exactly the inserted records, each at the address its append returned
// and byte for byte as encoded, between the seals that vouch for them.
// The seals' CRCs are taken from the ring, so they would vouch for a
// torn or overlapping insert too: the byte comparison is what catches
// one.
func checkDevice(t *testing.T, dev logdev.Device, inserted map[lsn.LSN][]byte) {
	t.Helper()
	data, base, err := logdev.ReadTail(dev)
	if err != nil {
		t.Fatal(err)
	}
	it := logrec.NewIterator(data, lsn.LSN(base))
	n := 0
	for rec, ok := it.Next(); ok; rec, ok = it.Next() {
		want, found := inserted[rec.LSN]
		if !found {
			t.Fatalf("the device holds a %v record at %v, where no append put one", rec.Kind, rec.LSN)
		}
		if got := data[rec.LSN.Sub(lsn.LSN(base)):][:rec.TotalLen]; !bytes.Equal(got, want) {
			t.Fatalf("the record at %v differs from the %d bytes appended there", rec.LSN, len(want))
		}
		n++
	}
	if it.Err() != nil || n != len(inserted) {
		t.Fatalf("device stream: %d of %d records, err %v", n, len(inserted), it.Err())
	}
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
	inserted := make(map[lsn.LSN][]byte)
	for i := 0; i < 10; i++ {
		rec := logrec.NewUpdate(uint64(i), lsn.Undefined, 1, logrec.UpdatePayload{
			Op: logrec.OpSet, X: []byte("value"),
		})
		at, e, err := ap.Append(rec)
		if err != nil {
			t.Fatal(err)
		}
		inserted[at] = encoded(t, rec)
		end = e
	}
	if err := lm.WaitDurable(end); err != nil {
		t.Fatal(err)
	}
	if got := lm.Durable(); got < end {
		t.Fatalf("durable %v < %v", got, end)
	}
	// The device must hold a sealed stream of exactly those records.
	checkDevice(t, dev, inserted)
}

func TestWaitDurableAlreadyDurable(t *testing.T) {
	lm := newTestLM(t, logbuf.VariantBaseline, nil)
	ap := lm.NewAppender()
	_, end, err := ap.Append(logrec.NewCommit(1))
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
	_, end, err := ap.Append(logrec.NewCommit(7))
	if err != nil {
		t.Fatal(err)
	}
	ch := make(chan error, 1)
	lm.OnDurable(end, HardenedFunc(func(err error) { ch <- err }))
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
		_, end, err := ap.Append(logrec.NewCommit(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		i := i
		lm.OnDurable(end, HardenedFunc(func(err error) {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			wg.Done()
		}))
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
						_, end, err := ap.Append(logrec.NewCommit(uint64(w*1000 + i)))
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
	_, end, err := ap.Append(logrec.NewCommit(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := lm.WaitDurable(end); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("media gone")
	fs.AddRule(vfs.Rule{Err: boom})
	_, end2, err := ap.Append(logrec.NewCommit(2))
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
	_, end, err := ap.Append(logrec.NewCommit(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := lm.WaitDurable(end); !errors.Is(err, boom) {
		t.Fatalf("commit over the failed fsync: %v, want the fsync error", err)
	}
	durable := lm.Durable()
	var last lsn.LSN
	for id := uint64(2); id < 5; id++ {
		if _, last, err = ap.Append(logrec.NewCommit(id)); err != nil {
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
	_, end, err := ap.Append(logrec.NewCommit(1))
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

// With the interval timer at an hour, nothing flushes the log until one
// of the early triggers fires, and each of them starts a flush: a parked
// WaitDurable, Flush, FlushTxns pending commit subscriptions and
// FlushBytes pending bytes.
func TestFlushTrigger(t *testing.T) {
	dev := logdev.NewMem(logdev.ProfileMemory)
	lm, err := New(Config{
		Buffer:        logbuf.Config{Variant: logbuf.VariantBaseline, Size: 1 << 18},
		Device:        dev,
		FlushInterval: time.Hour,
		FlushTxns:     16,
		FlushBytes:    16 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lm.Close()
	ap := lm.NewAppender()
	var id uint64
	commit := func() lsn.LSN {
		id++
		_, end, err := ap.Append(logrec.NewCommit(id))
		if err != nil {
			t.Fatal(err)
		}
		return end
	}
	var acked atomic.Int64
	detach := func() { lm.OnDurable(commit(), HardenedFunc(func(error) { acked.Add(1) })) }
	flushes := lm.Stats().Flushes.Load
	// idle asserts that for 20 ms nothing flushes: the log holds
	// unflushed work, but no trigger has fired.
	idle := func(what string) {
		t.Helper()
		want := flushes()
		time.Sleep(20 * time.Millisecond)
		if got := flushes(); got != want {
			t.Fatalf("before %s: %d flushes without a trigger", what, got-want)
		}
	}
	// fires asserts that trigger, which returns the end of the log it
	// wrote, starts one flush that hardens the log through that end.
	fires := func(what string, trigger func() lsn.LSN) {
		t.Helper()
		want := flushes() + 1
		end := trigger()
		waitFor(t, 2*time.Second, func() bool { return flushes() >= want })
		if got := flushes(); got != want || lm.Durable() < end {
			t.Fatalf("%s: %d flushes hardened the log to %v, want %d to %v", what, got, lm.Durable(), want, end)
		}
	}

	detach()
	idle("a parked WaitDurable")
	fires("a parked WaitDurable", func() lsn.LSN {
		end := commit()
		if err := lm.WaitDurable(end); err != nil {
			t.Fatal(err)
		}
		return end
	})

	detach()
	idle("Flush")
	fires("Flush", func() lsn.LSN {
		lm.Flush()
		return lm.AppendEnd()
	})

	for i := 0; i < 15; i++ {
		detach()
	}
	idle("FlushTxns")
	fires("FlushTxns", func() lsn.LSN {
		detach()
		return lm.AppendEnd()
	})

	// Bytes nobody waits on: three pads stay below FlushBytes, the fourth
	// crosses it.
	pad := func() lsn.LSN {
		_, end, err := ap.Append(logrec.NewPad(9 << 9)) // 4.5KiB
		if err != nil {
			t.Fatal(err)
		}
		return end
	}
	for i := 0; i < 3; i++ {
		pad()
	}
	idle("FlushBytes")
	fires("FlushBytes", pad)

	waitFor(t, 2*time.Second, func() bool { return acked.Load() == 18 })
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

	_, end1, err := ap.Append(logrec.NewCommit(1))
	if err != nil {
		t.Fatal(err)
	}
	detached := make(chan error, 1)
	lm.OnDurable(end1, HardenedFunc(func(err error) { detached <- err }))
	select {
	case <-detached:
		t.Fatal("an OnDurable subscription alone started a flush")
	case <-time.After(20 * time.Millisecond):
	}
	if got := lm.Stats().Flushes.Load(); got != 0 {
		t.Fatalf("%d flushes with every trigger disabled and nobody parked", got)
	}

	_, end2, err := ap.Append(logrec.NewCommit(2))
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
// commit and no commit beats the device. Nothing but the parked commit
// starts its flush: with the interval timer an hour away, each commit
// costs exactly one daemon pass, the one its own wake-up runs, so no
// pacing period stands between a commit and its flush. (The pass count
// says what a wall-clock ceiling on a few commits said before, without
// failing when another process shares the CPUs.) A sleep only
// overshoots, so the device's share is a lower bound on every round.
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
			passes0 := lm.passes.Load()
			for r := 0; r < rounds; r++ {
				start := time.Now()
				for i := 0; i < commits; i++ {
					id++
					_, end, err := ap.Append(logrec.NewCommit(id))
					if err != nil {
						t.Fatal(err)
					}
					if err := lm.WaitDurable(end); err != nil {
						t.Fatal(err)
					}
				}
				best = min(best, time.Since(start))
			}
			passes := lm.passes.Load() - passes0
			if got := lm.Stats().Flushes.Load(); got != commits*rounds {
				t.Fatalf("%d flushes for %d lone commits", got, commits*rounds)
			}
			if floor := commits * d; best < floor {
				t.Fatalf("%d commits took %v on a %v device, the device alone takes %v", commits, best, d, floor)
			}
			if passes != commits*rounds {
				t.Fatalf("%d daemon passes for %d lone commits, want one each: something besides the parked commit ran a pass", passes, commits*rounds)
			}
		})
	}
}

// syncWatchDev is a latencyDev that counts, for each Sync, the commit
// subscriptions made while it was in progress: the next group filling
// while this one hardens.
type syncWatchDev struct {
	latencyDev
	mu      sync.Mutex
	gen     int     // odd while a Sync is in progress
	arrived []int64 // per Sync, subscriptions made during it
}

func (w *syncWatchDev) Sync() error {
	w.mu.Lock()
	w.gen++
	w.arrived = append(w.arrived, 0)
	w.mu.Unlock()
	err := w.latencyDev.Sync()
	w.mu.Lock()
	w.gen++
	w.mu.Unlock()
	return err
}

// subscribe makes a commit subscription and counts it against the Sync
// it was made within, if any.
func (w *syncWatchDev) subscribe(sub func()) {
	w.mu.Lock()
	gen := w.gen
	w.mu.Unlock()
	sub()
	w.mu.Lock()
	if gen%2 == 1 && w.gen == gen {
		w.arrived[len(w.arrived)-1]++
	}
	w.mu.Unlock()
}

// The daemon flushes a group as soon as a pass finds commits waiting on
// it, and does not hold it for more to arrive, so the commits that come
// while its sync is in progress form the next group. Two producers each
// keep 32 detached commits in flight on a 400 µs device, spending 10 µs
// on each transaction before its commit, so a refill outlasts the
// interval between passes: at least half of the flushes after warm-up
// have a subscription arrive during their sync. A daemon that held the
// group until its arrivals stopped would take in every commit in flight
// and leave none to arrive while it syncs.
func TestNextGroupFillsDuringFlush(t *testing.T) {
	dev := &syncWatchDev{latencyDev: latencyDev{logdev.NewMem(logdev.ProfileMemory), 400 * time.Microsecond}}
	lm := newTestLM(t, logbuf.VariantCD, dev)
	const producers, depth, commits = 2, 32, 32 * 60
	// work stands in for a transaction's execution: 10 µs of CPU, with
	// the scheduling points real work has.
	work := func() {
		for t0 := time.Now(); time.Since(t0) < 10*time.Microsecond; {
			runtime.Gosched()
		}
	}
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			ap := lm.NewAppender()
			slots := make(chan error, depth)
			for i := 0; i < depth; i++ {
				slots <- nil
			}
			ack := func(err error) { slots <- err }
			for i := 0; i < commits+depth; i++ {
				if err := <-slots; err != nil {
					t.Error(err)
					return
				}
				if i >= commits {
					continue // draining the last acknowledgements
				}
				work()
				_, end, err := ap.Append(logrec.NewCommit(uint64(p<<32 | i)))
				if err != nil {
					t.Error(err)
					return
				}
				dev.subscribe(func() { lm.OnDurable(end, HardenedFunc(ack)) })
			}
		}(p)
	}
	wg.Wait()
	dev.mu.Lock()
	defer dev.mu.Unlock()
	const warmup = 10
	if len(dev.arrived) <= 2*warmup {
		t.Fatalf("only %d flushes for %d commits", len(dev.arrived), producers*commits)
	}
	var filling int
	for _, n := range dev.arrived[warmup:] {
		if n > 0 {
			filling++
		}
	}
	flushes := len(dev.arrived) - warmup
	t.Logf("%d commits: %d flushes after warm-up, %d with subscriptions arriving during the sync",
		producers*commits, flushes, filling)
	if 2*filling < flushes {
		t.Fatalf("%d of %d flushes saw a subscription arrive during their sync, want at least half", filling, flushes)
	}
}

// parkDev is an in-memory device whose Sync returns only once the
// producer of TestPipelineIsOneGroup is parked waiting for a slot: every
// commit it can have in flight is in the log before a flush completes.
type parkDev struct {
	*logdev.Segmented
	parked chan struct{}
}

func (d parkDev) Sync() error {
	<-d.parked
	return d.Segmented.Sync()
}

// A closed loop keeping 32 detached commits in flight is one group per
// turn: the producer refills the pipeline before the daemon's next pass
// comes round, so the daemon flushes ≈ commits/32 times. The device
// holds each flush until the producer has used up its slots, so whatever
// a pass finds, the pipeline is whole again before the flush's
// acknowledgements start the next refill; what is left to the scheduler
// is only whether a refill lands before the next interval pass.
func TestPipelineIsOneGroup(t *testing.T) {
	dev := parkDev{logdev.NewMem(logdev.ProfileMemory), make(chan struct{})}
	lm := newTestLM(t, logbuf.VariantCD, dev)
	ap := lm.NewAppender()
	const depth, commits = 32, 32 * 40
	slots := make(chan error, depth)
	for i := 0; i < depth; i++ {
		slots <- nil
	}
	// slot takes a free slot, parking for one if there is none: parked,
	// the producer lets one flush's Sync return, unless an acknowledgement
	// that needs no flush (its record hardened while it subscribed)
	// frees a slot first.
	slot := func() error {
		select {
		case err := <-slots:
			return err
		default:
		}
		select {
		case err := <-slots:
			return err
		case dev.parked <- struct{}{}:
			return <-slots
		}
	}
	ack := func(err error) { slots <- err }
	for i := 0; i < commits; i++ {
		if err := slot(); err != nil {
			t.Fatal(err)
		}
		_, end, err := ap.Append(logrec.NewCommit(uint64(i + 1)))
		if err != nil {
			t.Fatal(err)
		}
		lm.OnDurable(end, HardenedFunc(ack))
	}
	for i := 0; i < depth; i++ {
		if err := slot(); err != nil {
			t.Fatal(err)
		}
	}
	flushes := lm.Stats().Flushes.Load()
	t.Logf("%d commits, depth %d: %d flushes", commits, depth, flushes)
	if limit := 1.25 * commits / depth; float64(flushes) > limit {
		t.Fatalf("%d flushes for %d commits at depth %d, want ≤ %.0f: the pipeline was split", flushes, commits, depth, limit)
	}
}

// Detached commits that arrive every ~300 µs (a wire client's pace) are
// still grouped: nothing wakes the daemon for a detached commit, and the
// interval pass that picks it up comes about a millisecond later on a
// process with nothing else to run.
func TestSparseDetachedCommitsGroup(t *testing.T) {
	lm := newTestLM(t, logbuf.VariantCD, nil)
	ap := lm.NewAppender()
	const commits = 200
	var wg sync.WaitGroup
	wg.Add(commits)
	for i := 0; i < commits; i++ {
		_, end, err := ap.Append(logrec.NewCommit(uint64(i + 1)))
		if err != nil {
			t.Fatal(err)
		}
		lm.OnDurable(end, HardenedFunc(func(error) { wg.Done() }))
		sleepPrecise(300 * time.Microsecond)
	}
	wg.Wait()
	flushes := lm.Stats().Flushes.Load()
	t.Logf("%d commits ~300µs apart: %d flushes", commits, flushes)
	if ratio := float64(flushes) / commits; ratio > 0.5 {
		t.Fatalf("%.2f flushes per commit at one commit per ~300µs, want ≤ 0.5", ratio)
	}
}

// TestWrappedGroupFlushesInPlace: the daemon writes a group to the device
// straight from the ring. A group that wraps past the ring's physical end,
// and a seal whose CRC does, are flushed whole, in one flush each; the
// device holds byte for byte what a flush that copied each group out of
// the ring and sealed the copy would have written; every seal verifies;
// and a flush allocates nothing.
func TestWrappedGroupFlushesInPlace(t *testing.T) {
	const ring = 1 << 16
	dev := logdev.NewMem(logdev.ProfileMemory)
	lm, err := newLane(Config{Buffer: logbuf.Config{Variant: logbuf.VariantCD, Size: ring}, Device: dev})
	if err != nil {
		t.Fatal(err)
	}
	ap := lm.NewAppender()
	// pad returns a pad record of exactly size bytes whose payload is not
	// zero, so a byte out of place changes the stream and its CRC.
	pad := func(size int, fill byte) *logrec.Record {
		r := logrec.NewPad(size)
		for i := range r.Payload {
			r.Payload[i] = fill + byte(i)
		}
		if r.EncodedSize() != size {
			t.Fatalf("pad of %d bytes encodes to %d", size, r.EncodedSize())
		}
		return r
	}
	want := make([]byte, 0, 2<<20) // never grown while allocations count
	flushes := 0
	// group appends recs and flushes them as one group; want gets what a
	// copying flush would have written for it.
	group := func(recs ...*logrec.Record) {
		from := len(want)
		for _, r := range recs {
			if _, _, err := ap.Append(r); err != nil {
				t.Fatal(err)
			}
			want = want[:len(want)+r.EncodedSize()]
			if err := r.EncodeInto(want[len(want)-r.EncodedSize():]); err != nil {
				t.Fatal(err)
			}
		}
		want = logrec.AppendSeal(want, from)
		lm.Flush()
		lm.flushOnce(false)
		flushes++
	}

	// A group that ends in a seal whose CRC straddles the ring's end: the
	// batch [E, S) is under 2 MiB and over 16 KiB, so its seal is 9 bytes
	// and its CRC starts 5 bytes in; S = ring-7 puts the CRC at
	// [ring-2, ring+2).
	group(pad(7000, 1), pad(7000, 2), pad(7000, 3), pad(7000, 4))
	e := int(lm.Durable())
	var recs []*logrec.Record
	for rest := ring - 7 - e; rest > 0; rest -= 7000 {
		recs = append(recs, pad(min(rest, 7000), byte(len(recs))))
	}
	group(recs...)
	if got := int(lm.Durable()); got != ring+2 {
		t.Fatalf("the straddling group ends at %d, want %d", got, ring+2)
	}

	// Groups of about 24 KiB, of records that fit the appender's encode
	// buffer: every third or so wraps the ring.
	recs = []*logrec.Record{pad(4001, 5), pad(4003, 6), pad(4005, 7), pad(4007, 8), pad(4009, 9), pad(4011, 10)}
	wrapped := 0
	pass := func() {
		start := lm.Durable()
		group(recs...)
		if uint64(start)/ring != uint64(lm.Durable()-1)/ring {
			wrapped++
		}
	}
	pass()
	if got := testing.AllocsPerRun(30, pass); got != 0 {
		t.Fatalf("%.0f allocations per flush of a group, budget 0", got)
	}
	if wrapped < 5 {
		t.Fatalf("%d groups wrapped the ring, want several", wrapped)
	}
	if got := lm.Stats().Flushes.Load(); got != int64(flushes) {
		t.Fatalf("%d flushes for %d groups", got, flushes)
	}
	data, base, err := logdev.ReadTail(dev)
	if err != nil || base != 0 {
		t.Fatalf("reading the log: base %d, %v", base, err)
	}
	if !bytes.Equal(data, want) {
		n := 0
		for n < min(len(data), len(want)) && data[n] == want[n] {
			n++
		}
		t.Fatalf("the device holds %d bytes, a copying flush %d; they differ from byte %d", len(data), len(want), n)
	}
	checkSealed(t, dev)
	go lm.daemon()
	if err := lm.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRingWaitsCounted: inserts that find a tiny ring full while the
// device holds the daemon in a sync wait for room, and the log's Stats
// count them and the time they waited.
func TestRingWaitsCounted(t *testing.T) {
	gated := &gatedDev{Device: logdev.NewMem(logdev.ProfileMemory), gate: make(chan struct{})}
	lm, err := New(Config{Buffer: logbuf.Config{Variant: logbuf.VariantCD, Size: 4096}, Device: gated})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lm.Close() })
	release := sync.OnceFunc(func() { close(gated.gate) })
	t.Cleanup(release) // before the log closes, whatever fails first
	ap := lm.NewAppender()
	done := make(chan error, 1)
	go func() {
		var end lsn.LSN
		for i := 0; i < 64; i++ { // four rings' worth
			var err error
			if _, end, err = ap.Append(logrec.NewPad(256)); err != nil {
				done <- err
				return
			}
		}
		done <- lm.WaitDurable(end)
	}()
	time.Sleep(20 * time.Millisecond)
	select {
	case err := <-done:
		t.Fatalf("four rings of log were appended and hardened past a held device: %v", err)
	default:
	}
	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	ring := lm.Stats().Ring
	if ring.Waits.Load() == 0 || ring.WaitNanos.Load() <= 0 {
		t.Fatalf("%d inserts waited %v for ring room, want some", ring.Waits.Load(), time.Duration(ring.WaitNanos.Load()))
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
			var mu sync.Mutex
			inserted := make(map[lsn.LSN][]byte)
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
							logrec.UpdatePayload{Op: logrec.OpSet, X: bytes.Repeat([]byte{byte(w*perW + i)}, 64)})
						at, _, err := ap.Append(rec)
						if err != nil {
							t.Error(err)
							return
						}
						commit := logrec.NewCommit(uint64(w*perW + i))
						cat, end, err := ap.Append(commit)
						if err != nil {
							t.Error(err)
							return
						}
						mu.Lock()
						inserted[at], inserted[cat] = encoded(t, rec), encoded(t, commit)
						mu.Unlock()
						if i%2 == 0 {
							if err := lm.WaitDurable(end); err != nil {
								t.Error(err)
								return
							}
							completed.Add(1)
						} else {
							done.Add(1)
							lm.OnDurable(end, HardenedFunc(func(err error) {
								if err == nil {
									completed.Add(1)
								}
								done.Done()
							}))
						}
					}
					done.Wait()
				}(w)
			}
			wg.Wait()
			if got := completed.Load(); got != workers*perW {
				t.Fatalf("completed %d, want %d", got, workers*perW)
			}
			// The whole device stream is the records appended.
			lm.Close()
			if len(inserted) != workers*perW*2 {
				t.Fatalf("%d distinct append addresses, want %d", len(inserted), workers*perW*2)
			}
			checkDevice(t, dev, inserted)
		})
	}
}

func TestStatsAccounting(t *testing.T) {
	lm := newTestLM(t, logbuf.VariantCD, nil)
	ap := lm.NewAppender()
	_, end, _ := ap.Append(logrec.NewCommit(1))
	lm.WaitDurable(end)
	ch := make(chan struct{})
	lm.OnDurable(end, HardenedFunc(func(error) { close(ch) }))
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
	if cap(ap.scratch) != AppenderScratch {
		t.Fatalf("appender keeps a %d-byte scratch after a %d-byte record, want %d", cap(ap.scratch), 16<<10, AppenderScratch)
	}
}

// TestCommitPathAllocations is the log manager's allocation budget: in
// steady state neither appending a TPC-B update record nor subscribing
// to its durability and being called back, nor a blocking commit that
// parks on it, allocates — the appender encodes into its own buffer, the
// durable-waiter heap and the daemon's completion batch keep waiters by
// value in slices they reuse, and a parked waiter's channel is pooled.
// (The count is process-wide, so it covers the daemon's side too; the
// in-memory device's occasional growth is a fraction of an allocation
// per run and rounds away.)
func TestCommitPathAllocations(t *testing.T) {
	lm := newTestLM(t, logbuf.VariantCD, nil)
	ap := lm.NewAppender()
	rec := logrec.NewUpdate(42, 4096, 77, logrec.UpdatePayload{
		Op: logrec.OpSet, Slot: 5, Off: 8, X: []byte{1, 2, 3, 4, 5, 6, 7, 8},
	})
	var acked atomic.Int64
	ack := func(error) { acked.Add(1) }
	commit := func() {
		_, end, err := ap.Append(rec)
		if err != nil {
			t.Fatal(err)
		}
		lm.OnDurable(end, HardenedFunc(ack))
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
	blocking := func() {
		_, end, err := ap.Append(rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := lm.WaitDurable(end); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < runs; i++ {
		blocking()
	}
	if got := testing.AllocsPerRun(runs, blocking); got != 0 {
		t.Fatalf("%.0f allocations per append + blocking WaitDurable, budget 0", got)
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
