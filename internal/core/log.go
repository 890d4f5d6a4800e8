// Package core implements Aether's log manager: the paper's scalable log
// buffer (§5) joined to a flush daemon with a group-commit policy (§4) and
// the commit-subscription machinery that Early Lock Release and Flush
// Pipelining are built on.
//
// The division of labor follows the paper exactly:
//
//   - Agent threads insert records through per-thread Appenders; inserts
//     never perform I/O and never block on it.
//   - A single daemon goroutine drains the buffer's released region to the
//     log device, so agent threads never touch it, and closes each batch
//     it hardens with a seal, the batch's length and CRC-32C (seal.go).
//   - Transactions subscribe to the durable horizon: asynchronously
//     (OnDurable — flush pipelining's detach/re-attach, no blocking on the
//     agent thread) or synchronously (WaitDurable — the baseline's
//     blocking commit, one scheduling event per transaction).
//
// What starts a flush is whether anybody waits on it. Each daemon pass
// flushes the released log whenever a commit waits on it — a detached one
// (OnDurable) or a parked one (WaitDurable) — or when Flush, Force or
// Close asked for it, or FlushBytes of it are pending; commits that
// arrive while that flush syncs form the next group, so the next group
// fills while this one hardens. The paper's triggers ("flush every X
// transactions, L bytes logged, or T time elapsed, whichever comes
// first") pace the passes: the FlushInterval timer, the FlushTxns
// wake-up and the FlushBytes wake-up. A parked commit also wakes the
// daemon itself, since every microsecond before its flush starts is
// commit latency; a detached one does not (its thread keeps working, and
// waking per pipelined commit multiplies flushes), so a lone detached
// commit waits for the next interval pass: FlushInterval, which on an
// otherwise idle process the runtime's timer stretches to about a
// millisecond. Released log nobody waits on is left for a later flush
// until a timer pass finds groupWindow gone since the previous one
// started.
package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"aether/internal/logbuf"
	"aether/internal/logdev"
	"aether/internal/logrec"
	"aether/internal/lsn"
	"aether/internal/metrics"
)

// Config parameterizes a LogManager.
type Config struct {
	// Buffer configures the in-memory log buffer (variant, size, slots).
	Buffer logbuf.Config
	// Device is the stable storage the daemon flushes to.
	Device logdev.Device
	// FlushTxns wakes the daemon early once this many commit
	// subscriptions are pending (the "X transactions" group-commit
	// trigger), instead of leaving them to the next interval pass.
	// Default 128.
	FlushTxns int
	// FlushBytes wakes the daemon once this many released bytes are
	// pending (the "L bytes" trigger), and a pass flushes them whether or
	// not anybody waits on them. Default 256KiB.
	FlushBytes int
	// FlushInterval is how long after a pass the daemon runs another when
	// nothing woke it (the "T time elapsed" trigger); a pass flushes the
	// log any commit waits on. Default 50µs.
	FlushInterval time.Duration
}

func (c *Config) applyDefaults() {
	if c.FlushTxns <= 0 {
		c.FlushTxns = 128
	}
	if c.FlushBytes <= 0 {
		c.FlushBytes = 256 << 10
	}
	if c.FlushInterval <= 0 {
		c.FlushInterval = 50 * time.Microsecond
	}
}

// Stats exposes the log manager's operational counters.
type Stats struct {
	// Inserts counts records appended.
	Inserts metrics.Counter
	// InsertBytes counts bytes appended, seals included.
	InsertBytes metrics.Counter
	// Flushes counts device sync operations performed by the daemon.
	Flushes metrics.Counter
	// FlushBytes counts bytes made durable.
	FlushBytes metrics.Counter
	// SyncWaiters counts WaitDurable calls (each is one blocking commit —
	// a scheduling event in the paper's terms).
	SyncWaiters metrics.Counter
	// AsyncWaiters counts OnDurable subscriptions (pipelined commits).
	AsyncWaiters metrics.Counter
	// GroupSize records bytes per flush — group commit's batching effect.
	GroupSize metrics.Histogram
	// FlushLatency records time from daemon pickup to durable.
	FlushLatency metrics.Histogram
	// Truncations counts log truncations that advanced the horizon.
	Truncations metrics.Counter
	// TruncatedBytes counts logical log bytes released behind the
	// truncation horizon (recyclable by the device).
	TruncatedBytes metrics.Counter
	// Ring counts the inserts that waited for ring space, and how long:
	// the log buffer's own counters.
	Ring *logbuf.WaitStats
}

// groupWindow is how long released log that no commit waits on, and
// nobody asked to flush, stays pending, counted from the start of the
// previous flush: such log (a transaction's records before its commit)
// rides the next commit's flush instead of costing an fsync of its own.
const groupWindow = 1500 * time.Microsecond

// ErrClosed is returned for operations on a closed log manager.
var ErrClosed = errors.New("core: log manager closed")

// LogManager is the Aether log: a scalable in-memory buffer, a flush
// daemon, and the durable horizon.
type LogManager struct {
	cfg   Config
	buf   *logbuf.Buffer
	rd    *logbuf.Reader
	dev   logdev.Device
	stats Stats

	durable lsn.Atomic
	// appendEnd is the highest end LSN any Append has returned — the
	// ceiling Force can ever be satisfied at. Forcing beyond it would
	// wait for log that nobody is going to write.
	appendEnd lsn.Atomic

	// Appended-bytes notification (the background checkpointer's
	// trigger): fn fires once per notify-interval of inserted bytes.
	notify     atomic.Pointer[appendNotify]
	notifyNext atomic.Int64

	// limit (the A.5 flush clamp: how far a flush of [start, end) may
	// harden) and durableAdvanced (run after each durable advance) are
	// set by NewMultiLog on a lane of N >= 2 before the daemon starts,
	// and read only by the daemon; nil otherwise.
	limit           func(start, end lsn.LSN) lsn.LSN
	durableAdvanced func()

	mu      sync.Mutex
	waiters waiterHeap
	pending int // commit subscriptions since last flush
	failed  error
	closed  bool
	wakeCh  chan struct{}
	stopCh  chan struct{}
	doneCh  chan struct{}
	// flushTo is where the log's append end stood when Flush last asked
	// for a flush: a pass flushes until it has hardened that far. A
	// request a flush has already met does not make a later pass flush
	// what was appended since — every flush costs a seal.
	flushTo lsn.LSN

	// passes counts the daemon's passes, flushing or not (tests read it).
	passes atomic.Int64
	// lastFlush is when the daemon last started writing a batch to the
	// device (daemon goroutine only) — what groupWindow counts from.
	lastFlush time.Time
	// ready is completeWaiters' batch, and sealing the seals a flush
	// hardens, kept between flushes (both daemon goroutine only).
	ready   []waiter
	sealing []sealMark

	// seals is the lane's seal book, sealer the daemon's own (seal.go).
	seals  sealBook
	sealer *sealer
	// ends holds hardened seals, where Truncate may cut (under mu).
	ends sealEnds
}

// New builds and starts a log manager; the flush daemon runs until Close.
func New(cfg Config) (*LogManager, error) {
	lm, err := newLane(cfg)
	if err != nil {
		return nil, err
	}
	go lm.daemon()
	return lm, nil
}

// newLane builds a log manager whose daemon the caller starts.
func newLane(cfg Config) (*LogManager, error) {
	cfg.applyDefaults()
	if cfg.Device == nil {
		return nil, errors.New("core: Config.Device is required")
	}
	buf, err := logbuf.New(cfg.Buffer)
	if err != nil {
		return nil, err
	}
	if got := lsn.LSN(cfg.Device.DurableSize()); got != cfg.Buffer.Base {
		return nil, fmt.Errorf("core: buffer base %v does not match device durable size %v",
			cfg.Buffer.Base, got)
	}
	lm := &LogManager{
		cfg:    cfg,
		buf:    buf,
		rd:     buf.Reader(),
		dev:    cfg.Device,
		wakeCh: make(chan struct{}, 1),
		stopCh: make(chan struct{}),
		doneCh: make(chan struct{}),
	}
	lm.stats.Ring = buf.WaitStats()
	// The log resumes where the device left off: LSNs are stable log
	// addresses, so the base of a restarted log is the durable size (an
	// existing log is read by recovery before the manager is built). Both
	// it and the device's base are seal ends: every harden and every
	// truncation ended at one.
	lm.durable.Store(cfg.Buffer.Base)
	lm.appendEnd.Store(cfg.Buffer.Base)
	lm.seals.last = cfg.Buffer.Base
	lm.sealer = newSealer(lm, lm.rd.Inserter())
	lm.ends = newSealEnds(lsn.LSN(cfg.Device.Base()), cfg.Buffer.Base)
	return lm, nil
}

// Stats returns the manager's counters.
func (lm *LogManager) Stats() *Stats { return &lm.stats }

// Durable returns the durable horizon: every record whose end LSN is at
// or below it has reached stable storage.
func (lm *LogManager) Durable() lsn.LSN { return lm.durable.Load() }

// Appender is a per-goroutine handle for inserting records. It owns an
// encode scratch buffer so record marshalling costs no allocation.
type Appender struct {
	lm      *LogManager
	ins     *logbuf.Inserter
	scratch []byte
}

// AppenderScratch is the encode buffer an Appender keeps between
// appends. A larger record (they run to logrec.MaxPayload, 16 MiB) is
// encoded in a buffer of its own, so one bulk row does not stay pinned
// on the session for life (txn's maxRecordBuffer is the same rule for
// the record it is encoded from). A checkpoint is logged in chunks that
// fit it.
const AppenderScratch = 4096

// NewAppender returns a fresh per-goroutine appender.
func (lm *LogManager) NewAppender() *Appender {
	return &Appender{
		lm:      lm,
		ins:     lm.buf.NewInserter(),
		scratch: make([]byte, AppenderScratch),
	}
}

// Append encodes rec and inserts it, returning the record's LSN and its
// end (the durability point a committer must wait for).
func (a *Appender) Append(rec *logrec.Record) (at, end lsn.LSN, err error) {
	size := rec.EncodedSize()
	var buf []byte
	if size <= len(a.scratch) {
		buf = a.scratch[:size]
	} else {
		buf = make([]byte, size)
	}
	if err := rec.EncodeInto(buf); err != nil {
		return 0, 0, err
	}
	at, err = a.ins.Insert(buf)
	if err != nil {
		return 0, 0, err
	}
	a.lm.stats.Inserts.Inc()
	a.lm.stats.InsertBytes.Add(int64(size))
	a.lm.appendEnd.AdvanceTo(at.Add(size))
	a.lm.maybeWakeForBytes()
	return at, at.Add(size), nil
}

// maybeWakeForBytes applies the "L bytes logged" group-commit trigger.
func (lm *LogManager) maybeWakeForBytes() {
	start, end := lm.rd.Pending()
	if int(end.Sub(start)) >= lm.cfg.FlushBytes {
		lm.wake()
	}
	lm.maybeNotifyAppend()
}

// appendNotify is one registered appended-bytes subscription.
type appendNotify struct {
	every int64
	fn    func()
}

// SetAppendNotify arranges for fn to run each time roughly every more
// bytes have been inserted since the last firing — the background
// checkpointer's "checkpoint every N log bytes" trigger. fn runs on an
// appender goroutine and must not block (nudge a channel, don't work).
// every <= 0 or a nil fn clears the subscription.
func (lm *LogManager) SetAppendNotify(every int64, fn func()) {
	if every <= 0 || fn == nil {
		lm.notify.Store(nil)
		return
	}
	lm.notifyNext.Store(lm.stats.InsertBytes.Load() + every)
	lm.notify.Store(&appendNotify{every: every, fn: fn})
}

// maybeNotifyAppend fires the appended-bytes subscription when the
// insert volume crosses its next threshold. The CAS elects exactly one
// of the racing appenders to fire and advances the threshold past the
// bytes already inserted, so a burst cannot queue up redundant firings.
func (lm *LogManager) maybeNotifyAppend() {
	n := lm.notify.Load()
	if n == nil {
		return
	}
	total := lm.stats.InsertBytes.Load()
	next := lm.notifyNext.Load()
	if total < next {
		return
	}
	if lm.notifyNext.CompareAndSwap(next, total+n.every) {
		n.fn()
	}
}

// Poke nudges the flush daemon to run another pass (non-blocking,
// coalescing). The multi-log coordinator pokes a partition whose flush
// was clamped by a dependency edge once the edge's target log hardens.
func (lm *LogManager) Poke() { lm.wake() }

// AppendEnd returns the highest end LSN any append has returned — the
// ceiling of the log's written region.
func (lm *LogManager) AppendEnd() lsn.LSN { return lm.appendEnd.Load() }

// Hardener is a detached durability subscriber (OnDurable). A pointer
// to a value with a Hardened method subscribes without allocating, where
// a method value or closure would cost an allocation per subscription.
type Hardener interface {
	// Hardened runs once, on the daemon goroutine, when the subscribed
	// end is durable (err nil) or the log has failed or closed.
	Hardened(err error)
}

// HardenedFunc adapts a function to Hardener.
type HardenedFunc func(error)

// Hardened calls f(err).
func (f HardenedFunc) Hardened(err error) { f(err) }

// waiter is one durability subscription: a detached subscriber, or the
// channel a parked one waits on.
type waiter struct {
	end lsn.LSN
	h   Hardener
	ch  chan error
}

// done completes the subscription with err.
func (w *waiter) done(err error) {
	if w.ch != nil {
		w.ch <- err
		return
	}
	w.h.Hardened(err)
}

// parkChans holds the channels WaitDurable parks on, so that a blocking
// commit allocates neither a channel nor a closure. A channel goes back
// to the pool only after its one value was received, so it is empty.
var parkChans = sync.Pool{New: func() any { return make(chan error, 1) }}

// waiterHeap is a min-heap of waiters by end LSN. It is hand-rolled
// rather than driven through container/heap, whose Push and Pop box
// every waiter into an interface: an allocation per commit.
type waiterHeap []waiter

func (h *waiterHeap) push(w waiter) {
	q := append(*h, w)
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if q[parent].end <= q[i].end {
			break
		}
		q[parent], q[i] = q[i], q[parent]
		i = parent
	}
	*h = q
}

// pop removes and returns the waiter with the smallest end; the heap
// must not be empty.
func (h *waiterHeap) pop() waiter {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = waiter{} // drop the callback and channel references
	q = q[:n]
	for i := 0; ; {
		least := i
		if l := 2*i + 1; l < n && q[l].end < q[least].end {
			least = l
		}
		if r := 2*i + 2; r < n && q[r].end < q[least].end {
			least = r
		}
		if least == i {
			break
		}
		q[i], q[least] = q[least], q[i]
		i = least
	}
	*h = q
	return top
}

// OnDurable arranges for h.Hardened(nil) to run (on the daemon
// goroutine) once the durable horizon reaches end. If the log has failed
// or is closed, it runs immediately with the error. This is flush
// pipelining's detach: the calling agent thread keeps executing other
// transactions.
func (lm *LogManager) OnDurable(end lsn.LSN, h Hardener) {
	lm.stats.AsyncWaiters.Inc()
	if lm.durable.Load() >= end {
		h.Hardened(nil)
		return
	}
	if err := lm.subscribe(waiter{end: end, h: h}); err != nil {
		h.Hardened(err)
	}
}

// subscribe registers a waiter and applies the FlushTxns trigger.
func (lm *LogManager) subscribe(w waiter) error {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	if lm.failed != nil {
		return lm.failed
	}
	if lm.closed {
		return ErrClosed
	}
	lm.waiters.push(w)
	lm.pending++
	if lm.pending >= lm.cfg.FlushTxns {
		lm.wake()
	}
	return nil
}

// WaitDurable blocks until the durable horizon reaches end — the
// traditional synchronous commit. Every call is one agent-thread
// block/unblock pair, which is precisely the scheduling cost flush
// pipelining eliminates. Because the caller is parked, the subscription
// wakes the daemon instead of waiting for the next pass: a flush starts
// at once, and commits that arrive while it syncs form the next group.
// (OnDurable must not do the same — its callers keep working, and waking
// per subscription multiplies flushes.)
func (lm *LogManager) WaitDurable(end lsn.LSN) error {
	lm.stats.SyncWaiters.Inc()
	if lm.durable.Load() >= end {
		return nil
	}
	ch := parkChans.Get().(chan error)
	defer parkChans.Put(ch)
	if err := lm.subscribe(waiter{end: end, ch: ch}); err != nil {
		return err
	}
	lm.wake()
	return <-ch
}

// Force makes the log durable at least through upTo, blocking until it
// is. This is the buffer pool's flush-before-steal hook (the WAL rule:
// no dirty page image may reach the database file before the log that
// produced it), and with storage.WAL it is how the pool cross-checks
// faulted images against the durable horizon.
//
// Forcing beyond the appended log end is an error, not a wait: no flush
// can ever satisfy it (a page stamped with a synthetic LSN by unlogged
// recovery undo would otherwise hang its evictor forever; the error
// makes the steal decline and the page stay resident).
func (lm *LogManager) Force(upTo lsn.LSN) error {
	if lm.durable.Load() >= upTo {
		return nil
	}
	if end := lm.appendEnd.Load(); upTo > end {
		return fmt.Errorf("core: Force(%v) beyond the appended log end %v", upTo, end)
	}
	return lm.WaitDurable(upTo)
}

// Truncate releases the log prefix below before: the checkpointer's
// horizon, forwarded to the device. before is rounded down to a hardened
// seal's end, so the new base starts a batch its seal can vouch for —
// which also clamps it to the durable horizon (truncating unflushed log
// would discard the only copy). It returns how many bytes the device
// newly released.
func (lm *LogManager) Truncate(before lsn.LSN) (int64, error) {
	lm.mu.Lock()
	before = lm.ends.floor(before)
	lm.mu.Unlock()
	old := lm.dev.Base()
	if err := lm.dev.Truncate(int64(before)); err != nil {
		return 0, fmt.Errorf("core: device truncate: %w", err)
	}
	released := lm.dev.Base() - old
	if released > 0 {
		lm.stats.Truncations.Inc()
		lm.stats.TruncatedBytes.Add(released)
	}
	return released, nil
}

// Base returns the log's truncation horizon: the address of the oldest
// byte still readable on the device (0 if never truncated).
func (lm *LogManager) Base() lsn.LSN { return lsn.LSN(lm.dev.Base()) }

// Flush asks the daemon to flush everything appended so far without
// waiting for it to complete. Combine with WaitDurable to force.
func (lm *LogManager) Flush() {
	lm.mu.Lock()
	lm.flushTo = max(lm.flushTo, lm.appendEnd.Load(), lm.rd.Released())
	lm.mu.Unlock()
	lm.wake()
}

// wake nudges the daemon (non-blocking, coalescing).
func (lm *LogManager) wake() {
	select {
	case lm.wakeCh <- struct{}{}:
	default:
	}
}

// Close flushes what remains, stops the daemon and fails any unreachable
// waiters. The device is not closed (the caller owns it).
func (lm *LogManager) Close() error {
	lm.mu.Lock()
	if lm.closed {
		lm.mu.Unlock()
		<-lm.doneCh
		return lm.failed
	}
	lm.closed = true
	lm.mu.Unlock()
	close(lm.stopCh)
	<-lm.doneCh
	lm.mu.Lock()
	defer lm.mu.Unlock()
	return lm.failed
}

// daemon is the flush loop: a single thread doing all log I/O, so agent
// threads never block on the device (§4.1).
func (lm *LogManager) daemon() {
	defer close(lm.doneCh)
	timer := time.NewTimer(lm.cfg.FlushInterval)
	defer timer.Stop()
	for {
		stop, timed := false, false
		select {
		case <-lm.stopCh:
			stop = true
		case <-lm.wakeCh:
		case <-timer.C:
			timed = true
		}

		lm.flushOnce(timed)

		if stop {
			// Final drain: one more pass in case inserts raced Close.
			lm.flushOnce(false)
			lm.failWaiters(ErrClosed)
			return
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(lm.cfg.FlushInterval)
	}
}

// due reports whether this pass flushes the pending released log, which
// starts at start: a commit waits on it, Flush, Force or Close asked for
// it, FlushBytes of it are pending, or — on a timer pass — groupWindow
// has passed since the previous flush started. A pass somebody woke for
// a request another pass met flushes nothing nobody asked for, so where
// a run's seals fall depends on its requests, not on how late a wake-up
// ran.
func (lm *LogManager) due(start lsn.LSN, pendingBytes int, timed bool) bool {
	if pendingBytes >= lm.cfg.FlushBytes {
		return true
	}
	lm.mu.Lock()
	defer lm.mu.Unlock()
	return len(lm.waiters) > 0 || lm.flushTo > start || lm.closed || timed && time.Since(lm.lastFlush) >= groupWindow
}

// flushOnce drains the released region (when the pass is due), makes it
// durable, and completes satisfied waiters; timed says the FlushInterval
// timer started the pass.
func (lm *LogManager) flushOnce(timed bool) {
	lm.passes.Add(1)
	start, end := lm.rd.Pending()
	pendingBytes := int(end.Sub(start))
	if pendingBytes > 0 && !lm.due(start, pendingBytes, timed) {
		return
	}
	lm.mu.Lock()
	lm.pending = 0
	lm.mu.Unlock()

	// Seal what is pending, then harden to the newest seal the clamp
	// allows.
	if pendingBytes > 0 {
		last, err := lm.sealer.seal()
		if err != nil {
			lm.fail(fmt.Errorf("core: seal: %w", err))
			return
		}
		// Under delegated release the seal's insert may return before its
		// release; every byte before it is in flight only as a fill.
		for lm.rd.Released() < last {
			runtime.Gosched()
		}
		// The flush clamp may hold back the tail of the sealed region
		// (an inter-log dependency edge not yet durable). The held bytes
		// stay pending; the coordinator pokes the daemon when the edge
		// clears.
		limit := last
		if lm.limit != nil {
			limit = max(min(lm.limit(start, last), last), start)
		}
		end = lm.sealedEnd(start, limit, last)
		pendingBytes = int(end.Sub(start))
	}

	if pendingBytes > 0 {
		t0 := time.Now()
		lm.lastFlush = t0
		// The batch goes to the device straight from the ring, in the
		// one or two spans the ring holds it in.
		finishSeals(lm.rd, start, lm.sealing)
		a, b := lm.rd.Spans(start, end)
		for _, p := range [2][]byte{a, b} {
			if len(p) == 0 {
				continue
			}
			if _, err := lm.dev.Append(p); err != nil {
				lm.fail(fmt.Errorf("core: device append: %w", err))
				return
			}
		}
		// Ring space is reusable as soon as the bytes are in the device's
		// write path; durability is published only after Sync.
		lm.rd.MarkFlushed(end)
		lm.seals.hardened(end)
		if err := lm.dev.Sync(); err != nil {
			lm.fail(fmt.Errorf("core: device sync: %w", err))
			return
		}
		if lm.Failed() != nil {
			// A failed log stays failed: a later fsync that succeeds
			// says nothing of the bytes an earlier one failed to
			// persist, so the durable horizon never moves again.
			return
		}
		lm.mu.Lock()
		lm.ends.add(lm.sealing[len(lm.sealing)-1])
		lm.mu.Unlock()
		lm.durable.AdvanceTo(end)
		lm.stats.Flushes.Inc()
		lm.stats.FlushBytes.Add(int64(pendingBytes))
		lm.stats.GroupSize.Observe(time.Duration(pendingBytes)) // bytes, reusing histogram buckets
		lm.stats.FlushLatency.Observe(time.Since(t0))
		if lm.durableAdvanced != nil {
			lm.durableAdvanced()
		}
	}
	lm.completeWaiters()
}

// sealedEnd returns how far a flush of the released log [start,
// released) clamped at limit hardens: the end of the newest pending seal
// it may harden through (sealBook.hardenable; start if there is none),
// leaving in lm.sealing the seals of [start, that end) for finishSeals.
func (lm *LogManager) sealedEnd(start, limit, released lsn.LSN) lsn.LSN {
	lm.sealing = lm.seals.hardenable(lm.sealing[:0], limit, released)
	if n := len(lm.sealing); n > 0 {
		return lm.sealing[n-1].end
	}
	return start
}

// completeWaiters pops every waiter whose end is durable and runs its
// continuation — the daemon "notifies the agent threads of
// newly-hardened transactions".
func (lm *LogManager) completeWaiters() {
	durable := lm.durable.Load()
	ready := lm.ready[:0]
	lm.mu.Lock()
	for len(lm.waiters) > 0 && lm.waiters[0].end <= durable {
		ready = append(ready, lm.waiters.pop())
	}
	lm.mu.Unlock()
	for i := range ready {
		ready[i].done(nil)
		ready[i] = waiter{} // drop the callback reference
	}
	lm.ready = ready
}

// Failed returns the error that poisoned this log (a device append or
// sync failure, or a failed flush dependency in multi-log mode), or nil
// while the log is healthy. Once failed, every current and future
// durability waiter receives the error.
func (lm *LogManager) Failed() error {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	return lm.failed
}

// fail poisons the log: all current and future waiters get err.
func (lm *LogManager) fail(err error) {
	lm.mu.Lock()
	if lm.failed == nil {
		lm.failed = err
	}
	lm.mu.Unlock()
	lm.failWaiters(err)
}

// failWaiters completes all remaining waiters with err (after completing
// any that are genuinely durable).
func (lm *LogManager) failWaiters(err error) {
	lm.completeWaiters()
	lm.mu.Lock()
	rest := make([]waiter, 0, len(lm.waiters))
	for len(lm.waiters) > 0 {
		rest = append(rest, lm.waiters.pop())
	}
	lm.mu.Unlock()
	for _, w := range rest {
		w.done(err)
	}
}
