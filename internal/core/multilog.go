// multilog.go is the engine's one log: N >= 1 independent LogManagers
// (lanes) — one flush daemon, group-commit stream, durable watermark and
// archiver lane each — behind a MultiLog coordinator that owns the stamp
// domain: the unit in which a page image, a DPT recLSN, a checkpoint's
// transaction-table entry, the truncation horizon and a restore point
// are measured.
//
//   - One lane: stamps are byte LSNs. LSN order already is the total
//     order (§3.1 condition 1), so the coordinator coordinates nothing:
//     every call forwards to lane 0, no sequence number is consumed, no
//     coordinator lock, map or slice is touched, and every MultiAppender
//     inserts through its own Appender — the parallel inserts the §5
//     consolidation array exists for. (Routing one lane through Append
//     below would serialize them on appendMu and spend a 32-bit seq per
//     record.)
//   - N >= 2 lanes: stamps are global sequence numbers. The coordinator
//     assigns every record one and enforces the inter-log flush
//     dependencies of the paper's Appendix A.5: a younger record whose
//     page was last updated in another log must not become durable
//     before that older record does.
//
// Which of the two applies is decided here and nowhere else (ml.one;
// ARCHITECTURE.md, "Stamp domain"), and so is how lanes are built: on
// N >= 2, NewMultiLog fixes each lane's flush clamp (limit) before its
// daemon starts, so no lane ever flushes without it. The N >= 2 design
// leans on two invariants:
//
//  1. Within a partition, appends are serialized (appendMu), so LSN
//     order equals global-seq order on every log. That makes the global
//     durable horizon computable (the min over partitions of each
//     partition's first non-durable seq), and gives the progress
//     argument: the globally smallest unflushed seq can only depend on
//     already-flushed records, so its partition's clamp always sits
//     after it.
//  2. All of a transaction's records live on its home log, so a commit
//     ack needs only the home log's durable horizon: the flush clamp
//     has already refused to harden the commit's log past any update
//     whose cross-log dependency was not durable, which covers the
//     touched-partition set transitively.
package core

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"aether/internal/logdev"
	"aether/internal/logrec"
	"aether/internal/lsn"
)

// maxSeq is the largest assignable global sequence stamp: the record
// header stores Seq in the former 32-bit reserved word, so a
// partitioned database is bounded to ~4.29 billion records over its
// lifetime. The coordinator errors out with ErrSeqExhausted well before
// wraparound could corrupt the merge order.
const maxSeq = math.MaxUint32 - 1

// ErrSeqExhausted means the 32-bit global sequence space is used up;
// the database must be rebuilt (dump/reload) to continue partitioned
// operation.
var ErrSeqExhausted = errors.New("core: global sequence space exhausted")

// seqMark records one appended record's (end LSN, seq) on a partition.
// The pending list of marks, pruned as the partition's durable horizon
// advances, is how the global durable seq is computed. A mark whose end
// is still lsn.Undefined is provisional: its append is in flight and
// its seq must not be reported durable yet.
type seqMark struct {
	end lsn.LSN
	seq uint64
}

// depEdge is one inter-log flush dependency: the record starting at
// `at` on this partition must not harden before partition `target` is
// durable through `need`.
type depEdge struct {
	at     lsn.LSN
	target int
	need   lsn.LSN
}

// pageLast remembers where a page was last updated: which partition,
// the record's end LSN there, and its global seq. It is consulted at
// append time to stamp update records with their PrevPageSeq and to
// detect cross-log dependencies.
type pageLast struct {
	part int
	end  lsn.LSN
	seq  uint64
}

// logPartition is one shard of the partitioned log.
type logPartition struct {
	lm *LogManager

	// appendMu serializes appends to this partition, guaranteeing that
	// LSN order equals seq order on this log (invariant 1 above). sealer
	// seals the log ahead of a record that must wait on an edge (used
	// under appendMu).
	appendMu sync.Mutex
	ap       *Appender
	sealer   *sealer

	// All three below are guarded by MultiLog.depMu.
	//
	// marks is the pending (end, seq) list in append order.
	marks []seqMark
	// edges is the unsatisfied dependency queue in `at` order.
	edges []depEdge
	// holdActive/hold close the registration race: between inserting a
	// record and queueing its edge, the partition's flush is clamped at
	// hold (the released end before the insert), so the daemon can
	// never harden a record whose edge is not yet visible.
	holdActive bool
	hold       lsn.LSN

	// depChecks counts the flush passes limit judged; depStalls, those
	// of them it clamped by an unsatisfied edge.
	depChecks, depStalls atomic.Int64
}

// horizonSample is one (seq, per-partition append end) snapshot taken
// at checkpoint time. Because each end was read before the seq, every
// record with a larger seq starts at or beyond that end — so once the
// release horizon passes seq, each partition may truncate to its
// sampled end without discarding live log.
type horizonSample struct {
	seq  uint64
	ends []lsn.LSN
}

// MultiLog coordinates N >= 1 per-lane LogManagers into one logical,
// totally ordered log. It is the buffer pool's durable-horizon
// interface (storage.WAL) in the stamp domain: Durable() and Force()
// speak byte LSNs on one lane and global seqs (cast to lsn.LSN) on N.
type MultiLog struct {
	parts []*logPartition

	// one is lane 0's manager when it is the only lane, nil otherwise:
	// the stamp-domain switch (see the file comment).
	one *LogManager

	// lastSeq is the last assigned global sequence stamp.
	lastSeq atomic.Uint64

	// depMu guards the dependency state: every partition's marks,
	// edges and hold, the page map, and the horizon history.
	depMu    sync.Mutex
	pageMap  map[uint64]pageLast
	horizons []horizonSample

	// edgesTotal counts every cross-log page dependency observed at
	// append time: a page update whose previous update sits on another
	// lane (Appendix A.5's count; the txn tests recount it from the
	// lanes' records). edgesEnforced counts the subset that was still
	// non-durable and had to be queued.
	edgesTotal    atomic.Int64
	edgesEnforced atomic.Int64

	closed bool
}

// NewMultiLog opens the log: one LogManager per device, in lane order,
// running cfg and resuming at the device's durable size. startSeq is the
// largest global sequence stamp recovery observed (0 for a fresh
// database, and always on one lane); new records are stamped from
// startSeq+1.
func NewMultiLog(cfg Config, devs []logdev.Device, startSeq uint64) (*MultiLog, error) {
	if len(devs) < 1 {
		return nil, errors.New("core: MultiLog needs at least 1 lane")
	}
	ml := &MultiLog{parts: make([]*logPartition, len(devs)), pageMap: make(map[uint64]pageLast)}
	ml.lastSeq.Store(startSeq)
	for i, dev := range devs {
		lcfg := cfg
		lcfg.Device = dev
		lcfg.Buffer.Base = lsn.LSN(dev.DurableSize())
		lm, err := newLane(lcfg)
		if err != nil {
			for _, p := range ml.parts[:i] {
				p.lm.Close()
			}
			return nil, fmt.Errorf("core: log lane %d: %w", i, err)
		}
		p, lane := &logPartition{lm: lm}, i
		if len(devs) > 1 {
			p.ap = lm.NewAppender()
			p.sealer = newSealer(lm, lm.buf.NewInserter())
			lm.limit = func(start, end lsn.LSN) lsn.LSN { return ml.limit(p, start, end) }
			lm.durableAdvanced = func() { ml.pokeOthers(lane) }
		}
		ml.parts[i] = p
		go lm.daemon()
	}
	if len(devs) == 1 {
		ml.one = ml.parts[0].lm
	}
	return ml, nil
}

// NumParts returns the partition count.
func (ml *MultiLog) NumParts() int { return len(ml.parts) }

// Part returns partition i's log manager (for stats, waits, and
// truncation bookkeeping).
func (ml *MultiLog) Part(i int) *LogManager { return ml.parts[i].lm }

// LastSeq returns the last assigned global sequence stamp.
func (ml *MultiLog) LastSeq() uint64 { return ml.lastSeq.Load() }

// EdgesTotal returns the number of cross-log page dependencies observed
// at append time: updates whose page's previous update lives on a
// different log.
func (ml *MultiLog) EdgesTotal() int64 { return ml.edgesTotal.Load() }

// EdgesEnforced returns the subset of EdgesTotal whose older record was
// not yet durable at append time and therefore had to be queued for the
// flush clamp.
func (ml *MultiLog) EdgesEnforced() int64 { return ml.edgesEnforced.Load() }

// DepStalls returns how many of partition i's flush passes were clamped
// by an unsatisfied dependency edge, whether or not they then flushed
// anything.
func (ml *MultiLog) DepStalls(i int) int64 { return ml.parts[i].depStalls.Load() }

// DepChecks returns how many of partition i's flush passes the
// dependency limiter judged: every pass with released bytes to flush.
// DepStalls counts a subset of them.
func (ml *MultiLog) DepChecks(i int) int64 { return ml.parts[i].depChecks.Load() }

// pageTracked reports whether the record kind participates in page
// dependency tracking (it modifies a page during redo).
func pageTracked(rec *logrec.Record) bool {
	return rec.PageID != 0 && (rec.Kind == logrec.KindUpdate || rec.Kind == logrec.KindCLR)
}

// MultiAppender is one goroutine's handle for appending through the
// coordinator. On one lane it owns a private Appender, so concurrent
// agents insert in parallel; on N lanes appends serialize per lane
// inside the coordinator and the handle carries nothing.
type MultiAppender struct {
	ml  *MultiLog
	own *Appender // one lane only
}

// NewAppender returns a fresh per-goroutine appender.
func (ml *MultiLog) NewAppender() *MultiAppender {
	a := &MultiAppender{ml: ml}
	if ml.one != nil {
		a.own = ml.one.NewAppender()
	}
	return a
}

// Append inserts rec on the given lane and returns its home-lane
// address and end plus the two stamps derived from them: pageStamp is
// what a page image carries after applying the record, recStamp what the
// dirty-page table records as the page's recLSN (and a checkpoint as a
// transaction's last record). On one lane they are the record's end and
// start LSN — the lane argument is moot — on N both are its global seq.
func (a *MultiAppender) Append(lane int, rec *logrec.Record) (at, end, pageStamp, recStamp lsn.LSN, err error) {
	if a.own != nil {
		at, end, err = a.own.Append(rec)
		return at, end, end, at, err
	}
	at, end, seq, err := a.ml.Append(lane, rec)
	return at, end, lsn.LSN(seq), lsn.LSN(seq), err
}

// ScratchCap returns the capacity of the encode buffer a keeps between
// appends (tests): its one-lane appender's. On N lanes it keeps none —
// the lanes' own appenders encode.
func (a *MultiAppender) ScratchCap() int {
	if a.own == nil {
		return 0
	}
	return cap(a.own.scratch)
}

// Append is the seq-domain insert behind MultiAppender.Append on two or
// more lanes (a one-lane MultiAppender never gets here): it stamps rec
// with the next global seq and inserts it into
// partition part, returning the record's LSN, end, and seq. Update
// records additionally carry their page's previous global seq in Aux
// (recovery's merge-order verification), and a cross-log page
// dependency queues a flush edge so the partition cannot harden this
// record before the older one's log reaches it.
func (ml *MultiLog) Append(part int, rec *logrec.Record) (at, end lsn.LSN, seq uint64, err error) {
	p := ml.parts[part]
	p.appendMu.Lock()
	defer p.appendMu.Unlock()

	var prev pageLast
	needEdge := false
	var need lsn.LSN
	tracked := pageTracked(rec)
	ml.depMu.Lock()
	if tracked {
		if pl, ok := ml.pageMap[rec.PageID]; ok {
			prev = pl
			if prev.part != part {
				ml.edgesTotal.Add(1)
				// The edge's flush target is the dependency log's append
				// end, not just the older record's end: by the time this
				// conflicting append can run, the older transaction has
				// released its page lock, which it only does after its
				// commit (or abort+CLR) records are inserted — so the
				// append end covers them, and Early Lock Release stays
				// safe across logs (a dependant's commit can never
				// harden before the transaction it read from). Reading
				// it BEFORE assigning our seq keeps every record the
				// edge waits on at a strictly smaller seq, which is the
				// deadlock-freedom argument.
				target := ml.parts[prev.part].lm
				need = target.AppendEnd()
				if need > target.Durable() {
					needEdge = true
					// Clamp this partition's flush at the current
					// append end until the edge is registered: the
					// daemon must not see the new record before its
					// edge (appendMu means ours is the only in-flight
					// append here; a seal the daemon inserts meanwhile
					// starts at or past the hold and holds no record,
					// so a flush may harden one that starts at it).
					p.holdActive = true
					p.hold = p.lm.AppendEnd()
				}
			}
		}
	}
	seq = ml.lastSeq.Add(1)
	if seq > maxSeq {
		p.holdActive = false
		ml.depMu.Unlock()
		return 0, 0, 0, ErrSeqExhausted
	}
	rec.Seq = uint32(seq)
	if rec.Kind == logrec.KindUpdate {
		// CLRs keep their Aux (UndoNextLSN); updates carry the page's
		// previous seq (0 for a first update) for recovery's merge-order
		// verification.
		rec.Aux = prev.seq
	}
	// Provisional mark: the seq exists but its end is unknown until the
	// insert returns; Durable() must not report it (or anything after
	// it on this partition) durable in the window.
	p.marks = append(p.marks, seqMark{end: lsn.Undefined, seq: seq})
	ml.depMu.Unlock()

	if needEdge {
		// The edge clamps this lane's flushes at the record, and a flush
		// hardens to a seal: seal what precedes it, or a clamped lane
		// could not harden the records its clamp allows (seal.go).
		_, err = p.sealer.seal()
	}
	if err == nil {
		at, end, err = p.ap.Append(rec)
	}

	ml.depMu.Lock()
	if err != nil {
		// The seq was assigned but the record never reached the log:
		// drop the provisional mark (it is the tail — appendMu) and
		// leave a harmless gap in the sequence space.
		p.marks = p.marks[:len(p.marks)-1]
		p.holdActive = false
		ml.depMu.Unlock()
		return 0, 0, 0, err
	}
	p.marks[len(p.marks)-1].end = end
	if needEdge {
		p.edges = append(p.edges, depEdge{at: at, target: prev.part, need: need})
		ml.edgesEnforced.Add(1)
	}
	p.holdActive = false
	if tracked {
		ml.pageMap[rec.PageID] = pageLast{part: part, end: end, seq: seq}
	}
	ml.depMu.Unlock()
	return at, end, seq, nil
}

// limit is partition p's flush clamp (runs on p's daemon goroutine): it
// pops satisfied dependency edges and holds the flush at the first
// record whose edge target is not yet durable — the physical
// enforcement that a younger record's log never hardens before the
// older record's log reaches its LSN.
func (ml *MultiLog) limit(p *logPartition, start, end lsn.LSN) lsn.LSN {
	p.depChecks.Add(1)
	ml.depMu.Lock()
	limited := end
	var depErr error
	for len(p.edges) > 0 {
		e := p.edges[0]
		target := ml.parts[e.target].lm
		if target.Durable() >= e.need {
			p.edges = p.edges[1:]
			continue
		}
		if err := target.Failed(); err != nil {
			depErr = fmt.Errorf("core: flush dependency on failed log partition %d: %w", e.target, err)
		}
		if e.at < limited {
			limited = e.at
			if limited < start {
				limited = start
			}
			p.depStalls.Add(1)
			// Nothing past the clamp can harden until the target lane
			// flushes, and the committer parked here woke only this
			// lane: demand the target's flush now instead of waiting out
			// its timer and its group window (its durable notify pokes
			// us back).
			target.Flush()
		}
		break
	}
	if p.holdActive && p.hold < limited {
		limited = p.hold
		if limited < start {
			limited = start
		}
	}
	ml.depMu.Unlock()
	if depErr != nil {
		// The clamping edge can never clear: its target log is poisoned
		// (device failure), so nothing past the clamp will ever be safe
		// to harden. Propagate the poison instead of stalling forever —
		// this partition's committers get an error, exactly as the dead
		// partition's own committers do. (Called after depMu is released:
		// fail runs waiter continuations, which must not run under the
		// dependency lock.)
		p.lm.fail(depErr)
	}
	return limited
}

// pokeOthers nudges every partition except from: one log's durable
// advance may have satisfied edges clamping the others.
func (ml *MultiLog) pokeOthers(from int) {
	for i, p := range ml.parts {
		if i != from {
			p.lm.Poke()
		}
	}
}

// durableSeqLocked computes the global durable seq: every record with a
// stamp at or below it is durable on its partition. Caller holds depMu.
func (ml *MultiLog) durableSeqLocked() uint64 {
	floor := ml.lastSeq.Load()
	for _, p := range ml.parts {
		d := p.lm.Durable()
		i := 0
		for i < len(p.marks) && p.marks[i].end != lsn.Undefined && p.marks[i].end <= d {
			i++
		}
		if i > 0 {
			p.marks = append(p.marks[:0], p.marks[i:]...)
		}
		if len(p.marks) > 0 && p.marks[0].seq-1 < floor {
			floor = p.marks[0].seq - 1
		}
	}
	return floor
}

// Durable returns the durable horizon as a stamp: every record whose
// page stamp is at or below it has reached stable storage (lane 0's
// durable LSN on one lane; on N the global durable seq, cast to
// lsn.LSN). This is the storage.WAL horizon page images are checked
// against.
func (ml *MultiLog) Durable() lsn.LSN {
	if ml.one != nil {
		return ml.one.Durable()
	}
	ml.depMu.Lock()
	defer ml.depMu.Unlock()
	return lsn.LSN(ml.durableSeqLocked())
}

// Force makes every record with a page stamp at or below upTo durable,
// blocking until they are — the buffer pool's flush-before-steal hook.
// Forcing beyond the last stamp handed out is an error at every lane
// count (see LogManager.Force).
func (ml *MultiLog) Force(upTo lsn.LSN) error {
	if ml.one != nil {
		return ml.one.Force(upTo)
	}
	want := uint64(upTo)
	if last := ml.lastSeq.Load(); want > last {
		return fmt.Errorf("core: Force(seq %d) beyond the last assigned seq %d", want, last)
	}
	for {
		ml.depMu.Lock()
		if ml.durableSeqLocked() >= want {
			ml.depMu.Unlock()
			return nil
		}
		inFlight := false
		targets := make([]lsn.LSN, len(ml.parts))
		for i, p := range ml.parts {
			for _, m := range p.marks {
				if m.seq > want {
					break
				}
				if m.end == lsn.Undefined {
					inFlight = true
					continue
				}
				targets[i] = m.end
			}
		}
		ml.depMu.Unlock()
		for _, p := range ml.parts {
			p.lm.Flush()
		}
		for i, p := range ml.parts {
			if targets[i] != 0 {
				if err := p.lm.WaitDurable(targets[i]); err != nil {
					return err
				}
			}
		}
		if inFlight {
			// An append raced us mid-insert; its mark will resolve as
			// soon as the (I/O-free) insert returns.
			runtime.Gosched()
		}
	}
}

// StampFloor returns a lower bound on the recStamp of every record
// appended after the call: the appended log end on one lane (a new
// insert reserves its address above every completed one), the next
// global seq on N.
func (ml *MultiLog) StampFloor() lsn.LSN {
	if ml.one != nil {
		return ml.one.AppendEnd()
	}
	return lsn.LSN(ml.lastSeq.Load() + 1)
}

// FlushAll forces everything appended so far on every partition and
// waits for it (Restart hardens recovery's records with it). A lane with
// nothing to harden is left alone: a flush request it acted on later
// would harden records appended after FlushAll returned.
func (ml *MultiLog) FlushAll() error {
	for _, p := range ml.parts {
		if p.lm.Durable() < p.lm.AppendEnd() {
			p.lm.Flush()
		}
	}
	for _, p := range ml.parts {
		if err := p.lm.WaitDurable(p.lm.AppendEnd()); err != nil {
			return err
		}
	}
	return nil
}

// SampleHorizon snapshots (per-partition append ends, then the current
// seq) into the horizon history. The read order matters: because each
// end is read before the seq, any record stamped later starts at or
// beyond the sampled end, so the sample is a safe truncation point once
// the release horizon passes its seq. Call at checkpoint time. (One
// lane needs no sample: its release stamp already is a lane address.)
func (ml *MultiLog) SampleHorizon() {
	if ml.one != nil {
		return
	}
	ends := make([]lsn.LSN, len(ml.parts))
	for i, p := range ml.parts {
		ends[i] = p.lm.AppendEnd()
	}
	seq := ml.lastSeq.Load()
	ml.depMu.Lock()
	ml.horizons = append(ml.horizons, horizonSample{seq: seq, ends: ends})
	ml.depMu.Unlock()
}

// Truncate releases the log below the release stamp. One lane truncates
// at the stamp itself; N lanes truncate every partition to the newest
// sampled horizon whose seq is strictly below it — discarding only
// records whose global sequence stamp is below the release horizon — and
// prune page-map entries whose records were truncated away. It returns
// the total bytes newly released across lanes.
func (ml *MultiLog) Truncate(release lsn.LSN) (int64, error) {
	if ml.one != nil {
		return ml.one.Truncate(release)
	}
	releaseSeq := uint64(release)
	ml.depMu.Lock()
	var best *horizonSample
	keep := 0
	for i := range ml.horizons {
		if ml.horizons[i].seq < releaseSeq {
			best = &ml.horizons[i]
			keep = i
		}
	}
	if best == nil {
		ml.depMu.Unlock()
		return 0, nil
	}
	sample := *best
	ml.horizons = append(ml.horizons[:0], ml.horizons[keep:]...)
	ml.depMu.Unlock()

	var released int64
	for i, p := range ml.parts {
		n, err := p.lm.Truncate(sample.ends[i])
		released += n
		if err != nil {
			return released, err
		}
	}

	// Truncation-driven pruning: a page entry whose record fell below
	// its partition's base points at log that no longer exists; the
	// record is necessarily durable, so dropping the entry only means
	// the page's next update is treated as its first (PrevPageSeq 0, no
	// edge) — which is exactly right.
	ml.depMu.Lock()
	for pid, pl := range ml.pageMap {
		if pl.end <= ml.parts[pl.part].lm.Base() {
			delete(ml.pageMap, pid)
		}
	}
	ml.depMu.Unlock()
	return released, nil
}

// Close closes every partition's log manager and returns the first
// error.
func (ml *MultiLog) Close() error {
	ml.depMu.Lock()
	if ml.closed {
		ml.depMu.Unlock()
		return nil
	}
	ml.closed = true
	ml.depMu.Unlock()
	var first error
	for _, p := range ml.parts {
		if err := p.lm.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
