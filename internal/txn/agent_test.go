package txn

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"sync"
	"testing"

	"aether/internal/lockmgr"
	"aether/internal/logdev"
	"aether/internal/logrec"
	"aether/internal/lsn"
	"aether/internal/storage"
)

// Tests of what an Agent owns and re-arms between transactions: the
// lifetime rules in ARCHITECTURE.md ("What an agent owns"), the
// allocation budget they buy, and the bytes they must not change.

// stallDev is an in-memory log device whose Sync can be held up, so a
// test decides how long a commit stays in flight.
type stallDev struct {
	*logdev.Segmented
	mu   sync.Mutex
	hold chan struct{} // non-nil: Sync waits for it to be closed
}

func (d *stallDev) Sync() error {
	d.mu.Lock()
	hold := d.hold
	d.mu.Unlock()
	if hold != nil {
		<-hold
	}
	return d.Segmented.Sync()
}

// stall holds up every Sync from now until release is first called.
func (d *stallDev) stall() (release func()) {
	hold := make(chan struct{})
	d.mu.Lock()
	d.hold = hold
	d.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			d.mu.Lock()
			d.hold = nil
			d.mu.Unlock()
			close(hold)
		})
	}
}

// nullDev is an in-memory log device that keeps nothing: an in-memory
// device's filesystem allocates the bytes it is written, a byte per byte
// logged, which would drown an allocation budget measured in bytes.
type nullDev struct{ *logdev.Segmented }

func (nullDev) Append(p []byte) (int, error) { return len(p), nil }

// newEngineOn starts a single-log engine with lock inheritance over dev.
func newEngineOn(t *testing.T, dev logdev.Device) *Engine {
	t.Helper()
	return startEngine(t, RestartConfig{Device: dev, LogConfig: harnessLogConfig})
}

func setValue(v uint64) func([]byte) ([]byte, error) {
	return func(cur []byte) ([]byte, error) { return row(DefaultKeyOf(cur), v), nil }
}

// seedRows commits rows 1..n with value 0 on ag.
func seedRows(t *testing.T, ag *Agent, tbl *Table, n uint64) {
	t.Helper()
	tx := ag.Begin()
	for k := uint64(1); k <= n; k++ {
		if err := tx.Insert(tbl, k, row(k, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(CommitSync, nil); err != nil {
		t.Fatal(err)
	}
}

// TestHoldLocksCommitKeepsNextTxnLocks: a CommitPipelinedHoldLocks
// transaction releases its locks on the flush daemon's goroutine, after
// its agent has begun the next transaction. That release must drop the
// committed transaction's locks and nothing else — which it would not if
// the agent had re-armed the same Locker for the next transaction.
func TestHoldLocksCommitKeepsNextTxnLocks(t *testing.T) {
	dev := &stallDev{Segmented: logdev.NewMem(logdev.ProfileMemory)}
	eng := newEngineOn(t, dev)
	tbl, _ := eng.CreateTable("t", nil)
	ag := eng.NewAgent()
	defer ag.Close()
	seedRows(t, ag, tbl, 3)

	release := dev.stall()
	defer release() // a failed assertion must not leave the log unable to close
	n := ag.Begin()
	for k := uint64(1); k <= 2; k++ {
		if err := n.Update(tbl, k, setValue(10+k)); err != nil {
			t.Fatal(err)
		}
	}
	acked := make(chan error, 1)
	if err := n.Commit(CommitPipelinedHoldLocks, func(err error) { acked <- err }); err != nil {
		t.Fatal(err)
	}

	// N's flush is pending and N still holds table IX and rows 1, 2. The
	// next transaction shares the table lock and takes row 3.
	next := ag.Begin()
	if err := next.Update(tbl, 3, setValue(13)); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-acked:
		t.Fatalf("commit acknowledged while the device is stalled: %v", err)
	default:
	}
	release()
	if err := <-acked; err != nil {
		t.Fatal(err)
	}

	locks := eng.locks
	if got := next.sc.locker.HeldCount(); got != 2 {
		t.Fatalf("next transaction holds %d locks after its predecessor's release, want 2", got)
	}
	if got := locks.HeldModes(lockmgr.TableKey(tbl.Space)); len(got) != 1 || got[0] != lockmgr.ModeIX {
		t.Fatalf("table lock holders %v, want the next transaction's IX alone", got)
	}
	if got := locks.HeldModes(lockmgr.RowKey(tbl.Space, 3)); len(got) != 1 || got[0] != lockmgr.ModeX {
		t.Fatalf("row 3 holders %v, want the next transaction's X", got)
	}
	for k := uint64(1); k <= 2; k++ {
		if got := locks.HeldModes(lockmgr.RowKey(tbl.Space, k)); len(got) != 0 {
			t.Fatalf("row %d still locked %v after the commit hardened", k, got)
		}
	}
	if err := next.Commit(CommitSync, nil); err != nil {
		t.Fatal(err)
	}
}

// TestAbortBehindPipelinedCommit: while transaction N's pipelined commit
// is in flight, N+1 on the same agent — which has taken over N's undo
// scratch — updates the rows N wrote and aborts. Every row must read
// back exactly what N committed, and N must still be acknowledged.
func TestAbortBehindPipelinedCommit(t *testing.T) {
	dev := &stallDev{Segmented: logdev.NewMem(logdev.ProfileMemory)}
	eng := newEngineOn(t, dev)
	tbl, _ := eng.CreateTable("t", nil)
	ag := eng.NewAgent()
	defer ag.Close()
	seedRows(t, ag, tbl, 3)

	release := dev.stall()
	defer release() // a failed assertion must not leave the log unable to close
	n := ag.Begin()
	for k := uint64(1); k <= 3; k++ {
		if err := n.Update(tbl, k, setValue(100+k)); err != nil {
			t.Fatal(err)
		}
	}
	acked := make(chan error, 1)
	if err := n.Commit(CommitPipelined, func(err error) { acked <- err }); err != nil {
		t.Fatal(err)
	}

	next := ag.Begin()
	if next.sc != n.sc {
		t.Fatal("the next transaction did not take over the agent's scratch")
	}
	for k := uint64(1); k <= 3; k++ {
		if err := next.Update(tbl, k, setValue(200+k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := next.Abort(); err != nil {
		t.Fatal(err)
	}

	check := ag.Begin()
	for k := uint64(1); k <= 3; k++ {
		got, err := check.Read(tbl, k)
		if err != nil {
			t.Fatal(err)
		}
		if want := row(k, 100+k); !bytes.Equal(got, want) {
			t.Fatalf("row %d after the abort: %x, want N's image %x", k, got, want)
		}
	}
	if err := check.Commit(CommitSync, nil); err != nil { // read-only: waits for nothing
		t.Fatal(err)
	}
	select {
	case err := <-acked:
		t.Fatalf("commit acknowledged while the device is stalled: %v", err)
	default:
	}
	release()
	if err := <-acked; err != nil {
		t.Fatal(err)
	}
}

// TestUnfinishedTxnKeepsItsScratch: Begin re-arms the agent's scratch
// only when the transaction it was lent to is finished; one that is
// still active keeps its locks and undo, and still rolls back.
func TestUnfinishedTxnKeepsItsScratch(t *testing.T) {
	h := newHarness(t)
	tbl, _ := h.eng.CreateTable("t", nil)
	ag := h.eng.NewAgent()
	defer ag.Close()
	seedRows(t, ag, tbl, 2)

	first := ag.Begin()
	if err := first.Update(tbl, 1, setValue(7)); err != nil {
		t.Fatal(err)
	}
	second := ag.Begin()
	if second.sc == first.sc {
		t.Fatal("an active transaction's scratch was re-armed")
	}
	if err := second.Update(tbl, 2, setValue(8)); err != nil {
		t.Fatal(err)
	}
	if err := second.Commit(CommitSync, nil); err != nil {
		t.Fatal(err)
	}
	if err := first.Abort(); err != nil {
		t.Fatal(err)
	}
	check := ag.Begin()
	for k, want := range map[uint64]uint64{1: 0, 2: 8} {
		got, err := check.Read(tbl, k)
		if err != nil {
			t.Fatal(err)
		}
		if rowValue(got) != want {
			t.Fatalf("row %d = %d, want %d", k, rowValue(got), want)
		}
	}
	if err := check.Commit(CommitSync, nil); err != nil {
		t.Fatal(err)
	}
}

// TestAgentScratchLogsSameBytes: the records a transaction builds in its
// agent's scratch reach the device as exactly the bytes the allocating
// constructors encode to — the log format did not move. The scratch is
// dirtied first by a rollback (CLR flags and undo-next in the header).
func TestAgentScratchLogsSameBytes(t *testing.T) {
	h := newHarness(t)
	tbl, _ := h.eng.CreateTable("t", nil)
	ag := h.eng.NewAgent()
	defer ag.Close()
	seedRows(t, ag, tbl, 1)
	rolled := ag.Begin()
	if err := rolled.Update(tbl, 1, setValue(1)); err != nil {
		t.Fatal(err)
	}
	if err := rolled.Abort(); err != nil {
		t.Fatal(err)
	}

	start := h.eng.Log().AppendEnd()
	tx := ag.Begin()
	if err := tx.Insert(tbl, 2, row(2, 20)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Update(tbl, 2, setValue(21)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(CommitSync, nil); err != nil {
		t.Fatal(err)
	}
	packed, _ := tbl.Index.Get(2)
	rid := storage.UnpackRID(packed)

	// Each record's PrevLSN is where the one before it starts.
	first := logrec.NewUpdate(tx.ID(), lsn.Undefined, rid.Page,
		logrec.UpdatePayload{Op: logrec.OpInsert, Slot: rid.Slot, After: row(2, 20)})
	second := logrec.NewUpdate(tx.ID(), start, rid.Page, logrec.Splice(rid.Slot, row(2, 20), row(2, 21)))
	commit := logrec.NewCommit(tx.ID(), start.Add(first.EncodedSize()))
	var want []byte
	for _, rec := range []*logrec.Record{first, second, commit} {
		b, err := rec.Encode()
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, b...)
	}
	got := make([]byte, len(want))
	if _, err := h.devs[0].ReadAt(got, int64(start)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("transaction logged\n%x\nwant\n%x", got, want)
	}
}

// tpcbShape runs one TPC-B-shaped transaction on ag: three 100-byte row
// updates, one 100-byte insert, commit acknowledged before durability.
func tpcbShape(t testing.TB, ag *Agent, tables *[4]*Table, keys [4]uint64, delta uint64) {
	add := func(cur []byte) ([]byte, error) {
		out := append([]byte(nil), cur...)
		copy(out[8:16], row(0, rowValue(cur)+delta)[8:])
		return out, nil
	}
	tx := ag.Begin()
	for i := 2; i >= 0; i-- {
		if err := tx.Update(tables[i], keys[i], add); err != nil {
			t.Fatal(err)
		}
	}
	hist := make([]byte, 100)
	copy(hist, row(keys[3], delta))
	if err := tx.Insert(tables[3], keys[3], hist); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(CommitAsync, nil); err != nil {
		t.Fatal(err)
	}
}

// TestTPCBLogBytesBudget is the log-volume budget of one TPC-B-shaped
// transaction — three updates of an 8-byte field in 100-byte rows, one
// 100-byte insert, a commit — counted off the device: at most 300 bytes
// on one lane (five 48-byte headers and three pairs of whole rows made
// it 988), and on three lanes at most a seq and an edge more per record.
// The engine here is a few records old, so its transaction IDs and LSNs
// are one byte long; the same records re-encoded at the repository
// benchmark's magnitudes (IDs to 80 200, 33 MB of log per cycle) must
// fit the budget too. Every byte of the field changes, the most an
// update can log.
func TestTPCBLogBytesBudget(t *testing.T) {
	const (
		budget     = 300
		seqAndEdge = 2 * binary.MaxVarintLen32 // per record, on N lanes
		benchTxnID = 80_200
		benchLSN   = 33_000_000
	)
	forEachLaneCount(t, func(t *testing.T, n int) {
		h := newHarnessN(t, n, harnessLogConfig)
		var tables [4]*Table // branch, teller, account, history
		ag := h.eng.NewAgent()
		defer ag.Close()
		load := ag.Begin()
		for i, name := range []string{"branch", "teller", "account", "history"} {
			tables[i], _ = h.eng.CreateTable(name, nil)
			if i == 3 {
				break
			}
			r := make([]byte, 100)
			copy(r, row(1, 0x0101010101010101))
			if err := load.Insert(tables[i], 1, r); err != nil {
				t.Fatal(err)
			}
		}
		if err := load.Commit(CommitSync, nil); err != nil {
			t.Fatal(err)
		}
		h.flushAll(t)
		var before []int64
		for _, d := range h.devs {
			before = append(before, d.DurableSize())
		}

		tpcbShape(t, ag, &tables, [4]uint64{1, 1, 1, 1}, 0x7e7e7e7e7e7e7e7e)
		h.flushAll(t)

		logged, atBench, records := 0, 0, 0
		perKind := map[logrec.Kind][2]int{} // records, bytes
		for i, d := range h.devs {
			tail := make([]byte, d.DurableSize()-before[i])
			if _, err := d.ReadAt(tail, before[i]); err != nil && len(tail) > 0 {
				t.Fatal(err)
			}
			logged += len(tail)
			it := logrec.NewIterator(tail, lsn.LSN(before[i]))
			for rec, ok := it.Next(); ok; rec, ok = it.Next() {
				records++
				k := perKind[rec.Kind]
				perKind[rec.Kind] = [2]int{k[0] + 1, k[1] + int(rec.TotalLen)}
				if rec.Kind == logrec.KindUpdate {
					up, err := logrec.DecodeUpdate(rec.Payload)
					if err != nil {
						t.Fatal(err)
					}
					if up.Op == logrec.OpSet && (up.Off != 8 || len(up.Before) != 8 || len(up.After) != 8) {
						t.Errorf("update logged row[%d:+%d] → %d bytes, want the 8-byte field at offset 8", up.Off, len(up.Before), len(up.After))
					}
				}
				rec.TxnID = benchTxnID
				if rec.PrevLSN.Valid() {
					rec.PrevLSN += benchLSN
				}
				atBench += rec.EncodedSize()
			}
			if err := it.Err(); err != nil {
				t.Fatal(err)
			}
		}
		if records != 5 {
			t.Fatalf("the transaction logged %d records, want 3 updates, 1 insert, 1 commit", records)
		}
		limit := budget
		if n > 1 {
			limit += records * seqAndEdge
		}
		t.Logf("%d lanes: %d bytes logged (%d at benchmark magnitudes), budget %d: update %v, commit %v [records, bytes]",
			n, logged, atBench, limit, perKind[logrec.KindUpdate], perKind[logrec.KindCommit])
		if logged > limit || atBench > limit {
			t.Errorf("%d bytes logged, %d at benchmark magnitudes: budget %d", logged, atBench, limit)
		}
	})
}

// TestTxnAllocationBudget is the transaction layer's allocation budget.
// One TPC-B-shaped transaction costs the engine two small objects — the
// Txn (96 B) and the completion the log daemon calls (16 B) — and the
// generator here five more (its closure, a 112-byte copy per update, the
// history row: ~465 B): seven allocations against 51 before the agent
// owned the scratch. A growing history table amortises to another
// ~170 B (an 8 KiB page per 70 rows, index nodes, dirty-page entries),
// so ~750 B in all against 5 kB. The ceilings leave room for size-class
// changes, not for a lost site.
func TestTxnAllocationBudget(t *testing.T) {
	const (
		maxAllocs = 8
		maxBytes  = 1100
		accounts  = 1000
	)
	eng := newEngineOn(t, nullDev{logdev.NewMem(logdev.ProfileMemory)})
	var tables [4]*Table // branch, teller, account, history
	ag := eng.NewAgent()
	defer ag.Close()
	load := ag.Begin()
	for i, name := range []string{"branch", "teller", "account", "history"} {
		tables[i], _ = eng.CreateTable(name, nil)
		for k := uint64(1); k <= []uint64{10, 100, accounts, 0}[i]; k++ {
			r := make([]byte, 100)
			copy(r, row(k, 0))
			if err := load.Insert(tables[i], k, r); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := load.Commit(CommitSync, nil); err != nil {
		t.Fatal(err)
	}
	seq := uint64(0)
	txn := func() {
		seq++
		tpcbShape(t, ag, &tables, [4]uint64{seq%10 + 1, seq%100 + 1, seq*7919%accounts + 1, seq}, seq)
	}
	const runs = 5_000
	for i := 0; i < runs; i++ {
		txn()
	}
	if got := testing.AllocsPerRun(runs, txn); got > maxAllocs {
		t.Errorf("%.0f allocations per transaction, budget %d", got, maxAllocs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		txn()
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / runs; got > maxBytes {
		t.Errorf("%d bytes allocated per transaction, budget %d", got, maxBytes)
	} else {
		t.Logf("%d bytes allocated per transaction (budget %d)", got, maxBytes)
	}
}

// scratchCaps reports the capacities of everything the agent keeps
// between transactions: undo entries, arena bytes, index-undo entries
// and the record scratch's payload buffer. (The log appender's encode
// buffer, which the record is copied through, is ap.ScratchCap.)
func (a *Agent) scratchCaps() (undo, arena, index, rec int) {
	if a.sc != nil {
		undo, arena, index = cap(a.sc.undo), cap(a.sc.arena), cap(a.sc.indexUndo)
	}
	return undo, arena, index, cap(a.rec.Payload)
}

// TestAgentScratchRetention: what one bulk transaction grew is not what
// the session carries afterwards. Its inserts grow the undo entries and
// the index undo but keep no image, so it deletes rows as well to grow
// the arena. (The Locker's held-lock map has its own test in lockmgr.)
func TestAgentScratchRetention(t *testing.T) {
	h := newHarness(t)
	tbl, _ := h.eng.CreateTable("t", nil)
	ag := h.eng.NewAgent()

	bulk := ag.Begin()
	for k := uint64(1); k <= 20_000; k++ {
		if err := bulk.Insert(tbl, k, row(k, k)); err != nil {
			t.Fatal(err)
		}
	}
	big := make([]byte, 5000)
	copy(big, row(20_001, 0))
	if err := bulk.Insert(tbl, 20_001, big); err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 5_000; k++ { // 5 000 16-byte before images
		if err := bulk.Delete(tbl, k); err != nil {
			t.Fatal(err)
		}
	}
	if err := bulk.Commit(CommitSync, nil); err != nil {
		t.Fatal(err)
	}
	if undo, arena, index, rec := ag.scratchCaps(); undo <= maxUndoEntries || arena <= maxArenaBytes ||
		index <= maxIndexUndo || rec <= maxRecordBuffer {
		t.Fatalf("bulk transaction did not outgrow the caps: %d %d %d %d", undo, arena, index, rec)
	}
	// The appender never keeps the buffer it encoded the 5000-byte row's
	// record in: there is no Begin to shed it at.
	if got := ag.ap.ScratchCap(); got > maxRecordBuffer {
		t.Fatalf("the appender kept a %d-byte encode buffer after the bulk transaction (max %d)", got, maxRecordBuffer)
	}

	small := ag.Begin()
	if undo, arena, index, rec := ag.scratchCaps(); undo > maxUndoEntries || arena > maxArenaBytes ||
		index > maxIndexUndo || rec > maxRecordBuffer {
		t.Fatalf("after Begin: undo cap %d (max %d), arena %d (%d), index undo %d (%d), record %d (%d)",
			undo, maxUndoEntries, arena, maxArenaBytes, index, maxIndexUndo, rec, maxRecordBuffer)
	}
	if err := small.Update(tbl, 10_000, setValue(1)); err != nil {
		t.Fatal(err)
	}
	if err := small.Commit(CommitSync, nil); err != nil {
		t.Fatal(err)
	}

	ag.Close()
	if undo, arena, index, rec := ag.scratchCaps(); undo+arena+index+rec != 0 {
		t.Fatalf("Close left scratch behind: %d %d %d %d", undo, arena, index, rec)
	}
	if n := testing.AllocsPerRun(10, ag.Close); n != 0 {
		t.Fatalf("Close allocates %.0f objects", n)
	}
}
