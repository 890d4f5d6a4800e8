package txn

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

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
// Its daemon flushes only when a commit waits, so no timer pass puts a
// seal between the transaction's records.
func TestAgentScratchLogsSameBytes(t *testing.T) {
	h := newHarnessN(t, 1, goldenLogConfig)
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

	// The first record is marked first, no record points back, and every
	// record carries the agent's slot: only the first names the
	// transaction in full.
	first := logrec.NewUpdate(tx.ID(), lsn.Undefined, rid.Page,
		logrec.UpdatePayload{Op: logrec.OpInsert, Slot: rid.Slot, After: row(2, 20)})
	second := logrec.NewUpdate(tx.ID(), start, rid.Page, logrec.Splice(nil, rid.Slot, row(2, 20), row(2, 21)))
	commit := logrec.NewCommit(tx.ID())
	if ag.slot == 0 {
		t.Fatal("the engine's first agent holds no slot")
	}
	var want []byte
	for _, rec := range []*logrec.Record{first, second, commit} {
		rec.Slot = ag.slot
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
	binary.LittleEndian.PutUint64(hist[16:], keys[2]) // the account, as the benchmark's history rows hold it
	if err := tx.Insert(tables[3], keys[3], hist); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(CommitAsync, nil); err != nil {
		t.Fatal(err)
	}
}

// TestTPCBLogBytesBudget is the log-volume budget of one TPC-B
// transaction shaped as the repository benchmark makes them — three
// updates of an 8-byte balance in 100-byte rows, one zero-padded 100-byte
// history row holding its key, the delta and the account, a commit —
// counted off the device. The engine here is a few records old, so its
// transaction IDs and page numbers are one or two bytes long; the same
// records re-encoded at the benchmark's magnitudes (the first record's ID
// to 80 200 — the later four name the transaction by its one-byte slot —
// and thousands of pages a table) must fit the budget too: at most 70
// bytes on one lane (format 9, where only the first record names the
// transaction in full; format 8's full ID on all five made it 77, format
// 7's 4-byte CRC on each of the five 97, format 6's 4-byte
// back-pointer on the three records after the first 109, both images
// 121, five 48-byte headers and whole rows 988, whole history rows 246,
// fixed 8-byte frames and a chained commit 140), the history insert at
// most 28 of them, and on three lanes at most a seq and an edge more per
// record. A CRC on every record would add 20 bytes and miss it, and so
// would the full ID on the four records after the first, 7. The seal
// that closes the flush is not the transaction's: it is one per flush,
// whatever the flush holds, and is counted apart.
// A balance of a few million moved by a negative delta of the
// benchmark's range changes its three low bytes, and the negative delta
// fills the history row's whole amount field: the most a benchmark
// history row logs.
func TestTPCBLogBytesBudget(t *testing.T) {
	const (
		budget       = 70
		insertBudget = 28
		seqAndEdge   = 2 * binary.MaxVarintLen32 // per record, on N lanes
		benchTxnID   = 80_200
		benchPageNo  = 5_000
		balance      = 3_000_000
		delta        = -654_321
	)
	keys := [4]uint64{1, 1, 100_000, 2<<40 | 1} // branch, teller, account, history as the benchmark numbers them
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
			copy(r, row(keys[i], balance))
			if err := load.Insert(tables[i], keys[i], r); err != nil {
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

		d := int64(delta)
		tpcbShape(t, ag, &tables, keys, uint64(d))
		h.flushAll(t)

		logged, sealed, atBench, insertAtBench, records := 0, 0, 0, 0, 0
		perKind := map[logrec.Kind][2]int{} // records, bytes
		for i, d := range h.devs {
			tail := make([]byte, d.DurableSize()-before[i])
			if _, err := d.ReadAt(tail, before[i]); err != nil && len(tail) > 0 {
				t.Fatal(err)
			}
			sealed += len(tail)
			it := logrec.NewIterator(tail, lsn.LSN(before[i]))
			for rec, ok := it.Next(); ok; rec, ok = it.Next() {
				records++
				logged += int(rec.TotalLen)
				sealed -= int(rec.TotalLen)
				k := perKind[rec.Kind]
				perKind[rec.Kind] = [2]int{k[0] + 1, k[1] + int(rec.TotalLen)}
				var up logrec.UpdatePayload
				if rec.Kind == logrec.KindUpdate {
					var err error
					if up, err = logrec.DecodeUpdate(rec.Payload); err != nil {
						t.Fatal(err)
					}
					if up.Op == logrec.OpSet && (up.Off < 8 || int(up.Off)+len(up.X) > 16 || up.Delta != 0) {
						t.Errorf("update logged X over row[%d:+%d] and a %+d resize, want bytes of the balance at [8, 16)", up.Off, len(up.X), up.Delta)
					}
					rec.PageID += benchPageNo
				}
				if rec.First {
					rec.TxnID = benchTxnID
				} else if rec.Slot == 0 || rec.TxnID != 0 {
					t.Errorf("the %v at %v names its transaction in full (ID %d, slot %d), want by its slot", rec.Kind, rec.LSN, rec.TxnID, rec.Slot)
				}
				atBench += rec.EncodedSize()
				if up.Op == logrec.OpInsert {
					insertAtBench = rec.EncodedSize()
				}
			}
			if err := it.Err(); err != nil {
				t.Fatal(err)
			}
		}
		if records != 5 {
			t.Fatalf("the transaction logged %d records, want 3 updates, 1 insert, 1 commit", records)
		}
		limit, insertLimit := budget, insertBudget
		if n > 1 {
			limit += records * seqAndEdge
			insertLimit += seqAndEdge
		}
		t.Logf("%d lanes: %d bytes logged (%d at benchmark magnitudes, the insert %d), budget %d (insert %d): update %v, commit %v [records, bytes]; the flushes' seals %d more",
			n, logged, atBench, insertAtBench, limit, insertLimit, perKind[logrec.KindUpdate], perKind[logrec.KindCommit], sealed)
		if logged > limit || atBench > limit {
			t.Errorf("%d bytes logged, %d at benchmark magnitudes: budget %d", logged, atBench, limit)
		}
		if insertAtBench > insertLimit {
			t.Errorf("the history insert is %d bytes at benchmark magnitudes: budget %d", insertAtBench, insertLimit)
		}
	})
}

// TestCLRChainEndCarriesNoAux: rolling back a one-update transaction
// logs one CLR, whose undo-next is the end of the chain; the end of a
// chain is the absent Aux, so the record spends no bytes on it.
func TestCLRChainEndCarriesNoAux(t *testing.T) {
	h := newHarness(t)
	tbl, _ := h.eng.CreateTable("t", nil)
	ag := h.eng.NewAgent()
	defer ag.Close()
	tx := ag.Begin()
	if err := tx.Insert(tbl, 1, row(1, 10)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	h.flushAll(t)
	dev := h.devs[0]
	data := make([]byte, dev.DurableSize())
	if _, err := dev.RawReadAt(data, 0); err != nil {
		t.Fatal(err)
	}
	var clrs []logrec.Record
	it := logrec.NewIterator(data, 0)
	for rec, ok := it.Next(); ok; rec, ok = it.Next() {
		if rec.Kind == logrec.KindCLR {
			clrs = append(clrs, rec)
		}
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if len(clrs) != 1 {
		t.Fatalf("rollback of one insert logged %d CLRs, want 1", len(clrs))
	}
	if clr := clrs[0]; clr.Aux != 0 || clr.UndoNext() != lsn.Undefined {
		t.Fatalf("the chain-ending CLR carries Aux %d (undo-next %v), want none", clr.Aux, clr.UndoNext())
	}
}

// loadTPCB creates TPC-B's four tables on eng — 10 branches, 100
// tellers, accounts accounts and an empty history — with 100-byte rows.
func loadTPCB(t *testing.T, eng *Engine, ag *Agent, accounts uint64) (tables [4]*Table) {
	t.Helper()
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
	return tables
}

// TestTxnAllocationBudget is the transaction layer's allocation budget.
// One TPC-B-shaped transaction costs the engine no object of its own —
// the agent reuses its Txn and scratch (TestCommitAllocatesNothing) —
// and the generator here four (its closure and a 112-byte copy per
// update: ~370 B): four allocations against 51 before the agent owned
// the scratch, and 5 while it made a Txn per transaction. A growing
// history table amortises to another ~150 B (an 8 KiB page per 70 rows,
// index nodes, dirty-page entries), so ~600 B in all against 5 kB. The
// ceilings leave room for the generator's sites to move between heap and
// stack; the engine's own zero is TestCommitAllocatesNothing's to hold.
func TestTxnAllocationBudget(t *testing.T) {
	const (
		maxAllocs = 6
		maxBytes  = 1100
		accounts  = 1000
	)
	eng := newEngineOn(t, nullDev{logdev.NewMem(logdev.ProfileMemory)})
	ag := eng.NewAgent()
	defer ag.Close()
	tables := loadTPCB(t, eng, ag, accounts)
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

// allocFreeTPCB is a TPC-B-shaped transaction generator that allocates
// nothing itself, over an engine of n lanes that keep no log bytes
// (nullDev): three 100-byte row updates and one history insert per
// transaction, ended by finish. A window of 32 holds at most as many
// commits in flight as the repository benchmark's pipelined clients do;
// ack, the commits' callback, releases a place in it.
type allocFreeTPCB struct {
	ag     *Agent
	tables [4]*Table
	seq    uint64
	next   []byte
	hist   []byte
	add    func([]byte) ([]byte, error)
	window chan struct{}
	ack    func(error)
	failed atomic.Int64
}

func newAllocFreeTPCB(t *testing.T, lanes int) *allocFreeTPCB {
	const accounts = 1000
	devs := make([]logdev.Device, lanes)
	for i := range devs {
		devs[i] = nullDev{logdev.NewMem(logdev.ProfileMemory)}
	}
	eng := startEngine(t, RestartConfig{Devices: devs, LogConfig: harnessLogConfig})
	g := &allocFreeTPCB{ag: eng.NewAgent(), next: make([]byte, 0, 100), hist: make([]byte, 100), window: make(chan struct{}, 32)}
	t.Cleanup(g.ag.Close)
	g.tables = loadTPCB(t, eng, g.ag, accounts)
	g.add = func(cur []byte) ([]byte, error) {
		g.next = append(g.next[:0], cur...)
		binary.LittleEndian.PutUint64(g.next[8:16], rowValue(cur)+g.seq)
		return g.next, nil
	}
	g.ack = func(err error) {
		if err != nil {
			g.failed.Add(1)
		}
		<-g.window
	}
	return g
}

// txn runs one transaction and hands it to finish.
func (g *allocFreeTPCB) txn(t *testing.T, finish func(*Txn) error) {
	g.window <- struct{}{}
	g.seq++
	tx := g.ag.Begin()
	for i, key := range [3]uint64{g.seq%10 + 1, g.seq%100 + 1, g.seq*7919%1000 + 1} {
		if err := tx.Update(g.tables[i], key, g.add); err != nil {
			t.Fatal(err)
		}
	}
	binary.LittleEndian.PutUint64(g.hist[0:8], g.seq)
	binary.LittleEndian.PutUint64(g.hist[8:16], g.seq)
	if err := tx.Insert(g.tables[3], g.seq, g.hist); err != nil {
		t.Fatal(err)
	}
	if err := finish(tx); err != nil {
		t.Fatal(err)
	}
}

// allocsAfterWarmUp runs 5 000 transactions, then returns what each of
// 5 000 more allocates, and waits for every commit in flight.
func (g *allocFreeTPCB) allocsAfterWarmUp(t *testing.T, finish func(*Txn) error) float64 {
	const runs = 5_000
	for i := 0; i < runs; i++ {
		g.txn(t, finish)
	}
	got := testing.AllocsPerRun(runs, func() { g.txn(t, finish) })
	for i := 0; i < cap(g.window); i++ {
		g.window <- struct{}{}
	}
	if n := g.failed.Load(); n != 0 {
		t.Fatalf("%d commits acknowledged with an error", n)
	}
	return got
}

// TestCommitAllocatesNothing: a TPC-B-shaped transaction, from a
// generator that allocates nothing, allocates nothing in the engine
// under every commit mode, on one lane and on three. The agent reuses
// its finished Txns (Agent.recycle), a detached commit subscribes the
// Txn itself for its completion — a hold-locks commit too, whose
// scratch goes out and comes back with it — and the history table's
// pages and index nodes amortise below one allocation a transaction.
func TestCommitAllocatesNothing(t *testing.T) {
	for _, lanes := range []int{1, 3} {
		for _, mode := range []CommitMode{CommitSync, CommitSyncELR, CommitAsync, CommitPipelined, CommitPipelinedHoldLocks} {
			t.Run(fmt.Sprintf("%s/lanes=%d", mode, lanes), func(t *testing.T) {
				g := newAllocFreeTPCB(t, lanes)
				commit := func(tx *Txn) error { return tx.Commit(mode, g.ack) }
				if got := g.allocsAfterWarmUp(t, commit); got != 0 {
					t.Errorf("%.0f allocations per %s transaction, want 0", got, mode)
				}
			})
		}
	}
}

// TestAbortAllocatesNothing: rolling a TPC-B-shaped transaction back
// allocates nothing either: its undo lives in the agent's scratch, the
// rollback subscribes the Txn itself to leave the ATT once its end
// record hardens, and the Txn is reused after that.
func TestAbortAllocatesNothing(t *testing.T) {
	for _, lanes := range []int{1, 3} {
		t.Run(fmt.Sprintf("lanes=%d", lanes), func(t *testing.T) {
			g := newAllocFreeTPCB(t, lanes)
			abort := func(tx *Txn) error {
				<-g.window
				return tx.Abort()
			}
			if got := g.allocsAfterWarmUp(t, abort); got != 0 {
				t.Errorf("%.0f allocations per aborted transaction, want 0", got)
			}
		})
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

	// The caps hold a 1 000-row load transaction's scratch, so loading
	// in such transactions back to back re-arms it rather than regrowing
	// it, within a per-agent budget.
	const budget = 192 << 10
	if got := maxUndoEntries*int(unsafe.Sizeof(undoEntry{})) + maxArenaBytes +
		maxIndexUndo*int(unsafe.Sizeof(indexUndo{})) + 2*maxRecordBuffer; got > budget {
		t.Fatalf("the caps let an agent keep %d bytes of scratch, over the %d-byte budget", got, budget)
	}
	for load := uint64(1); load <= 2; load++ {
		tx := ag.Begin()
		for k := load * 100_000; k < load*100_000+1000; k++ {
			if err := tx.Insert(tbl, k, row(k, k)); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(CommitSync, nil); err != nil {
			t.Fatal(err)
		}
	}
	loadUndo, _, loadIndex, _ := ag.scratchCaps()
	if loadUndo > maxUndoEntries || loadIndex > maxIndexUndo {
		t.Fatalf("a 1 000-row load transaction grew undo to %d (cap %d) and index undo to %d (cap %d)", loadUndo, maxUndoEntries, loadIndex, maxIndexUndo)
	}
	if err := ag.Begin().Abort(); err != nil {
		t.Fatal(err)
	}
	if undo, _, index, _ := ag.scratchCaps(); undo != loadUndo || index != loadIndex {
		t.Fatalf("the next Begin dropped a load transaction's scratch: undo %d → %d, index undo %d → %d", loadUndo, undo, loadIndex, index)
	}

	bulk := ag.Begin()
	for k := uint64(1); k <= 20_000; k++ {
		if err := bulk.Insert(tbl, k, row(k, k)); err != nil {
			t.Fatal(err)
		}
	}
	big := bytes.Repeat([]byte{0xa5}, 5000) // no zero tail: the record carries all of it
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
