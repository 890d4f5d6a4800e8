package txn

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"aether/internal/core"
	"aether/internal/logdev"
	"aether/internal/logrec"
	"aether/internal/lsn"
	"aether/internal/vfs"
)

// restart brings the engine back up over the harness's devices and
// re-creates the named tables in order.
func (h *harness) restart(t *testing.T, tables ...string) (*Engine, map[string]*Table) {
	t.Helper()
	eng := h.start(t, harnessLogConfig)
	out := make(map[string]*Table, len(tables))
	for _, name := range tables {
		tbl, err := eng.CreateTable(name, nil)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = tbl
	}
	if err := eng.RebuildTables(); err != nil {
		t.Fatal(err)
	}
	return eng, out
}

// crashAndRestart stops the log, cuts the power and brings the engine
// back up.
func (h *harness) crashAndRestart(t *testing.T, tables ...string) (*Engine, map[string]*Table) {
	t.Helper()
	h.eng.Multi().Close() // stop the daemons; Close may flush already-released bytes
	h.powerCut(t)         // drop everything unsynced
	return h.restart(t, tables...)
}

// hardCrashAndRestart drops unsynced bytes WITHOUT closing the log first
// (Close would drain the buffer — a graceful shutdown, not a crash).
func (h *harness) hardCrashAndRestart(t *testing.T, tables ...string) (*Engine, map[string]*Table) {
	t.Helper()
	// Cut the power at the crash point: the dying daemons' further writes
	// fail instead of extending the durable log.
	h.fs.PowerCut()
	h.eng.Multi().Close() // may report the power cut's error; that's the point
	h.powerCut(t)
	return h.restart(t, tables...)
}

// flushAll makes everything appended so far durable on every lane.
func (h *harness) flushAll(t *testing.T) {
	t.Helper()
	if err := h.eng.Multi().FlushAll(); err != nil {
		t.Fatal(err)
	}
}

// twoTables creates tables "t" and "u" — spaces 1 and 2, so on three
// lanes a transaction whose first write goes to t homes on lane 1 and
// one that starts in u on lane 2. The crash tests write every key to
// both, alternating which comes first: consecutive transactions then
// keep handing both tables' pages from one lane to the other, which is
// what forms the Appendix A.5 edges (checked by wantEdges).
func (h *harness) twoTables(t *testing.T) (tt, tu *Table) {
	t.Helper()
	tt, err := h.eng.CreateTable("t", nil)
	if err != nil {
		t.Fatal(err)
	}
	if tu, err = h.eng.CreateTable("u", nil); err != nil {
		t.Fatal(err)
	}
	return tt, tu
}

// wantEdges fails a multi-lane run whose script formed no cross-lane
// page dependency: it would be testing N copies of one lane.
func (h *harness) wantEdges(t *testing.T, n int) {
	t.Helper()
	if n > 1 && h.eng.Multi().EdgesTotal() == 0 {
		t.Fatal("test invalid: no cross-lane page dependency formed")
	}
}

// startIn returns (tt, tu) for odd k and (tu, tt) for even k.
func startIn(k uint64, tt, tu *Table) (first, second *Table) {
	if k%2 == 0 {
		return tu, tt
	}
	return tt, tu
}

// wantBoth checks key k's value in both tables of a restarted engine
// (want 0: the key must be absent).
func wantBoth(t *testing.T, check *Txn, tables map[string]*Table, k, want uint64) {
	t.Helper()
	for _, name := range []string{"t", "u"} {
		got, err := check.Read(tables[name], k)
		switch {
		case want == 0 && !errors.Is(err, ErrKeyNotFound):
			t.Fatalf("%s key %d: should be gone, got %v", name, k, err)
		case want != 0 && err != nil:
			t.Fatalf("%s key %d lost: %v", name, k, err)
		case want != 0 && rowValue(got) != want:
			t.Fatalf("%s key %d: value %d, want %d", name, k, rowValue(got), want)
		}
	}
}

func TestCrashRecoveryCommittedSurvives(t *testing.T) {
	forEachLaneCount(t, func(t *testing.T, n int) {
		h := newHarnessN(t, n, harnessLogConfig)
		tt, tu := h.twoTables(t)
		ag := h.eng.NewAgent()
		for k := uint64(1); k <= 25; k++ {
			tx := ag.Begin()
			first, second := startIn(k, tt, tu)
			if err := tx.Insert(first, k, row(k, k*7)); err != nil {
				t.Fatal(err)
			}
			if err := tx.Insert(second, k, row(k, k*7)); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(CommitSync, nil); err != nil {
				t.Fatal(err)
			}
		}
		ag.Close()
		h.wantEdges(t, n)

		eng, tables := h.crashAndRestart(t, "t", "u")
		ag2 := eng.NewAgent()
		defer ag2.Close()
		check := ag2.Begin()
		for k := uint64(1); k <= 25; k++ {
			wantBoth(t, check, tables, k, k*7)
		}
		check.Commit(CommitSync, nil)
	})
}

func TestCrashRecoveryUncommittedRolledBack(t *testing.T) {
	forEachLaneCount(t, func(t *testing.T, n int) {
		h := newHarnessN(t, n, harnessLogConfig)
		tt, tu := h.twoTables(t)
		ag := h.eng.NewAgent()

		committed := ag.Begin()
		committed.Insert(tt, 1, row(1, 100))
		committed.Insert(tu, 1, row(1, 100))
		if err := committed.Commit(CommitSync, nil); err != nil {
			t.Fatal(err)
		}

		// A transaction that updates and inserts, then the system crashes
		// with the commit record unwritten. Force its updates to the durable
		// log (so redo replays them and undo must compensate).
		loser := ag.Begin()
		loser.Update(tu, 1, func(r []byte) ([]byte, error) { return row(1, 666), nil })
		loser.Update(tt, 1, func(r []byte) ([]byte, error) { return row(1, 666), nil })
		loser.Insert(tt, 2, row(2, 200))
		loser.Insert(tu, 2, row(2, 200))
		h.flushAll(t)
		h.wantEdges(t, n)

		eng, tables := h.hardCrashAndRestart(t, "t", "u")
		ag2 := eng.NewAgent()
		defer ag2.Close()
		check := ag2.Begin()
		wantBoth(t, check, tables, 1, 100) // the loser's updates
		wantBoth(t, check, tables, 2, 0)   // the loser's inserts
		check.Commit(CommitSync, nil)
	})
}

// TestRestartDoesNotReuseTxnIDs: recovery's analysis keys its
// transaction table by ID, and the log of earlier incarnations stays in
// the scanned tail until a checkpoint truncates it. If a restarted
// engine handed out IDs from 1 again, a loser of the second crash would
// share its ID with a transaction whose commit record is still in the
// tail, inherit the "committed" verdict, and never be rolled back.
func TestRestartDoesNotReuseTxnIDs(t *testing.T) {
	forEachLaneCount(t, func(t *testing.T, n int) {
		h := newHarnessN(t, n, harnessLogConfig)
		tt, tu := h.twoTables(t)
		ag := h.eng.NewAgent()
		first := ag.Begin()
		first.Insert(tt, 1, row(1, 100))
		first.Insert(tu, 1, row(1, 100))
		if err := first.Commit(CommitSync, nil); err != nil {
			t.Fatal(err)
		}

		eng, tables := h.hardCrashAndRestart(t, "t", "u")
		ag2 := eng.NewAgent()
		loser := ag2.Begin()
		if loser.ID() <= first.ID() {
			t.Fatalf("restarted engine reused txn ID %d (the first incarnation reached %d)", loser.ID(), first.ID())
		}
		// The second incarnation's first transaction updates durably and
		// crashes uncommitted; with ID reuse it would have been txn
		// first.ID() again, and survived.
		loser.Update(tables["u"], 1, func([]byte) ([]byte, error) { return row(1, 666), nil })
		loser.Update(tables["t"], 1, func([]byte) ([]byte, error) { return row(1, 666), nil })
		h.flushAll(t)

		eng, tables = h.hardCrashAndRestart(t, "t", "u")
		ag3 := eng.NewAgent()
		defer ag3.Close()
		check := ag3.Begin()
		wantBoth(t, check, tables, 1, 100)
		check.Commit(CommitSync, nil)
	})
}

func TestCrashRecoveryAsyncCommitLosesTail(t *testing.T) {
	// The unsafety the paper highlights: async commit reports success
	// before durability, so a crash can lose "committed" work.
	forEachLaneCount(t, func(t *testing.T, n int) {
		h := newHarnessN(t, n, core.Config{
			Buffer:        harnessLogConfig.Buffer,
			FlushInterval: time.Hour, // no timer flush: tail stays volatile
			FlushTxns:     1 << 30,
			FlushBytes:    1 << 30,
		})
		tt, tu := h.twoTables(t)
		ag := h.eng.NewAgent()
		tx := ag.Begin()
		tx.Insert(tt, 1, row(1, 1))
		tx.Insert(tu, 1, row(1, 1))
		acked := false
		if err := tx.Commit(CommitAsync, func(err error) {
			if err == nil {
				acked = true
			}
		}); err != nil {
			t.Fatal(err)
		}
		if !acked {
			t.Fatal("async commit did not ack immediately")
		}
		// Crash before any flush: the "committed" row is gone.
		eng2, tables := h.hardCrashAndRestart(t, "t", "u")
		ag2 := eng2.NewAgent()
		defer ag2.Close()
		check := ag2.Begin()
		wantBoth(t, check, tables, 1, 0)
		check.Commit(CommitSync, nil)
	})
}

func TestCrashRecoveryPipelinedAckIsDurable(t *testing.T) {
	// The safety property flush pipelining preserves: a transaction is
	// acknowledged only after its commit record is durable, so every
	// acked transaction survives any crash.
	forEachLaneCount(t, func(t *testing.T, n int) {
		h := newHarnessN(t, n, harnessLogConfig)
		tt, tu := h.twoTables(t)
		ag := h.eng.NewAgent()

		const txns = 100
		var mu sync.Mutex
		acked := make(map[uint64]bool)
		var wg sync.WaitGroup
		for k := uint64(1); k <= txns; k++ {
			tx := ag.Begin()
			first, second := startIn(k, tt, tu)
			if err := tx.Insert(first, k, row(k, k)); err != nil {
				t.Fatal(err)
			}
			if err := tx.Insert(second, k, row(k, k)); err != nil {
				t.Fatal(err)
			}
			k := k
			wg.Add(1)
			if err := tx.Commit(CommitPipelined, func(err error) {
				if err == nil {
					mu.Lock()
					acked[k] = true
					mu.Unlock()
				}
				wg.Done()
			}); err != nil {
				t.Fatal(err)
			}
		}
		wg.Wait() // all acked — all must survive
		ag.Close()
		h.wantEdges(t, n)

		eng, tables := h.hardCrashAndRestart(t, "t", "u")
		ag2 := eng.NewAgent()
		defer ag2.Close()
		check := ag2.Begin()
		for k := uint64(1); k <= txns; k++ {
			if acked[k] {
				wantBoth(t, check, tables, k, k)
			}
		}
		check.Commit(CommitSync, nil)
	})
}

func TestCrashRecoveryWithCheckpointAndArchive(t *testing.T) {
	forEachLaneCount(t, func(t *testing.T, n int) {
		h := newHarnessN(t, n, harnessLogConfig)
		tt, tu := h.twoTables(t)
		ag := h.eng.NewAgent()

		tx := ag.Begin()
		for k := uint64(1); k <= 40; k++ {
			tx.Insert(tt, k, row(k, k))
			tx.Insert(tu, k, row(k, k))
		}
		tx.Commit(CommitSync, nil)

		if err := h.eng.Checkpoint(); err != nil {
			t.Fatal(err)
		}

		// Post-checkpoint work: updates that exist only in the log, by a
		// transaction homed on u's lane and then by one homed on t's. The
		// checkpoint's truncation forgot which lane last updated each page,
		// so the cross-lane edges must form here, between the two.
		for _, order := range [][]*Table{{tu, tt}, {tt, tu}} {
			tx = ag.Begin()
			for k := uint64(1); k <= 40; k += 2 {
				for _, tbl := range order {
					tbl.updateTo(tx, k, k*1000)
				}
			}
			tx.Commit(CommitSync, nil)
		}
		ag.Close()
		h.wantEdges(t, n)

		eng, tables := h.crashAndRestart(t, "t", "u")
		ag2 := eng.NewAgent()
		defer ag2.Close()
		check := ag2.Begin()
		for k := uint64(1); k <= 40; k++ {
			want := k
			if k%2 == 1 {
				want = k * 1000
			}
			wantBoth(t, check, tables, k, want)
		}
		check.Commit(CommitSync, nil)
	})
}

func TestCrashRecoveryAbortedTxnStaysAborted(t *testing.T) {
	forEachLaneCount(t, func(t *testing.T, n int) {
		h := newHarnessN(t, n, harnessLogConfig)
		tt, tu := h.twoTables(t)
		ag := h.eng.NewAgent()

		seed := ag.Begin()
		seed.Insert(tt, 1, row(1, 100))
		seed.Insert(tu, 1, row(1, 100))
		seed.Commit(CommitSync, nil)

		tx := ag.Begin()
		tx.Update(tu, 1, func(r []byte) ([]byte, error) { return row(1, 999), nil })
		tx.Update(tt, 1, func(r []byte) ([]byte, error) { return row(1, 999), nil })
		if err := tx.Abort(); err != nil {
			t.Fatal(err)
		}
		// Make sure the abort + CLRs are durable, then crash.
		h.flushAll(t)
		ag.Close()
		h.wantEdges(t, n)

		eng, tables := h.hardCrashAndRestart(t, "t", "u")
		ag2 := eng.NewAgent()
		defer ag2.Close()
		check := ag2.Begin()
		wantBoth(t, check, tables, 1, 100)
		check.Commit(CommitSync, nil)
	})
}

func TestDoubleCrashRecovery(t *testing.T) {
	// Recovery must itself be recoverable: crash again right after a
	// recovery pass (its CLRs flushed) and recover once more.
	forEachLaneCount(t, func(t *testing.T, n int) {
		h := newHarnessN(t, n, harnessLogConfig)
		tt, tu := h.twoTables(t)
		ag := h.eng.NewAgent()

		seed := ag.Begin()
		seed.Insert(tt, 1, row(1, 100))
		seed.Insert(tu, 1, row(1, 100))
		seed.Commit(CommitSync, nil)

		loser := ag.Begin()
		loser.Update(tu, 1, func(r []byte) ([]byte, error) { return row(1, 666), nil })
		loser.Update(tt, 1, func(r []byte) ([]byte, error) { return row(1, 666), nil })
		h.flushAll(t)
		h.wantEdges(t, n)

		// First crash + recovery (undo logs CLRs), then immediately crash
		// again without any new work.
		h.hardCrashAndRestart(t, "t", "u")
		eng2, tables := h.hardCrashAndRestart(t, "t", "u")
		ag2 := eng2.NewAgent()
		defer ag2.Close()
		check := ag2.Begin()
		wantBoth(t, check, tables, 1, 100)
		check.Commit(CommitSync, nil)
	})
}

// TestCheckpointInsideTheStampWindow: a transaction publishes its last
// record's stamp after the append returns, so a checkpoint can snapshot
// a transaction-table entry that trails the transaction's records — none
// yet, or one record stale. Put lastStamp back to what it held before
// the append (exactly what such a checkpoint sees), checkpoint, crash:
// the uncommitted rows must still be rolled back, because recovery takes
// the checkpoint's table as names and the durable tail as the facts.
func TestCheckpointInsideTheStampWindow(t *testing.T) {
	forEachLaneCount(t, func(t *testing.T, n int) {
		for _, updates := range []int{1, 2} {
			h := newHarnessN(t, n, harnessLogConfig)
			tt, tu := h.twoTables(t)
			ag := h.eng.NewAgent()
			seed := ag.Begin()
			seed.Insert(tt, 1, row(1, 100))
			seed.Insert(tu, 1, row(1, 100))
			if err := seed.Commit(CommitSync, nil); err != nil {
				t.Fatal(err)
			}

			loser := ag.Begin()
			var before lsn.LSN
			for i, tbl := range []*Table{tu, tt}[:updates] {
				before = loser.lastStamp.Load()
				if err := tbl.updateTo(loser, 1, 666); err != nil {
					t.Fatal(i, err)
				}
			}
			loser.lastStamp.Store(before)
			h.flushAll(t)
			if err := h.eng.Checkpoint(); err != nil {
				t.Fatal(err)
			}

			eng, tables := h.hardCrashAndRestart(t, "t", "u")
			ag2 := eng.NewAgent()
			check := ag2.Begin()
			wantBoth(t, check, tables, 1, 100)
			check.Commit(CommitSync, nil)
			ag2.Close()
		}
	})
}

// updateTo sets key's value in tbl on behalf of tx.
func (tbl *Table) updateTo(tx *Txn, key, v uint64) error {
	return tx.Update(tbl, key, func([]byte) ([]byte, error) { return row(key, v), nil })
}

// TestCrashRecoveryRandomized is the property test: random committed and
// in-flight transactions, a crash at a random durability horizon, and
// the recovered state must equal the replay of exactly the transactions
// whose commit records made it to the durable log.
func TestCrashRecoveryRandomized(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test: 8 randomized crash/recovery rounds per lane count; run without -short")
	}
	for round := 0; round < 8; round++ {
		round := round
		t.Run("", func(t *testing.T) {
			t.Parallel()
			forEachLaneCount(t, func(t *testing.T, n int) {
				rng := rand.New(rand.NewSource(int64(round)*7919 + 13))
				h := newHarnessN(t, n, harnessLogConfig)
				tt, tu := h.twoTables(t)
				// Key k lives in the table its parity picks, so a
				// transaction homes on the lane of the first key it draws.
				tableOf := func(k uint64) *Table {
					first, _ := startIn(k, tt, tu)
					return first
				}
				ag := h.eng.NewAgent()

				const keys = 30
				// Seed and checkpoint sometimes (exercises archive path).
				seed := ag.Begin()
				for k := uint64(1); k <= keys; k++ {
					seed.Insert(tableOf(k), k, row(k, 1000))
				}
				if err := seed.Commit(CommitSync, nil); err != nil {
					t.Fatal(err)
				}
				if round%2 == 0 {
					if err := h.eng.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}

				// Model of what the durable state must be: value per key as
				// of each sync-committed txn.
				model := make(map[uint64]uint64)
				for k := uint64(1); k <= keys; k++ {
					model[k] = 1000
				}

				nTxns := 20 + rng.Intn(30)
				for i := 0; i < nTxns; i++ {
					tx := ag.Begin()
					pending := make(map[uint64]uint64)
					nOps := 1 + rng.Intn(4)
					fail := false
					for j := 0; j < nOps; j++ {
						k := uint64(rng.Intn(keys) + 1)
						delta := uint64(rng.Intn(50))
						err := tx.Update(tableOf(k), k, func(r []byte) ([]byte, error) {
							v := rowValue(r) + delta
							pending[k] = v
							return row(k, v), nil
						})
						if err != nil {
							fail = true
							break
						}
					}
					switch {
					case fail || rng.Intn(10) == 0:
						if err := tx.Abort(); err != nil {
							t.Fatal(err)
						}
					case rng.Intn(10) == 0:
						// Leave in flight: crash will roll it back. Later
						// transactions can't touch its keys (locks held), so
						// abandon the agent and use a new one. The slot
						// stays with the transaction in flight.
						ag.Close()
						ag = h.eng.NewAgent()
					default:
						if err := tx.Commit(CommitSync, nil); err != nil {
							t.Fatal(err)
						}
						for k, v := range pending {
							model[k] = v
						}
					}
				}
				h.wantEdges(t, n)

				eng, tables := h.hardCrashAndRestart(t, "t", "u")
				ag2 := eng.NewAgent()
				defer ag2.Close()
				check := ag2.Begin()
				for k := uint64(1); k <= keys; k++ {
					first, _ := startIn(k, tables["t"], tables["u"])
					got, err := check.Read(first, k)
					if err != nil {
						t.Fatalf("key %d: %v", k, err)
					}
					if rowValue(got) != model[k] {
						t.Fatalf("key %d: recovered %d, model %d", k, rowValue(got), model[k])
					}
				}
				check.Commit(CommitSync, nil)
			})
		})
	}
}

// TestCrashRecoveryMixedSpliceChain: a transaction whose chain mixes
// same-length splices (patched where the row stands), splices that grow
// and shrink their row (rebuilt elsewhere on the page), an insert and a
// delete is rolled back to byte-identical rows wherever the crash cuts
// its rollback: before the abort record (recovery writes every CLR),
// between two CLRs (recovery redoes the first, then compensates the
// rest — each against exactly the row bytes its splice was logged on),
// after the last CLR (only the end record is missing), and after the
// end. A splice is no more idempotent than an insert, so a CLR redone
// twice or an update undone twice would leave rows of the wrong length
// or fail the bounds check. Each recovered state must also survive a
// second crash.
func TestCrashRecoveryMixedSpliceChain(t *testing.T) {
	long := func(k uint64, n int, fill byte) []byte {
		r := bytes.Repeat([]byte{fill}, n)
		copy(r, row(k, 7))
		return r
	}
	seedRows := map[string]map[uint64][]byte{
		"t": {1: long(1, 40, 'a'), 2: long(2, 16, 'b')},
		"u": {1: long(1, 40, 'c'), 2: long(2, 60, 'd')},
	}
	forEachLaneCount(t, func(t *testing.T, n int) {
		h := newHarnessN(t, n, harnessLogConfig)
		tt, tu := h.twoTables(t)
		tables := map[string]*Table{"t": tt, "u": tu}
		ag := h.eng.NewAgent()
		seed := ag.Begin() // homes where t lives
		for _, name := range []string{"t", "u"} {
			for k := uint64(1); k <= 2; k++ {
				if err := seed.Insert(tables[name], k, seedRows[name][k]); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := seed.Commit(CommitSync, nil); err != nil {
			t.Fatal(err)
		}

		set := func(tx *Txn, tbl *Table, k uint64, to []byte) {
			t.Helper()
			if err := tx.Update(tbl, k, func([]byte) ([]byte, error) { return to, nil }); err != nil {
				t.Fatal(err)
			}
		}
		loser := ag.Begin() // first write in u: another lane than the seed's on N = 3
		field := long(1, 40, 'c')
		copy(field[8:16], "8 bytes!")
		set(loser, tu, 1, field)                                                   // same length
		set(loser, tt, 1, long(1, 70, 'a'))                                        // grow at the end
		set(loser, tu, 2, long(2, 24, 'd'))                                        // shrink
		set(loser, tt, 1, append(long(1, 69, 'a'), 'Z'))                           // same length, inside the grown part
		set(loser, tt, 1, long(1, 30, 'a'))                                        // shrink the grown row
		set(loser, tu, 2, append(long(2, 20, 'd'), "MIDDLE-and-a-longer-tail"...)) // grow with a changed middle
		if err := loser.Insert(tt, 5, long(5, 33, 'n')); err != nil {
			t.Fatal(err)
		}
		if err := loser.Delete(tu, 1); err != nil {
			t.Fatal(err)
		}
		if err := loser.Abort(); err != nil {
			t.Fatal(err)
		}
		h.flushAll(t)
		h.wantEdges(t, n)
		ag.Close()

		// The loser's lane, record by record: where its abort record, its
		// CLRs and its end record start — the records after its first that
		// carry its slot.
		lane, slot := loser.home, loser.sc.slot
		tail, _, err := logdev.ReadTail(h.devs[lane])
		if err != nil {
			t.Fatal(err)
		}
		var abortAt, endAt int
		var clrAt []int
		it := logrec.NewIterator(tail, 0)
		mine := false
		for rec, ok := it.Next(); ok; rec, ok = it.Next() {
			if rec.First {
				mine = rec.TxnID == loser.ID()
			}
			if !mine || rec.Slot != slot {
				continue
			}
			switch rec.Kind {
			case logrec.KindAbort:
				abortAt = int(rec.LSN)
			case logrec.KindCLR:
				clrAt = append(clrAt, int(rec.LSN))
			case logrec.KindEnd:
				endAt = int(rec.LSN)
			}
		}
		if len(clrAt) != 8 || abortAt == 0 || endAt == 0 {
			t.Fatalf("rollback logged %d CLRs (abort at %d, end at %d), want one per update", len(clrAt), abortAt, endAt)
		}

		for _, cut := range []struct {
			name string
			at   int
		}{
			{"before the CLRs", abortAt},
			{"after the abort record", clrAt[0]},
			{"between two CLRs", clrAt[3]},
			{"before the last CLR", clrAt[7]},
			{"after the CLRs", endAt},
			{"after the end record", len(tail)},
		} {
			t.Run(cut.name, func(t *testing.T) {
				// The crashed machine: every other lane whole, the loser's
				// cut at a record boundary as if a flush had ended there,
				// no page ever written back.
				hc := &harness{fs: vfs.NewFaultFS(1)}
				hc.openFiles(t, len(h.devs))
				for i, d := range h.devs {
					img, _, err := logdev.ReadTail(d)
					if err != nil {
						t.Fatal(err)
					}
					if i == lane {
						img = sealedCut(t, img, cut.at)
					}
					if _, err := hc.devs[i].Append(img); err != nil {
						t.Fatal(err)
					}
					if err := hc.devs[i].Sync(); err != nil {
						t.Fatal(err)
					}
				}
				check := func(eng *Engine, tables map[string]*Table, when string) {
					t.Helper()
					ag := eng.NewAgent()
					defer ag.Close()
					tx := ag.Begin()
					for name, want := range seedRows {
						got := map[uint64][]byte{}
						if err := tx.Scan(tables[name], 0, ^uint64(0), func(k uint64, r []byte) bool {
							got[k] = r
							return true
						}); err != nil {
							t.Fatal(err)
						}
						if len(got) != len(want) {
							t.Fatalf("%s: table %s holds %d rows, want %d", when, name, len(got), len(want))
						}
						for k, w := range want {
							if !bytes.Equal(got[k], w) {
								t.Fatalf("%s: %s[%d] = %q, want %q", when, name, k, got[k], w)
							}
						}
					}
					if err := tx.Commit(CommitSync, nil); err != nil {
						t.Fatal(err)
					}
				}
				eng, tables := hc.restart(t, "t", "u")
				check(eng, tables, "after recovery")
				eng, tables = hc.hardCrashAndRestart(t, "t", "u")
				check(eng, tables, "after a second crash")
			})
		}
	})
}

// sealedCut returns a lane's log, from offset 0, cut at at, a record
// boundary, with the batch it ends in sealed anew: what a crash right
// after a flush that ended there would leave.
func sealedCut(t *testing.T, tail []byte, at int) []byte {
	t.Helper()
	it := logrec.NewIterator(tail, 0)
	batch, end := 0, 0
	for rec, ok := it.Next(); ok && int(rec.LSN) < at; rec, ok = it.Next() {
		batch, end = int(it.Batch()), int(rec.LSN)+int(rec.TotalLen)
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if end < at { // a seal lies between the last record and the cut
		return tail[:at]
	}
	return logrec.AppendSeal(tail[:at:at], batch)
}
