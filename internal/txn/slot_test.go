package txn

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"aether/internal/logdev"
	"aether/internal/logrec"
	"aether/internal/lsn"
)

// TestInterleavedTxnNamesItselfInFull: a transaction begun while its
// agent's previous one is still active gets a scratch without a slot,
// because the previous one keeps the slot and can still log under it.
// The older transaction logs again after the newer one's first record;
// after a crash that update must still be the older one's, a loser's,
// and be undone, while the newer one's commit stands. Once an older
// transaction finishes, it gives the slot back to the engine, and its
// agent's later transactions take one again and log it alone.
func TestInterleavedTxnNamesItselfInFull(t *testing.T) {
	forEachLaneCount(t, func(t *testing.T, n int) {
		h := newHarnessN(t, n, harnessLogConfig)
		tt, _ := h.twoTables(t)
		ag := h.eng.NewAgent()
		seedRows(t, ag, tt, 3)
		set := func(tx *Txn, k, v uint64) {
			t.Helper()
			if err := tx.Update(tt, k, setValue(v)); err != nil {
				t.Fatal(err)
			}
		}
		// An interleaving whose older transaction finishes: the slot goes
		// back to the engine, and a later transaction of the agent logs
		// a slot again.
		ag0 := h.eng.NewAgent()
		defer ag0.Close()
		o := ag0.Begin()
		free := len(h.eng.slots)
		set(o, 1, 5)
		nw := ag0.Begin()
		set(nw, 2, 6)
		for _, tx := range []*Txn{nw, o} {
			if err := tx.Commit(CommitSync, nil); err != nil {
				t.Fatal(err)
			}
		}
		if len(h.eng.slots) != free+1 || ag0.slot != 0 {
			t.Fatalf("%d free slots after the older transaction's commit, %d before, agent slot %d; want the older's back in the pool",
				len(h.eng.slots), free, ag0.slot)
		}
		before := make([]int64, len(h.devs))
		for i, d := range h.devs {
			before[i] = d.DurableSize()
		}
		later := ag0.Begin()
		if later.sc.slot == 0 || ag0.slot != later.sc.slot {
			t.Fatalf("the agent's later transaction got slot %d (agent %d), want one again", later.sc.slot, ag0.slot)
		}
		set(later, 1, 0)
		set(later, 2, 0)
		if err := later.Commit(CommitSync, nil); err != nil {
			t.Fatal(err)
		}
		records := 0
		for i, d := range h.devs {
			tail := make([]byte, d.DurableSize()-before[i])
			if _, err := d.ReadAt(tail, before[i]); err != nil && len(tail) > 0 {
				t.Fatal(err)
			}
			it := logrec.NewIterator(tail, lsn.LSN(before[i]))
			for rec, ok := it.Next(); ok; rec, ok = it.Next() {
				records++
				if rec.Slot != later.sc.slot || rec.First != (rec.TxnID == later.ID()) || !rec.First && rec.TxnID != 0 {
					t.Errorf("the %v at %v: txn %d, slot %d, first %v; want slot %d, and ID %d on the first record alone",
						rec.Kind, rec.LSN, rec.TxnID, rec.Slot, rec.First, later.sc.slot, later.ID())
				}
			}
			if err := it.Err(); err != nil {
				t.Fatal(err)
			}
		}
		if records != 3 {
			t.Fatalf("the later transaction logged %d records, want 2 updates and a commit", records)
		}

		older := ag.Begin()
		set(older, 1, 11)
		newer := ag.Begin()
		if older.sc.slot == 0 || newer.sc.slot != 0 || ag.slot != 0 {
			t.Fatalf("slots: older %d, newer %d, agent %d; want the older's kept, none for the newer, the agent's given up",
				older.sc.slot, newer.sc.slot, ag.slot)
		}
		set(newer, 2, 22)
		if err := newer.Commit(CommitSync, nil); err != nil {
			t.Fatal(err)
		}
		set(older, 3, 33)
		h.flushAll(t)

		eng, tables := h.hardCrashAndRestart(t, "t", "u")
		ag2 := eng.NewAgent()
		defer ag2.Close()
		check := ag2.Begin()
		for k, want := range map[uint64]uint64{1: 0, 2: 22, 3: 0} {
			got, err := check.Read(tables["t"], k)
			if err != nil {
				t.Fatal(err)
			}
			if rowValue(got) != want {
				t.Errorf("key %d = %d, want %d", k, rowValue(got), want)
			}
		}
		if err := check.Commit(CommitSync, nil); err != nil {
			t.Fatal(err)
		}
	})
}

// TestCheckpointTailsBindEverySlot is the argument that a checkpoint
// needs no slot column, run against the engine. A slot is bound by its
// transaction's first record, and analysis meets no later record of a
// transaction it must track without reading that first record: every
// transaction sits in the engine's transaction table from Begin, so one
// that began before a checkpoint's table was read is named by it, and a
// named one makes analysis read the tails from their start; truncation
// never releases an active transaction's first record. Agents that run
// transactions across many truncating checkpoints and hand their slots
// on at every commit crash with some of them active; recovery must find
// exactly those as losers, and leave exactly the committed values.
func TestCheckpointTailsBindEverySlot(t *testing.T) {
	const (
		agents = 5
		keys   = 6 // per agent: no two agents' transactions share a lock
		steps  = 400
	)
	forEachLaneCount(t, func(t *testing.T, n int) {
		rng := rand.New(rand.NewSource(int64(n)))
		h := newHarnessN(t, n, harnessLogConfig)
		tt, tu := h.twoTables(t)
		table := func(k uint64) *Table {
			first, _ := startIn(k, tt, tu)
			return first
		}
		model := make(map[uint64]uint64)
		seed := h.eng.NewAgent()
		load := seed.Begin()
		for k := uint64(1); k <= agents*keys; k++ {
			if err := load.Insert(table(k), k, row(k, 1)); err != nil {
				t.Fatal(err)
			}
			model[k] = 1
		}
		if err := load.Commit(CommitSync, nil); err != nil {
			t.Fatal(err)
		}
		seed.Close()

		type open struct {
			tx      *Txn
			pending map[uint64]uint64
		}
		ags := make([]*Agent, agents)
		cur := make([]*open, agents)
		for i := range ags {
			ags[i] = h.eng.NewAgent()
		}
		checkpoints, named, truncated := 0, 0, false
		for step := 0; step < steps; step++ {
			if step%25 == 24 {
				h.eng.mu.Lock()
				named += min(len(h.eng.att), 1)
				h.eng.mu.Unlock()
				if err := h.eng.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				checkpoints++
				for _, d := range h.devs {
					truncated = truncated || d.Base() > 0
				}
			}
			i := rng.Intn(agents)
			o := cur[i]
			switch r := rng.Intn(10); {
			case o == nil:
				cur[i] = &open{tx: ags[i].Begin(), pending: make(map[uint64]uint64)}
			case r < 7:
				k := uint64(i*keys + 1 + rng.Intn(keys))
				v := uint64(step + 2)
				if err := o.tx.Update(table(k), k, setValue(v)); err != nil {
					t.Fatal(err)
				}
				o.pending[k] = v
			case r < 9:
				if err := o.tx.Commit(CommitSync, nil); err != nil {
					t.Fatal(err)
				}
				for k, v := range o.pending {
					model[k] = v
				}
				cur[i] = nil
			default:
				if err := o.tx.Abort(); err != nil {
					t.Fatal(err)
				}
				cur[i] = nil
			}
		}
		if checkpoints == 0 || named == 0 || !truncated {
			t.Fatalf("test invalid: %d checkpoints, %d naming a transaction, truncated %v", checkpoints, named, truncated)
		}
		var losers []uint64
		for _, o := range cur {
			if o != nil && o.tx.writes > 0 {
				losers = append(losers, o.tx.ID())
			}
		}
		sort.Slice(losers, func(i, j int) bool { return losers[i] < losers[j] })
		t.Logf("%d checkpoints, %d naming a transaction; %d losers at the crash", checkpoints, named, len(losers))
		h.flushAll(t)

		h.fs.PowerCut()
		h.eng.Multi().Close()
		h.powerCut(t)
		devs := make([]logdev.Device, len(h.devs))
		for i, d := range h.devs {
			devs[i] = d
		}
		eng, res, err := Restart(RestartConfig{Devices: devs, Archive: h.arch, LogConfig: harnessLogConfig, LockConfig: harnessLockConfig})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			eng.Close()
			eng.Multi().Close()
		})
		if fmt.Sprint(res.Losers) != fmt.Sprint(losers) {
			t.Fatalf("recovery's losers %v, want the transactions active at the crash %v", res.Losers, losers)
		}
		tables := make(map[string]*Table)
		for _, name := range []string{"t", "u"} {
			if tables[name], err = eng.CreateTable(name, nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.RebuildTables(); err != nil {
			t.Fatal(err)
		}
		ag := eng.NewAgent()
		defer ag.Close()
		check := ag.Begin()
		for k, want := range model {
			first, _ := startIn(k, tables["t"], tables["u"])
			got, err := check.Read(first, k)
			if err != nil {
				t.Fatalf("key %d: %v", k, err)
			}
			if rowValue(got) != want {
				t.Fatalf("key %d recovered %d, want %d", k, rowValue(got), want)
			}
		}
		if err := check.Commit(CommitSync, nil); err != nil {
			t.Fatal(err)
		}
	})
}
