package txn

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"aether/internal/core"
	"aether/internal/lockmgr"
	"aether/internal/logbuf"
	"aether/internal/logdev"
	"aether/internal/storage"
)

// restartHarness crashes the device and brings the engine back up.
func (h *harness) crashAndRestart(t *testing.T, tables ...string) (*Engine, map[string]*Table) {
	t.Helper()
	h.eng.Log().Close() // stop the daemon; Close may flush already-released bytes
	h.dev.Crash()       // drop everything unsynced

	eng, _, err := Restart(RestartConfig{
		Device:  h.dev,
		Archive: h.arch,
		LogConfig: core.Config{
			Buffer: logbuf.Config{Variant: logbuf.VariantCD, Size: 1 << 20},
		},
		LockConfig: lockmgr.Config{DeadlockTimeout: 300 * time.Millisecond, SLI: true},
	})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
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
	h.eng = eng
	t.Cleanup(func() { eng.Log().Close() })
	return eng, out
}

// hardCrashAndRestart drops unsynced bytes WITHOUT closing the log first
// (Close would drain the buffer — a graceful shutdown, not a crash).
func (h *harness) hardCrashAndRestart(t *testing.T, tables ...string) (*Engine, map[string]*Table) {
	t.Helper()
	// Freeze the device at the crash point: the dying daemon's further
	// writes fail instead of extending the durable log.
	h.dev.CrashFreeze()
	h.eng.Log().Close() // may report the injected crash error; that's the point
	h.dev.Remount()

	eng, _, err := Restart(RestartConfig{
		Device:  h.dev,
		Archive: h.arch,
		LogConfig: core.Config{
			Buffer: logbuf.Config{Variant: logbuf.VariantCD, Size: 1 << 20},
		},
		LockConfig: lockmgr.Config{DeadlockTimeout: 300 * time.Millisecond, SLI: true},
	})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
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
	h.eng = eng
	t.Cleanup(func() { eng.Log().Close() })
	return eng, out
}

func TestCrashRecoveryCommittedSurvives(t *testing.T) {
	h := newHarness(t)
	tbl, _ := h.eng.CreateTable("t", nil)
	ag := h.eng.NewAgent()

	tx := ag.Begin()
	for k := uint64(1); k <= 25; k++ {
		if err := tx.Insert(tbl, k, row(k, k*7)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(CommitSync, nil); err != nil {
		t.Fatal(err)
	}
	ag.Close()

	eng, tables := h.crashAndRestart(t, "t")
	ag2 := eng.NewAgent()
	defer ag2.Close()
	check := ag2.Begin()
	for k := uint64(1); k <= 25; k++ {
		got, err := check.Read(tables["t"], k)
		if err != nil {
			t.Fatalf("key %d lost: %v", k, err)
		}
		if rowValue(got) != k*7 {
			t.Fatalf("key %d: value %d", k, rowValue(got))
		}
	}
	check.Commit(CommitSync, nil)
}

func TestCrashRecoveryUncommittedRolledBack(t *testing.T) {
	h := newHarness(t)
	tbl, _ := h.eng.CreateTable("t", nil)
	ag := h.eng.NewAgent()

	committed := ag.Begin()
	committed.Insert(tbl, 1, row(1, 100))
	if err := committed.Commit(CommitSync, nil); err != nil {
		t.Fatal(err)
	}

	// A transaction that updates and inserts, then the system crashes
	// with the commit record unwritten. Force its updates to the durable
	// log (so redo replays them and undo must compensate).
	loser := ag.Begin()
	loser.Update(tbl, 1, func(r []byte) ([]byte, error) { return row(1, 666), nil })
	loser.Insert(tbl, 2, row(2, 200))
	h.eng.Log().Flush()
	time.Sleep(20 * time.Millisecond) // let the daemon sync the updates

	eng, tables := h.hardCrashAndRestart(t, "t")
	ag2 := eng.NewAgent()
	defer ag2.Close()
	check := ag2.Begin()
	got, err := check.Read(tables["t"], 1)
	if err != nil {
		t.Fatal(err)
	}
	if rowValue(got) != 100 {
		t.Fatalf("loser's update survived: %d", rowValue(got))
	}
	if _, err := check.Read(tables["t"], 2); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("loser's insert survived: %v", err)
	}
	check.Commit(CommitSync, nil)
}

// TestRestartDoesNotReuseTxnIDs: recovery's analysis keys its
// transaction table by ID, and the log of earlier incarnations stays in
// the scanned tail until a checkpoint truncates it. If a restarted
// engine handed out IDs from 1 again, a loser of the second crash would
// share its ID with a transaction whose commit record is still in the
// tail, inherit the "committed" verdict, and never be rolled back.
func TestRestartDoesNotReuseTxnIDs(t *testing.T) {
	h := newHarness(t)
	tbl, _ := h.eng.CreateTable("t", nil)
	ag := h.eng.NewAgent()
	first := ag.Begin()
	first.Insert(tbl, 1, row(1, 100))
	if err := first.Commit(CommitSync, nil); err != nil {
		t.Fatal(err)
	}

	eng, tables := h.hardCrashAndRestart(t, "t")
	ag2 := eng.NewAgent()
	loser := ag2.Begin()
	if loser.ID() <= first.ID() {
		t.Fatalf("restarted engine reused txn ID %d (the first incarnation reached %d)", loser.ID(), first.ID())
	}
	// The second incarnation's first transaction updates durably and
	// crashes uncommitted; with ID reuse it would have been txn
	// first.ID() again, and survived.
	loser.Update(tables["t"], 1, func([]byte) ([]byte, error) { return row(1, 666), nil })
	if err := eng.Log().WaitDurable(eng.Log().AppendEnd()); err != nil {
		t.Fatal(err)
	}

	eng, tables = h.hardCrashAndRestart(t, "t")
	ag3 := eng.NewAgent()
	defer ag3.Close()
	check := ag3.Begin()
	got, err := check.Read(tables["t"], 1)
	if err != nil {
		t.Fatal(err)
	}
	if rowValue(got) != 100 {
		t.Fatalf("uncommitted update survived the second crash: %d", rowValue(got))
	}
	check.Commit(CommitSync, nil)
}

func TestCrashRecoveryAsyncCommitLosesTail(t *testing.T) {
	// The unsafety the paper highlights: async commit reports success
	// before durability, so a crash can lose "committed" work.
	dev := logdev.NewMem(logdev.ProfileMemory)
	arch := storage.NewMemArchive()
	lm, err := core.New(core.Config{
		Buffer:        logbuf.Config{Variant: logbuf.VariantCD, Size: 1 << 20},
		Device:        dev,
		FlushInterval: time.Hour, // no timer flush: tail stays volatile
		FlushTxns:     1 << 30,
		FlushBytes:    1 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, _ := NewEngine(Config{
		Log:     lm,
		Locks:   lockmgr.New(lockmgr.Config{}),
		Store:   storage.NewStore(),
		Archive: arch,
	})
	tbl, _ := eng.CreateTable("t", nil)
	ag := eng.NewAgent()
	tx := ag.Begin()
	tx.Insert(tbl, 1, row(1, 1))
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
	dev.Crash()
	h := &harness{dev: dev, arch: arch, eng: eng}
	eng2, tables := h.hardCrashAndRestart(t, "t")
	ag2 := eng2.NewAgent()
	defer ag2.Close()
	check := ag2.Begin()
	if _, err := check.Read(tables["t"], 1); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("async-committed row should be lost, got %v", err)
	}
	check.Commit(CommitSync, nil)
}

func TestCrashRecoveryPipelinedAckIsDurable(t *testing.T) {
	// The safety property flush pipelining preserves: a transaction is
	// acknowledged only after its commit record is durable, so every
	// acked transaction survives any crash.
	h := newHarness(t)
	tbl, _ := h.eng.CreateTable("t", nil)
	ag := h.eng.NewAgent()

	const n = 100
	var mu sync.Mutex
	acked := make(map[uint64]bool)
	var wg sync.WaitGroup
	for k := uint64(1); k <= n; k++ {
		tx := ag.Begin()
		if err := tx.Insert(tbl, k, row(k, k)); err != nil {
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

	eng, tables := h.hardCrashAndRestart(t, "t")
	ag2 := eng.NewAgent()
	defer ag2.Close()
	check := ag2.Begin()
	for k := uint64(1); k <= n; k++ {
		if !acked[k] {
			continue
		}
		if _, err := check.Read(tables["t"], k); err != nil {
			t.Fatalf("acked transaction %d lost: %v", k, err)
		}
	}
	check.Commit(CommitSync, nil)
}

func TestCrashRecoveryWithCheckpointAndArchive(t *testing.T) {
	h := newHarness(t)
	tbl, _ := h.eng.CreateTable("t", nil)
	ag := h.eng.NewAgent()

	tx := ag.Begin()
	for k := uint64(1); k <= 40; k++ {
		tx.Insert(tbl, k, row(k, k))
	}
	tx.Commit(CommitSync, nil)

	if err := h.eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// Post-checkpoint work: updates that exist only in the log.
	tx = ag.Begin()
	for k := uint64(1); k <= 40; k += 2 {
		tx.Update(tbl, k, func(r []byte) ([]byte, error) { return row(k, k*1000), nil })
	}
	tx.Commit(CommitSync, nil)
	ag.Close()

	eng, tables := h.crashAndRestart(t, "t")
	ag2 := eng.NewAgent()
	defer ag2.Close()
	check := ag2.Begin()
	for k := uint64(1); k <= 40; k++ {
		got, err := check.Read(tables["t"], k)
		if err != nil {
			t.Fatalf("key %d: %v", k, err)
		}
		want := k
		if k%2 == 1 {
			want = k * 1000
		}
		if rowValue(got) != want {
			t.Fatalf("key %d: got %d want %d", k, rowValue(got), want)
		}
	}
	check.Commit(CommitSync, nil)
}

func TestCrashRecoveryAbortedTxnStaysAborted(t *testing.T) {
	h := newHarness(t)
	tbl, _ := h.eng.CreateTable("t", nil)
	ag := h.eng.NewAgent()

	seed := ag.Begin()
	seed.Insert(tbl, 1, row(1, 100))
	seed.Commit(CommitSync, nil)

	tx := ag.Begin()
	tx.Update(tbl, 1, func(r []byte) ([]byte, error) { return row(1, 999), nil })
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	// Make sure the abort + CLRs are durable, then crash.
	h.eng.Log().Flush()
	time.Sleep(20 * time.Millisecond)
	ag.Close()

	eng, tables := h.hardCrashAndRestart(t, "t")
	ag2 := eng.NewAgent()
	defer ag2.Close()
	check := ag2.Begin()
	got, err := check.Read(tables["t"], 1)
	if err != nil || rowValue(got) != 100 {
		t.Fatalf("aborted value resurrected: %d %v", rowValue(got), err)
	}
	check.Commit(CommitSync, nil)
}

func TestDoubleCrashRecovery(t *testing.T) {
	// Recovery must itself be recoverable: crash again right after a
	// recovery pass (its CLRs flushed) and recover once more.
	h := newHarness(t)
	tbl, _ := h.eng.CreateTable("t", nil)
	ag := h.eng.NewAgent()

	seed := ag.Begin()
	seed.Insert(tbl, 1, row(1, 100))
	seed.Commit(CommitSync, nil)

	loser := ag.Begin()
	loser.Update(tbl, 1, func(r []byte) ([]byte, error) { return row(1, 666), nil })
	h.eng.Log().Flush()
	time.Sleep(20 * time.Millisecond)

	// First crash + recovery (undo logs CLRs).
	eng, _ := h.hardCrashAndRestart(t, "t")
	h.eng = eng

	// Immediately crash again without any new work.
	eng2, tables := h.hardCrashAndRestart(t, "t")
	ag2 := eng2.NewAgent()
	defer ag2.Close()
	check := ag2.Begin()
	got, err := check.Read(tables["t"], 1)
	if err != nil || rowValue(got) != 100 {
		t.Fatalf("after double crash: %d %v", rowValue(got), err)
	}
	check.Commit(CommitSync, nil)
}

// TestCrashRecoveryRandomized is the property test: random committed and
// in-flight transactions, a crash at a random durability horizon, and
// the recovered state must equal the replay of exactly the transactions
// whose commit records made it to the durable log.
func TestCrashRecoveryRandomized(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test: 8 randomized crash/recovery rounds; run without -short")
	}
	for round := 0; round < 8; round++ {
		round := round
		t.Run("", func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(round)*7919 + 13))
			h := newHarness(t)
			tbl, _ := h.eng.CreateTable("t", nil)
			ag := h.eng.NewAgent()

			const keys = 30
			// Seed and checkpoint sometimes (exercises archive path).
			seed := ag.Begin()
			for k := uint64(1); k <= keys; k++ {
				seed.Insert(tbl, k, row(k, 1000))
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
					err := tx.Update(tbl, k, func(r []byte) ([]byte, error) {
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
					// abandon the agent and use a new one.
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

			eng, tables := h.hardCrashAndRestart(t, "t")
			ag2 := eng.NewAgent()
			defer ag2.Close()
			check := ag2.Begin()
			for k := uint64(1); k <= keys; k++ {
				got, err := check.Read(tables["t"], k)
				if err != nil {
					t.Fatalf("key %d: %v", k, err)
				}
				if rowValue(got) != model[k] {
					t.Fatalf("key %d: recovered %d, model %d", k, rowValue(got), model[k])
				}
			}
			check.Commit(CommitSync, nil)
		})
	}
}
