package txn

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"aether/internal/core"
	"aether/internal/lockmgr"
	"aether/internal/logbuf"
	"aether/internal/logdev"
	"aether/internal/storage"
	"aether/internal/vfs"
)

// row encodes a (key, value) pair per the DefaultKeyOf convention.
func row(key, value uint64) []byte {
	b := make([]byte, 16)
	binary.LittleEndian.PutUint64(b[0:8], key)
	binary.LittleEndian.PutUint64(b[8:16], value)
	return b
}

func rowValue(b []byte) uint64 { return binary.LittleEndian.Uint64(b[8:16]) }

// harness bundles an engine over log lanes and a database file on one
// in-memory filesystem, whose power the crash tests cut.
type harness struct {
	fs   *vfs.FaultFS
	devs []*logdev.Segmented
	arch *storage.PageFile
	eng  *Engine
}

var (
	harnessLogConfig  = core.Config{Buffer: logbuf.Config{Variant: logbuf.VariantCD, Size: 1 << 20}}
	harnessLockConfig = lockmgr.Config{DeadlockTimeout: 300 * time.Millisecond, SLI: true}
)

func newHarness(t *testing.T) *harness { return newHarnessN(t, 1, harnessLogConfig) }

// newHarnessN starts a fresh n-lane engine whose lanes all run lcfg.
func newHarnessN(t *testing.T, n int, lcfg core.Config) *harness {
	t.Helper()
	h := &harness{fs: vfs.NewFaultFS(1)}
	h.openFiles(t, n)
	h.start(t, lcfg)
	return h
}

// start brings the engine up over the harness's files, its lanes
// running lcfg.
func (h *harness) start(t *testing.T, lcfg core.Config) *Engine {
	t.Helper()
	devs := make([]logdev.Device, len(h.devs))
	for i, d := range h.devs {
		devs[i] = d
	}
	h.eng = startEngine(t, RestartConfig{Devices: devs, Archive: h.arch, LogConfig: lcfg})
	return h.eng
}

// startEngine brings an engine up through Restart with the tests' lock
// settings, and stops its workers and closes its log when the test ends.
func startEngine(t *testing.T, cfg RestartConfig) *Engine {
	t.Helper()
	cfg.LockConfig = harnessLockConfig
	eng, _, err := Restart(cfg)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	t.Cleanup(func() {
		eng.Close()
		eng.Multi().Close()
	})
	return eng
}

// memLog opens a log device with segSize segments on an in-memory
// filesystem of its own, returned for fault rules and power cuts.
func memLog(t *testing.T, segSize int64) (*logdev.Segmented, *vfs.FaultFS) {
	t.Helper()
	fs := vfs.NewFaultFS(1)
	dev, err := logdev.OpenSegmentedDirFS(fs, "/log", segSize)
	if err != nil {
		t.Fatal(err)
	}
	return dev, fs
}

// crashLog cuts the power under a memLog device and reopens it from
// what its filesystem kept.
func crashLog(t *testing.T, dev *logdev.Segmented, fs *vfs.FaultFS) *logdev.Segmented {
	t.Helper()
	fs.PowerCut()
	dev.Close()
	fs.Recover()
	dev, err := logdev.OpenSegmentedDirFS(fs, "/log", 0)
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

// newFiles opens one log lane and the database file on a fresh
// in-memory filesystem, for tests that restart an engine over them with
// settings of their own.
func newFiles(t *testing.T) *harness {
	t.Helper()
	h := &harness{fs: vfs.NewFaultFS(1)}
	h.openFiles(t, 1)
	return h
}

// openFiles opens n log lanes and the database file on h.fs: new ones,
// or what a power cut left of the last ones.
func (h *harness) openFiles(t *testing.T, n int) {
	t.Helper()
	h.devs = nil
	for i := 0; i < n; i++ {
		dev, err := logdev.OpenSegmentedDirFS(h.fs, logdev.LaneDir("/db", i, n), logdev.DefaultSegmentSize)
		if err != nil {
			t.Fatal(err)
		}
		h.devs = append(h.devs, dev)
	}
	arch, err := storage.OpenPageFileFS(h.fs, "/db/pagefile.db")
	if err != nil {
		t.Fatal(err)
	}
	h.arch = arch
}

// powerCut cuts the power under every lane and the database file at
// once, each log at its own durable watermark, and brings the machine
// back up: the old handles die with the cut, and the files reopen from
// what the filesystem kept.
func (h *harness) powerCut(t *testing.T) {
	t.Helper()
	h.fs.PowerCut()
	for _, d := range h.devs {
		d.Close()
	}
	h.arch.Close()
	h.fs.Recover()
	h.openFiles(t, len(h.devs))
}

// forEachLaneCount runs fn as a subtest over one log lane and over
// three (default space routing: tables in different spaces home their
// transactions on different lanes).
func forEachLaneCount(t *testing.T, fn func(t *testing.T, n int)) {
	for _, n := range []int{1, 3} {
		t.Run(fmt.Sprintf("N=%d", n), func(t *testing.T) { fn(t, n) })
	}
}

func TestCommitAndReadBack(t *testing.T) {
	h := newHarness(t)
	tbl, err := h.eng.CreateTable("accounts", nil)
	if err != nil {
		t.Fatal(err)
	}
	ag := h.eng.NewAgent()
	defer ag.Close()

	tx := ag.Begin()
	for k := uint64(1); k <= 10; k++ {
		if err := tx.Insert(tbl, k, row(k, k*100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(CommitSync, nil); err != nil {
		t.Fatal(err)
	}

	tx2 := ag.Begin()
	for k := uint64(1); k <= 10; k++ {
		got, err := tx2.Read(tbl, k)
		if err != nil {
			t.Fatal(err)
		}
		if rowValue(got) != k*100 {
			t.Fatalf("key %d: value %d", k, rowValue(got))
		}
	}
	if err := tx2.Commit(CommitSync, nil); err != nil {
		t.Fatal(err)
	}
	if h.eng.Stats().Commits.Load() != 2 || h.eng.Stats().ReadOnly.Load() != 1 {
		t.Fatalf("stats: %d commits, %d read-only",
			h.eng.Stats().Commits.Load(), h.eng.Stats().ReadOnly.Load())
	}
}

func TestDuplicateAndMissingKeys(t *testing.T) {
	h := newHarness(t)
	tbl, _ := h.eng.CreateTable("t", nil)
	ag := h.eng.NewAgent()
	defer ag.Close()

	tx := ag.Begin()
	if err := tx.Insert(tbl, 1, row(1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert(tbl, 1, row(1, 2)); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("dup insert: %v", err)
	}
	if _, err := tx.Read(tbl, 99); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("missing read: %v", err)
	}
	if err := tx.Update(tbl, 99, nil); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("missing update: %v", err)
	}
	if err := tx.Delete(tbl, 99); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("missing delete: %v", err)
	}
	tx.Commit(CommitSync, nil)
}

func TestUpdateAndDelete(t *testing.T) {
	h := newHarness(t)
	tbl, _ := h.eng.CreateTable("t", nil)
	ag := h.eng.NewAgent()
	defer ag.Close()

	tx := ag.Begin()
	tx.Insert(tbl, 7, row(7, 70))
	tx.Commit(CommitSync, nil)

	tx = ag.Begin()
	err := tx.Update(tbl, 7, func(r []byte) ([]byte, error) {
		return row(7, rowValue(r)+5), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	tx.Commit(CommitSync, nil)

	tx = ag.Begin()
	got, _ := tx.Read(tbl, 7)
	if rowValue(got) != 75 {
		t.Fatalf("value %d", rowValue(got))
	}
	if err := tx.Delete(tbl, 7); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Read(tbl, 7); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("read own delete: %v", err)
	}
	tx.Commit(CommitSync, nil)
}

func TestAbortRollsBack(t *testing.T) {
	h := newHarness(t)
	tbl, _ := h.eng.CreateTable("t", nil)
	ag := h.eng.NewAgent()
	defer ag.Close()

	seed := ag.Begin()
	seed.Insert(tbl, 1, row(1, 100))
	seed.Insert(tbl, 2, row(2, 200))
	seed.Commit(CommitSync, nil)

	tx := ag.Begin()
	tx.Update(tbl, 1, func(r []byte) ([]byte, error) { return row(1, 999), nil })
	tx.Delete(tbl, 2)
	tx.Insert(tbl, 3, row(3, 300))
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}

	check := ag.Begin()
	got, err := check.Read(tbl, 1)
	if err != nil || rowValue(got) != 100 {
		t.Fatalf("update not rolled back: %d %v", rowValue(got), err)
	}
	got, err = check.Read(tbl, 2)
	if err != nil || rowValue(got) != 200 {
		t.Fatalf("delete not rolled back: %v", err)
	}
	if _, err := check.Read(tbl, 3); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("insert not rolled back: %v", err)
	}
	check.Commit(CommitSync, nil)
	if h.eng.Stats().Aborts.Load() != 1 {
		t.Fatalf("aborts: %d", h.eng.Stats().Aborts.Load())
	}
}

func TestAbortAfterPrecommitForbidden(t *testing.T) {
	h := newHarness(t)
	tbl, _ := h.eng.CreateTable("t", nil)
	ag := h.eng.NewAgent()
	defer ag.Close()
	tx := ag.Begin()
	tx.Insert(tbl, 1, row(1, 1))
	done := make(chan error, 1)
	if err := tx.Commit(CommitPipelined, func(err error) { done <- err }); err != nil {
		t.Fatal(err)
	}
	// The transaction is precommitted (maybe even durable): abort must
	// be rejected (ELR condition 2).
	if err := tx.Abort(); !errors.Is(err, ErrPrecommitted) && !errors.Is(err, ErrTxnDone) {
		t.Fatalf("abort after precommit: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestOperationsOnFinishedTxn(t *testing.T) {
	h := newHarness(t)
	tbl, _ := h.eng.CreateTable("t", nil)
	ag := h.eng.NewAgent()
	defer ag.Close()
	tx := ag.Begin()
	tx.Insert(tbl, 1, row(1, 1))
	tx.Commit(CommitSync, nil)
	if err := tx.Insert(tbl, 2, row(2, 2)); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("insert after commit: %v", err)
	}
	if err := tx.Commit(CommitSync, nil); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("double commit: %v", err)
	}
	if err := tx.Abort(); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("abort after commit: %v", err)
	}
}

func TestAllCommitModes(t *testing.T) {
	modes := []CommitMode{
		CommitSync, CommitSyncELR, CommitAsync,
		CommitPipelined, CommitPipelinedHoldLocks,
	}
	for _, mode := range modes {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			h := newHarness(t)
			tbl, _ := h.eng.CreateTable("t", nil)
			ag := h.eng.NewAgent()
			defer ag.Close()

			var wg sync.WaitGroup
			for k := uint64(1); k <= 20; k++ {
				tx := ag.Begin()
				if err := tx.Insert(tbl, k, row(k, k)); err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				if err := tx.Commit(mode, func(err error) {
					if err != nil {
						t.Errorf("commit callback: %v", err)
					}
					wg.Done()
				}); err != nil {
					t.Fatal(err)
				}
			}
			wg.Wait()
			check := ag.Begin()
			for k := uint64(1); k <= 20; k++ {
				if _, err := check.Read(tbl, k); err != nil {
					t.Fatalf("mode %v key %d: %v", mode, k, err)
				}
			}
			check.Commit(CommitSync, nil)
		})
	}
}

// TestTransferInvariant runs concurrent balance transfers under every
// safe commit mode and checks that money is conserved — the classic
// atomicity + isolation test.
func TestTransferInvariant(t *testing.T) {
	modes := []CommitMode{CommitSync, CommitSyncELR, CommitPipelined}
	for _, mode := range modes {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			t.Parallel()
			h := newHarness(t)
			tbl, _ := h.eng.CreateTable("bank", nil)
			const accounts = 20
			const initial = 1000
			seedAg := h.eng.NewAgent()
			seed := seedAg.Begin()
			for k := uint64(1); k <= accounts; k++ {
				seed.Insert(tbl, k, row(k, initial))
			}
			if err := seed.Commit(CommitSync, nil); err != nil {
				t.Fatal(err)
			}
			seedAg.Close()

			const workers = 8
			const perW = 60
			var wg sync.WaitGroup
			var done sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					ag := h.eng.NewAgent()
					defer ag.Close()
					rng := uint64(w)*2654435761 + 1
					for i := 0; i < perW; i++ {
						rng = rng*6364136223846793005 + 1442695040888963407
						from := rng%accounts + 1
						to := (rng>>16)%accounts + 1
						if from == to {
							continue
						}
						tx := ag.Begin()
						err := tx.Update(tbl, from, func(r []byte) ([]byte, error) {
							return row(from, rowValue(r)-10), nil
						})
						if err == nil {
							err = tx.Update(tbl, to, func(r []byte) ([]byte, error) {
								return row(to, rowValue(r)+10), nil
							})
						}
						if err != nil {
							// Deadlock timeout: abort and move on.
							if aerr := tx.Abort(); aerr != nil {
								t.Errorf("abort: %v", aerr)
							}
							continue
						}
						done.Add(1)
						if err := tx.Commit(mode, func(error) { done.Done() }); err != nil {
							t.Errorf("commit: %v", err)
						}
					}
				}(w)
			}
			wg.Wait()
			done.Wait()

			check := h.eng.NewAgent()
			defer check.Close()
			tx := check.Begin()
			var sum uint64
			for k := uint64(1); k <= accounts; k++ {
				r, err := tx.Read(tbl, k)
				if err != nil {
					t.Fatal(err)
				}
				sum += rowValue(r)
			}
			tx.Commit(CommitSync, nil)
			if sum != accounts*initial {
				t.Fatalf("money not conserved: sum=%d want %d", sum, accounts*initial)
			}
		})
	}
}

func TestCheckpointRuns(t *testing.T) {
	h := newHarness(t)
	tbl, _ := h.eng.CreateTable("t", nil)
	ag := h.eng.NewAgent()
	defer ag.Close()
	tx := ag.Begin()
	for k := uint64(1); k <= 50; k++ {
		tx.Insert(tbl, k, row(k, k))
	}
	tx.Commit(CommitSync, nil)
	if err := h.eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// The archive received the dirty pages and the DPT drained.
	if pages, err := h.arch.Pages(); err != nil || len(pages) == 0 {
		t.Fatalf("checkpoint archived nothing (%v)", err)
	}
	if len(h.eng.Store().DirtyPages()) != 0 {
		t.Fatal("DPT not drained by checkpoint")
	}
	if h.eng.Stats().Checkpoints.Load() != 1 {
		t.Fatal("checkpoint not counted")
	}
}

// TestCheckpointTruncatesInMemoryLog: an in-memory log is the same
// segmented device a file-backed one is, so a checkpoint advances its
// truncation horizon and recycles the whole segments behind it — the
// figure rigs' and in-memory databases' logs stay bounded too — and a
// crash recovers from the horizon.
func TestCheckpointTruncatesInMemoryLog(t *testing.T) {
	h := newHarness(t)
	dev := h.devs[0]
	tbl, err := h.eng.CreateTable("t", nil)
	if err != nil {
		t.Fatal(err)
	}
	ag := h.eng.NewAgent()
	defer ag.Close()
	wide := func(v uint64) []byte { return append(row(1, v), bytes.Repeat([]byte{byte(v)}, 4000)...) }
	tx := ag.Begin()
	if err := tx.Insert(tbl, 1, wide(0)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(CommitSync, nil); err != nil {
		t.Fatal(err)
	}
	if err := h.eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	first := dev.Base()
	if first == 0 {
		t.Fatal("checkpoint left the truncation base at 0")
	}
	// Every update rewrites the row's 4000 fill bytes, so each logs about
	// 8 KB: enough of them fill the first segment.
	v := uint64(0)
	for dev.DurableSize() <= logdev.DefaultSegmentSize {
		tx := ag.Begin()
		for i := 0; i < 64; i++ {
			v++
			if err := tx.Update(tbl, 1, func([]byte) ([]byte, error) { return wide(v), nil }); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(CommitSync, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if base := dev.Base(); base <= logdev.DefaultSegmentSize {
		t.Fatalf("second checkpoint moved the base from %d to %d, want past the first segment", first, base)
	}
	if segs, _ := dev.TruncStats(); segs < 1 {
		t.Fatal("no segment recycled behind the horizon")
	}
	eng, tables := h.hardCrashAndRestart(t, "t")
	ag2 := eng.NewAgent()
	defer ag2.Close()
	check := ag2.Begin()
	got, err := check.Read(tables["t"], 1)
	if err != nil || !bytes.Equal(got, wide(v)) {
		t.Fatalf("after the crash key 1 = %d bytes (%v), want the last update", len(got), err)
	}
	check.Commit(CommitSync, nil)
}

func TestCommitModeString(t *testing.T) {
	if CommitPipelined.String() != "pipelined" || CommitMode(99).String() != "mode(99)" {
		t.Fatal("mode names wrong")
	}
}
