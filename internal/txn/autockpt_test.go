package txn

import (
	"path/filepath"
	"testing"
	"time"

	"aether/internal/core"
	"aether/internal/lockmgr"
	"aether/internal/logbuf"
	"aether/internal/logdev"
	"aether/internal/storage"
)

// newAutoHarness builds an engine on a segmented memory log with the
// background incremental checkpointer armed and a real PageFile archive.
func newAutoHarness(t *testing.T, everyBytes int64) (*Engine, *logdev.Segmented, *storage.PageFile) {
	t.Helper()
	dev, _ := memLog(t, 16<<10)
	pf, err := storage.OpenPageFile(filepath.Join(t.TempDir(), "pagefile.db"))
	if err != nil {
		t.Fatal(err)
	}
	lm, err := core.New(core.Config{
		Buffer: logbuf.Config{Variant: logbuf.VariantCD, Size: 1 << 21},
		Device: dev,
	})
	if err != nil {
		t.Fatal(err)
	}
	ml, err := core.NewMultiLog([]*core.LogManager{lm}, 0)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(Config{
		Log:                  ml,
		Locks:                lockmgr.New(lockmgr.Config{DeadlockTimeout: 300 * time.Millisecond, SLI: true}),
		Store:                storage.NewStore(),
		Archive:              pf,
		CheckpointEveryBytes: everyBytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		eng.Close()
		eng.Log().Close()
		pf.Close()
	})
	return eng, dev, pf
}

// TestAutoCheckpointAdvancesHorizon: with the background checkpointer
// armed, a sustained commit stream alone — no Checkpoint() calls — must
// produce checkpoints, sweeps and an advancing truncation base.
func TestAutoCheckpointAdvancesHorizon(t *testing.T) {
	eng, dev, _ := newAutoHarness(t, 32<<10)
	tbl, err := eng.CreateTable("t", nil)
	if err != nil {
		t.Fatal(err)
	}
	ag := eng.NewAgent()
	defer ag.Close()

	deadline := time.Now().Add(10 * time.Second)
	var k uint64
	for dev.Base() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("truncation base never advanced: %d auto checkpoints, base %d",
				eng.Stats().AutoCheckpoints.Load(), dev.Base())
		}
		k++
		tx := ag.Begin()
		if err := tx.Insert(tbl, k, row(k, k)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(CommitSync, nil); err != nil {
			t.Fatal(err)
		}
	}
	// The checkpointer counts its checkpoint after Checkpoint returns, and
	// the truncation the loop just saw happens inside it.
	for eng.Stats().AutoCheckpoints.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("horizon advanced without an auto checkpoint")
		}
		time.Sleep(time.Millisecond)
	}
	if eng.Stats().Checkpoints.Load() == 0 {
		t.Fatal("auto checkpoints not counted as checkpoints")
	}
	// The sweep counters observed the page-cleaning work.
	if eng.Stats().SweepPages.Load() == 0 || eng.Stats().SweepFsyncs.Load() == 0 {
		t.Fatalf("sweep counters empty: pages=%d fsyncs=%d",
			eng.Stats().SweepPages.Load(), eng.Stats().SweepFsyncs.Load())
	}
	// Close is idempotent and leaves the engine quiet.
	eng.Close()
	eng.Close()
}

// TestCheckpointSweepFsyncsO1 asserts the acceptance property at the engine
// level: one checkpoint sweeping ≥ 1000 dirty pages charges O(1) fsyncs
// to the sweep-fsync counter.
func TestCheckpointSweepFsyncsO1(t *testing.T) {
	eng, _, _ := newAutoHarness(t, 0) // no background checkpointer: one inline sweep
	const pages = 1000
	st := eng.Store()
	for i := 1; i <= pages; i++ {
		p, _ := st.GetOrCreate(storage.MakePageID(1, uint64(i)))
		p.SetLSN(1)
		st.MarkDirty(p.ID(), 1)
		p.Unpin()
	}
	if err := eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s := eng.Stats()
	if s.SweepPages.Load() != pages {
		t.Fatalf("sweep wrote %d pages, want %d", s.SweepPages.Load(), pages)
	}
	if got := s.SweepFsyncs.Load(); got > 2 {
		t.Fatalf("sweep of %d pages charged %d fsyncs, want ≤ 2 (O(1))", pages, got)
	}
	if s.Sweeps.Load() != 1 || s.SweepDuration.Count() != 1 {
		t.Fatalf("sweep counters: sweeps=%d durations=%d", s.Sweeps.Load(), s.SweepDuration.Count())
	}
}
