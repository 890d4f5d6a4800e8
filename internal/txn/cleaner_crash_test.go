package txn

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aether/internal/core"
	"aether/internal/lockmgr"
	"aether/internal/logbuf"
	"aether/internal/logdev"
	"aether/internal/storage"
)

// gatedArchive wraps an Archive so a test can hold the background
// cleaner *inside* a batched writeback: the images are already in the
// archive, the pages are not yet marked clean — the exact window a
// crash must tolerate. Un-gated it is a transparent pass-through.
type gatedArchive struct {
	storage.Archive
	gated   atomic.Bool
	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

func newGatedArchive(a storage.Archive) *gatedArchive {
	return &gatedArchive{Archive: a, entered: make(chan struct{}), release: make(chan struct{})}
}

// WriteBatch forwards to the wrapped archive, then (once, when gated,
// for a batch of two pages or more) parks until released. Every
// write-back arrives here, but a demand steal writes one page — and runs
// on the test's own goroutine, which must not park — and this test runs
// no checkpoints, so the parked caller is the cleaner.
func (a *gatedArchive) WriteBatch(pids []uint64, fill func(i int, dst []byte) bool) error {
	if err := a.Archive.WriteBatch(pids, fill); err != nil {
		return err
	}
	if len(pids) >= 2 && a.gated.Load() {
		a.once.Do(func() {
			close(a.entered)
			<-a.release
		})
	}
	return nil
}

func restartCleaned(t *testing.T, dev *logdev.Segmented, arch storage.Archive, cachePages int64, cleanerPages int) (*Engine, int) {
	t.Helper()
	eng, res, err := Restart(RestartConfig{
		Device:  dev,
		Archive: arch,
		LogConfig: core.Config{
			Buffer: logbuf.Config{Variant: logbuf.VariantCD, Size: 1 << 20},
		},
		LockConfig:   lockmgr.Config{DeadlockTimeout: 300 * time.Millisecond, SLI: true},
		CachePages:   cachePages,
		CleanerPages: cleanerPages,
	})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	t.Cleanup(func() {
		eng.Close()
		eng.Log().Close()
	})
	return eng, res.RedoApplied
}

// TestCleanerCrashBeforeMarkClean crashes in the cleaner's most
// delicate window: a batch of dirty images has reached the database
// file, but the pages were never marked clean (and no checkpoint ever
// recorded any of it). Recovery must treat the newer archived images
// idempotently — redo skips records at or below each image's pageLSN —
// and reproduce every committed row exactly.
func TestCleanerCrashBeforeMarkClean(t *testing.T) {
	const cachePages = 4
	dev := logdev.NewMem(logdev.ProfileMemory)
	mem := storage.NewMemArchive()
	arch := newGatedArchive(mem)
	eng, _ := restartCleaned(t, dev, arch, cachePages, cachePages/2)

	tbl, err := eng.CreateTable("t", nil)
	if err != nil {
		t.Fatal(err)
	}
	ag := eng.NewAgent()
	const keys = 40
	for k := uint64(1); k <= keys; k++ {
		tx := ag.Begin()
		if err := tx.Insert(tbl, k, stealRow(k)); err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
		if err := tx.Commit(CommitSync, nil); err != nil {
			t.Fatal(err)
		}
	}

	// Arm the gate, then dirty pages until a cleaner batch parks inside
	// the archive write. Every update is committed (durable log) before
	// the crash.
	arch.gated.Store(true)
	updated := make(map[uint64]bool)
	k := uint64(1)
	for parked := false; !parked; k++ {
		if k > keys {
			k = 1
		}
		tx := ag.Begin()
		kk := k
		err := tx.Update(tbl, kk, func(r []byte) ([]byte, error) {
			return append(row(kk, kk*31), make([]byte, 1500)...), nil
		})
		if err != nil {
			t.Fatalf("update %d: %v", kk, err)
		}
		if err := tx.Commit(CommitSync, nil); err != nil {
			t.Fatal(err)
		}
		updated[kk] = true
		select {
		case <-arch.entered:
			parked = true
		default:
		}
	}
	ag.Close()
	if s := eng.Stats().Checkpoints.Load(); s != 0 {
		t.Fatalf("test invalid: %d checkpoints ran", s)
	}

	// Power loss NOW: cleaner wrote, never marked clean, never released.
	dev.CrashFreeze()
	close(arch.release) // let the parked goroutine drain so Close returns
	eng.Close()
	eng.Log().Close()
	dev.Remount()

	arch.gated.Store(false)
	eng2, _ := restartCleaned(t, dev, arch, cachePages, cachePages/2)
	tbl2, err := eng2.CreateTable("t", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng2.RebuildTables(); err != nil {
		t.Fatal(err)
	}
	ag2 := eng2.NewAgent()
	defer ag2.Close()
	check := ag2.Begin()
	for i := uint64(1); i <= keys; i++ {
		got, err := check.Read(tbl2, i)
		if err != nil {
			t.Fatalf("key %d lost after cleaner-window crash: %v", i, err)
		}
		want := i * 7
		if updated[i] {
			want = i * 31
		}
		if rowValue(got) != want {
			t.Fatalf("key %d: value %d, want %d", i, rowValue(got), want)
		}
	}
	if err := check.Commit(CommitSync, nil); err != nil {
		t.Fatal(err)
	}
}

// TestCleanerCrashRecoveryIdempotent soaks the cleaner under a steady
// write load and crashes mid-flight (no staging): whatever mix of
// cleaned, half-cleaned and dirty pages the crash caught, recovery must
// reproduce every committed value, within the same cache budget.
func TestCleanerCrashRecoveryIdempotent(t *testing.T) {
	const cachePages = 4
	dev := logdev.NewMem(logdev.ProfileMemory)
	arch := storage.NewMemArchive()
	eng, _ := restartCleaned(t, dev, arch, cachePages, cachePages/2)

	tbl, err := eng.CreateTable("t", nil)
	if err != nil {
		t.Fatal(err)
	}
	ag := eng.NewAgent()
	const keys = 60
	for k := uint64(1); k <= keys; k++ {
		tx := ag.Begin()
		if err := tx.Insert(tbl, k, stealRow(k)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(CommitSync, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Update rounds until the cleaner has demonstrably run.
	val := uint64(7)
	for round := 0; round < 50; round++ {
		val = uint64(100 + round)
		for k := uint64(1); k <= keys; k += 5 {
			tx := ag.Begin()
			kk := k
			err := tx.Update(tbl, kk, func(r []byte) ([]byte, error) {
				return append(row(kk, kk*val), make([]byte, 1500)...), nil
			})
			if err != nil {
				t.Fatalf("update %d: %v", kk, err)
			}
			if err := tx.Commit(CommitSync, nil); err != nil {
				t.Fatal(err)
			}
		}
		if eng.Store().CacheStats().CleanerWrites > 0 && round >= 3 {
			break
		}
	}
	ag.Close()
	if eng.Store().CacheStats().CleanerWrites == 0 {
		t.Skip("cleaner never ran under this scheduler; nothing to crash-test")
	}

	dev.CrashFreeze()
	eng.Close()
	eng.Log().Close()
	dev.Remount()

	eng2, _ := restartCleaned(t, dev, arch, cachePages, 0)
	tbl2, err := eng2.CreateTable("t", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng2.RebuildTables(); err != nil {
		t.Fatal(err)
	}
	ag2 := eng2.NewAgent()
	defer ag2.Close()
	check := ag2.Begin()
	for k := uint64(1); k <= keys; k++ {
		got, err := check.Read(tbl2, k)
		if err != nil {
			t.Fatalf("key %d: %v", k, err)
		}
		want := k * 7
		if k%5 == 1 {
			want = k * val
		}
		if rowValue(got) != want {
			t.Fatalf("key %d: value %d, want %d", k, rowValue(got), want)
		}
	}
	if err := check.Commit(CommitSync, nil); err != nil {
		t.Fatal(err)
	}
	if r := eng2.Store().CacheStats().Resident; r > cachePages {
		t.Fatalf("post-recovery resident %d exceeds budget %d", r, cachePages)
	}
}
