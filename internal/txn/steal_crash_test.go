package txn

import (
	"fmt"
	"testing"
	"time"

	"aether/internal/core"
	"aether/internal/lockmgr"
	"aether/internal/logbuf"
	"aether/internal/logdev"
	"aether/internal/storage"
)

// stealRow builds a row fat enough that a handful fill a page, so small
// insert counts span many pages and a tiny cache budget forces steals.
func stealRow(k uint64) []byte {
	return append(row(k, k*7), make([]byte, 1500)...)
}

func restartBounded(t *testing.T, dev *logdev.Segmented, arch storage.Archive, cachePages int64) (*Engine, int) {
	t.Helper()
	eng, res, err := Restart(RestartConfig{
		Device:  dev,
		Archive: arch,
		LogConfig: core.Config{
			Buffer: logbuf.Config{Variant: logbuf.VariantCD, Size: 1 << 20},
		},
		LockConfig: lockmgr.Config{DeadlockTimeout: 300 * time.Millisecond, SLI: true},
		CachePages: cachePages,
	})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	t.Cleanup(func() { eng.Log().Close() })
	return eng, res.RedoApplied
}

// TestStealCrashRecovery is the buffer pool's crash contract: a dirty
// page evicted under memory pressure (steal write-back, log forced
// first) reaches the database file with NO checkpoint having run; a
// crash before the next checkpoint must serve the stolen image from the
// archive and redo only the log tail above its pageLSN.
func TestStealCrashRecovery(t *testing.T) {
	const cachePages = 4
	dev := logdev.NewMem(logdev.ProfileMemory)
	arch := storage.NewMemArchive()
	eng, _ := restartBounded(t, dev, arch, cachePages)

	tbl, err := eng.CreateTable("t", nil)
	if err != nil {
		t.Fatal(err)
	}
	ag := eng.NewAgent()
	const keys = 100 // ≈ 20 pages at ~5 rows/page: 5× the budget
	for k := uint64(1); k <= keys; k++ {
		tx := ag.Begin()
		if err := tx.Insert(tbl, k, stealRow(k)); err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
		if err := tx.Commit(CommitSync, nil); err != nil {
			t.Fatalf("commit %d: %v", k, err)
		}
	}
	ag.Close()

	// Memory pressure alone must have stolen dirty pages to the archive
	// — deliberately, no Checkpoint call anywhere in this test.
	cs := eng.Store().CacheStats()
	if cs.StealWrites == 0 || cs.Evictions == 0 {
		t.Fatalf("no steal pressure: %+v", cs)
	}
	if int64(len(eng.Store().PageIDs())) > cachePages {
		t.Fatalf("resident %d pages, budget %d", len(eng.Store().PageIDs()), cachePages)
	}
	stolen, err := arch.Pages()
	if err != nil || len(stolen) == 0 {
		t.Fatalf("no stolen images in the archive: %v", err)
	}
	if s := eng.Stats().Checkpoints.Load(); s != 0 {
		t.Fatalf("test invalid: %d checkpoints ran", s)
	}

	// Crash without a graceful shutdown.
	dev.CrashFreeze()
	eng.Log().Close()
	dev.Remount()

	eng2, redo := restartBounded(t, dev, arch, cachePages)
	// Redo must skip the updates already captured by the stolen images:
	// strictly fewer records than the keys inserts that are all in the
	// durable log (CommitSync), but more than zero (pages still resident
	// at the crash were never archived).
	if redo >= keys {
		t.Fatalf("redo reapplied %d records — stolen images were not used to clamp redo", redo)
	}
	if redo == 0 {
		t.Fatalf("redo applied nothing; expected the un-stolen tail")
	}

	tbl2, err := eng2.CreateTable("t", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng2.RebuildTables(); err != nil {
		t.Fatal(err)
	}
	// Recovery is exact: every committed row readable with its value,
	// within the same cache budget.
	ag2 := eng2.NewAgent()
	defer ag2.Close()
	check := ag2.Begin()
	for k := uint64(1); k <= keys; k++ {
		got, err := check.Read(tbl2, k)
		if err != nil {
			t.Fatalf("key %d lost after steal+crash: %v", k, err)
		}
		if rowValue(got) != k*7 {
			t.Fatalf("key %d: value %d, want %d", k, rowValue(got), k*7)
		}
	}
	if err := check.Commit(CommitSync, nil); err != nil {
		t.Fatal(err)
	}
	if r := eng2.Store().CacheStats().Resident; r > cachePages {
		t.Fatalf("post-recovery resident %d exceeds budget %d", r, cachePages)
	}
}

// TestStealCrashRecoveryWithUpdates layers updates over steals: a page
// is stolen carrying committed value v1, then updated to v2 (log only),
// then the system crashes. Redo must replay exactly the tail above the
// stolen image's pageLSN, landing on v2.
func TestStealCrashRecoveryWithUpdates(t *testing.T) {
	const cachePages = 4
	dev := logdev.NewMem(logdev.ProfileMemory)
	arch := storage.NewMemArchive()
	eng, _ := restartBounded(t, dev, arch, cachePages)

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
	if eng.Store().CacheStats().StealWrites == 0 {
		t.Fatal("no steals before the update phase")
	}
	// Second wave: every third key re-written (faulting its page back
	// in, possibly stealing others out).
	for k := uint64(1); k <= keys; k += 3 {
		tx := ag.Begin()
		err := tx.Update(tbl, k, func(r []byte) ([]byte, error) {
			return append(row(k, k*1000), make([]byte, 1500)...), nil
		})
		if err != nil {
			t.Fatalf("update %d: %v", k, err)
		}
		if err := tx.Commit(CommitSync, nil); err != nil {
			t.Fatal(err)
		}
	}
	ag.Close()

	dev.CrashFreeze()
	eng.Log().Close()
	dev.Remount()

	eng2, _ := restartBounded(t, dev, arch, cachePages)
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
		if k%3 == 1 {
			want = k * 1000
		}
		if rowValue(got) != want {
			t.Fatalf("key %d: value %d, want %d", k, rowValue(got), want)
		}
	}
	if err := check.Commit(CommitSync, nil); err != nil {
		t.Fatal(err)
	}
}

// TestBoundedCacheMatchesUnboundedAfterCrash cross-checks the bounded
// pool against the fully resident baseline on the same crash image: both
// must recover the identical database.
func TestBoundedCacheMatchesUnboundedAfterCrash(t *testing.T) {
	dev := logdev.NewMem(logdev.ProfileMemory)
	arch := storage.NewMemArchive()
	eng, _ := restartBounded(t, dev, arch, 3)
	tbl, _ := eng.CreateTable("t", nil)
	ag := eng.NewAgent()
	const keys = 50
	for k := uint64(1); k <= keys; k++ {
		tx := ag.Begin()
		if err := tx.Insert(tbl, k, stealRow(k)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(CommitSync, nil); err != nil {
			t.Fatal(err)
		}
	}
	ag.Close()
	dev.CrashFreeze()
	eng.Log().Close()
	dev.Remount()

	read := func(eng *Engine) map[uint64]uint64 {
		tbl, err := eng.CreateTable("t", nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.RebuildTables(); err != nil {
			t.Fatal(err)
		}
		ag := eng.NewAgent()
		defer ag.Close()
		tx := ag.Begin()
		defer tx.Commit(CommitSync, nil)
		out := make(map[uint64]uint64)
		for k := uint64(1); k <= keys; k++ {
			got, err := tx.Read(tbl, k)
			if err != nil {
				t.Fatalf("key %d: %v", k, err)
			}
			out[k] = rowValue(got)
		}
		return out
	}

	// Recover bounded first (read-only recovery does not change the
	// durable image the second recovery starts from: CLRs would, but
	// this workload has no losers).
	engBounded, _ := restartBounded(t, dev, arch, 3)
	bounded := read(engBounded)
	engBounded.Log().Close()
	dev.CrashFreeze()
	dev.Remount()
	engFull, _ := restartBounded(t, dev, arch, 0) // unbounded
	full := read(engFull)
	if fmt.Sprint(bounded) != fmt.Sprint(full) {
		t.Fatalf("bounded and unbounded recovery disagree:\nbounded:  %v\nunbounded: %v", bounded, full)
	}
}
