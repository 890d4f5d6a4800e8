package txn

import (
	"errors"
	"path/filepath"
	"testing"
	"time"

	"aether/internal/core"
	"aether/internal/lockmgr"
	"aether/internal/logbuf"
	"aether/internal/logdev"
	"aether/internal/storage"
)

// TestArchiverBackoffSurvivesTransientOutage injects a 5-failure
// cold-store outage and requires the background archiver to ride it
// out with retries: ArchiveRetries must tick, ArchiveGaveUp must not,
// and every sealed segment must land in the archive — none lost, none
// recycled early.
func TestArchiverBackoffSurvivesTransientOutage(t *testing.T) {
	// Shrink the retry schedule so five failures resolve in
	// milliseconds rather than the production ~150ms+.
	oldMin, oldMax, oldRetries := archBackoffMin, archBackoffMax, archMaxRetries
	archBackoffMin, archBackoffMax, archMaxRetries = 200*time.Microsecond, 2*time.Millisecond, 8
	defer func() {
		archBackoffMin, archBackoffMax, archMaxRetries = oldMin, oldMax, oldRetries
	}()

	dev := logdev.NewSegmentedMem(logdev.ProfileMemory, 8<<10)
	store := logdev.NewMemObjectStore()
	marc, err := logdev.NewRemoteArchiver(store, "", 8<<10)
	if err != nil {
		t.Fatal(err)
	}
	dev.SetArchiver(marc)
	// The outage: the next 5 uploads fail, then the store heals.
	store.Arm(logdev.NetFault{FailPuts: 5, FailErr: errors.New("cold store unreachable")})

	pf, err := storage.OpenPageFile(filepath.Join(t.TempDir(), "pagefile.db"))
	if err != nil {
		t.Fatal(err)
	}
	lm, err := core.New(core.Config{
		Buffer: logbuf.Config{Variant: logbuf.VariantCD, Size: 1 << 20},
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
		CheckpointEveryBytes: 16 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		eng.Close()
		eng.Log().Close()
		pf.Close()
	}()
	tbl, err := eng.CreateTable("t", nil)
	if err != nil {
		t.Fatal(err)
	}

	// Commit until the log has sealed segments and the archiver —
	// after burning through the outage — has drained them all.
	ag := eng.NewAgent()
	defer ag.Close()
	deadline := time.Now().Add(15 * time.Second)
	var k uint64
	for {
		k++
		tx := ag.Begin()
		if err := tx.Insert(tbl, k, row(k, k)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(CommitSync, nil); err != nil {
			t.Fatal(err)
		}
		s := eng.Stats()
		if s.ArchiveRetries.Load() > 0 && s.SegmentsArchived.Load() > 0 && len(dev.PendingArchive()) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("outage never resolved: retries=%d archived=%d pending=%d",
				s.ArchiveRetries.Load(), s.SegmentsArchived.Load(), len(dev.PendingArchive()))
		}
	}

	s := eng.Stats()
	if s.ArchiveGaveUp.Load() != 0 {
		t.Fatalf("archiver gave up %d times during a 5-failure outage (max retries %d)",
			s.ArchiveGaveUp.Load(), archMaxRetries)
	}
	if s.ArchiveFailures.Load() == 0 {
		t.Fatal("outage injected but no archive failures recorded")
	}

	// No segment lost: every index the device ever handed to the
	// archiver is retrievable, and nothing is still waiting.
	idxs, err := marc.Segments()
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(idxs)) != s.SegmentsArchived.Load() {
		t.Fatalf("archive holds %d segments, engine counted %d", len(idxs), s.SegmentsArchived.Load())
	}
	for _, idx := range idxs {
		if _, err := marc.Retrieve(idx); err != nil {
			t.Fatalf("archived segment %d unreadable: %v", idx, err)
		}
	}
}

// TestArchiverBackoffGivesUpOnPermanentFailure: a cold store that
// never heals must not wedge the engine — the pass gives up after
// archMaxRetries, counts it, and leaves the segments parked on disk
// for a later pass.
func TestArchiverBackoffGivesUpOnPermanentFailure(t *testing.T) {
	oldMin, oldMax, oldRetries := archBackoffMin, archBackoffMax, archMaxRetries
	archBackoffMin, archBackoffMax, archMaxRetries = 100*time.Microsecond, 1*time.Millisecond, 3
	defer func() {
		archBackoffMin, archBackoffMax, archMaxRetries = oldMin, oldMax, oldRetries
	}()

	dev := logdev.NewSegmentedMem(logdev.ProfileMemory, 8<<10)
	store := logdev.NewMemObjectStore()
	marc, err := logdev.NewRemoteArchiver(store, "", 8<<10)
	if err != nil {
		t.Fatal(err)
	}
	dev.SetArchiver(marc)
	store.Arm(logdev.NetFault{Outage: errors.New("cold store gone")})

	pf, err := storage.OpenPageFile(filepath.Join(t.TempDir(), "pagefile.db"))
	if err != nil {
		t.Fatal(err)
	}
	lm, err := core.New(core.Config{
		Buffer: logbuf.Config{Variant: logbuf.VariantCD, Size: 1 << 20},
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
		CheckpointEveryBytes: 16 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		eng.Close()
		eng.Log().Close()
		pf.Close()
	}()
	tbl, err := eng.CreateTable("t", nil)
	if err != nil {
		t.Fatal(err)
	}

	ag := eng.NewAgent()
	defer ag.Close()
	deadline := time.Now().Add(15 * time.Second)
	var k uint64
	for eng.Stats().ArchiveGaveUp.Load() == 0 {
		k++
		tx := ag.Begin()
		if err := tx.Insert(tbl, k, row(k, k)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(CommitSync, nil); err != nil {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("archiver never gave up: failures=%d retries=%d",
				eng.Stats().ArchiveFailures.Load(), eng.Stats().ArchiveRetries.Load())
		}
	}
	s := eng.Stats()
	// Each abandoned pass burned exactly archMaxRetries retries.
	if s.ArchiveRetries.Load() < int64(archMaxRetries) {
		t.Fatalf("gave up after only %d retries, want ≥ %d", s.ArchiveRetries.Load(), archMaxRetries)
	}
	if s.SegmentsArchived.Load() != 0 {
		t.Fatalf("%d segments archived through a permanent outage", s.SegmentsArchived.Load())
	}
	// The unarchivable segments are parked, not lost or recycled.
	if len(dev.PendingArchive()) == 0 {
		t.Fatal("no segments parked awaiting archive")
	}
}
