package txn

import (
	"errors"
	"path/filepath"
	"testing"
	"time"

	"aether/internal/logdev"
	"aether/internal/storage"
)

// shrinkBackoff sets the archiver's retry schedule for one test and
// puts it back after the engine's cleanup has stopped the archiver.
func shrinkBackoff(t *testing.T, lo, hi time.Duration, retries int) {
	oldMin, oldMax, oldRetries := archBackoffMin, archBackoffMax, archMaxRetries
	archBackoffMin, archBackoffMax, archMaxRetries = lo, hi, retries
	t.Cleanup(func() {
		archBackoffMin, archBackoffMax, archMaxRetries = oldMin, oldMax, oldRetries
	})
}

// startArchiving starts an engine over dev with the background
// checkpointer armed and a page file, so that a commit stream truncates
// the log and parks sealed segments for dev's archiver.
func startArchiving(t *testing.T, dev *logdev.Segmented) *Engine {
	t.Helper()
	pf, err := storage.OpenPageFile(filepath.Join(t.TempDir(), "pagefile.db"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pf.Close() })
	return startEngine(t, RestartConfig{
		Device:               dev,
		Archive:              pf,
		LogConfig:            harnessLogConfig,
		CheckpointEveryBytes: 16 << 10,
		Cold:                 ColdConfig{Lanes: []*logdev.Segmented{dev}},
	})
}

// TestArchiverBackoffSurvivesTransientOutage injects a 5-failure
// cold-store outage and requires the background archiver to ride it
// out with retries: ArchiveRetries must tick, ArchiveGaveUp must not,
// and every sealed segment must land in the archive — none lost, none
// recycled early.
func TestArchiverBackoffSurvivesTransientOutage(t *testing.T) {
	// Shrink the retry schedule so five failures resolve in
	// milliseconds rather than the production ~150ms+.
	shrinkBackoff(t, 200*time.Microsecond, 2*time.Millisecond, 8)

	dev, _ := memLog(t, 8<<10)
	store := logdev.NewMemObjectStore()
	marc, err := logdev.NewRemoteArchiver(store, "", 8<<10)
	if err != nil {
		t.Fatal(err)
	}
	dev.SetArchiver(marc)
	// The outage: the next 5 uploads fail, then the store heals.
	store.Arm(logdev.NetFault{FailPuts: 5, FailErr: errors.New("cold store unreachable")})

	eng := startArchiving(t, dev)
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

	// Stop the cold-tier daemon and the checkpointer before counting:
	// archiving that goes on after the loop could move the archive's
	// count and the engine's apart between the two reads below.
	eng.Close()
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
// does not heal must not wedge the engine — the pass gives up after
// archMaxRetries, counts it, and leaves the segments parked on disk
// for a later pass. Once the store heals, the next nudge (a checkpoint's)
// is that pass: every parked segment is archived and nothing gives up.
func TestArchiverBackoffGivesUpOnPermanentFailure(t *testing.T) {
	shrinkBackoff(t, 100*time.Microsecond, 1*time.Millisecond, 3)

	dev, _ := memLog(t, 8<<10)
	store := logdev.NewMemObjectStore()
	marc, err := logdev.NewRemoteArchiver(store, "", 8<<10)
	if err != nil {
		t.Fatal(err)
	}
	dev.SetArchiver(marc)
	store.Arm(logdev.NetFault{Outage: errors.New("cold store gone")})

	eng := startArchiving(t, dev)
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
	parked := dev.PendingArchive()
	if len(parked) == 0 {
		t.Fatal("no segments parked awaiting archive")
	}

	// The store heals. Nothing retries by itself once a pass gave up;
	// a checkpoint's nudge starts the pass that drains the parked set.
	gaveUp := s.ArchiveGaveUp.Load()
	store.Arm(logdev.NetFault{})
	if err := eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(15 * time.Second)
	var idxs []int64
	for {
		if idxs, err = marc.Segments(); err != nil {
			t.Fatal(err)
		}
		if len(dev.PendingArchive()) == 0 && s.SegmentsArchived.Load() == int64(len(idxs)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healed store: %d segments still parked, %d archived, %d objects",
				len(dev.PendingArchive()), s.SegmentsArchived.Load(), len(idxs))
		}
		time.Sleep(time.Millisecond)
	}
	archived := make(map[int64]bool, len(idxs))
	for _, idx := range idxs {
		archived[idx] = true
	}
	for _, idx := range parked {
		if !archived[idx] {
			t.Fatalf("segment %d, parked during the outage, was not archived after it", idx)
		}
	}
	if got := s.ArchiveGaveUp.Load(); got != gaveUp {
		t.Fatalf("archiver gave up %d more times after the store healed", got-gaveUp)
	}
}
