package txn

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"aether/internal/core"
	"aether/internal/lockmgr"
	"aether/internal/logbuf"
	"aether/internal/logdev"
	"aether/internal/storage"
)

var (
	restartLogConfig  = core.Config{Buffer: logbuf.Config{Variant: logbuf.VariantCD, Size: 1 << 21}}
	restartLockConfig = lockmgr.Config{DeadlockTimeout: 300 * time.Millisecond, SLI: true}
)

// TestRestartScansFromCheckpointHorizon is the engine-level twin of the
// root TestReopenStartsAtCheckpointHorizon: a checkpoint under which no
// segment died (1 MB of log in 8 MiB segments) still leaves its horizon
// on disk, so a restart of the closed directory begins there and its
// analysis pass covers no more than was appended since that checkpoint
// began — not the whole segment.
func TestRestartScansFromCheckpointHorizon(t *testing.T) {
	forEachLaneCount(t, func(t *testing.T, n int) {
		dir := t.TempDir()
		open := func() ([]logdev.Device, *storage.PageFile) {
			devs := make([]logdev.Device, n)
			for i := range devs {
				dev, err := logdev.OpenSegmentedDir(logdev.LaneDir(filepath.Join(dir, "wal.d"), i, n), 8<<20)
				if err != nil {
					t.Fatal(err)
				}
				devs[i] = dev
			}
			pf, err := storage.OpenPageFile(filepath.Join(dir, "pagefile.db"))
			if err != nil {
				t.Fatal(err)
			}
			return devs, pf
		}
		closeAll := func(eng *Engine, devs []logdev.Device, pf *storage.PageFile) {
			eng.Close()
			if err := eng.Multi().Close(); err != nil {
				t.Fatal(err)
			}
			for _, dev := range devs {
				dev.Close()
			}
			pf.Close()
		}
		// appended and durable sum the lanes' log ends.
		sizes := func(eng *Engine, devs []logdev.Device) (appended, durable int64) {
			for i, dev := range devs {
				appended += int64(eng.Multi().Part(i).AppendEnd())
				durable += dev.DurableSize()
			}
			return appended, durable
		}
		devs, pf := open()
		eng, _, err := Restart(RestartConfig{Devices: devs, Archive: pf, LogConfig: restartLogConfig, LockConfig: restartLockConfig})
		if err != nil {
			t.Fatal(err)
		}
		// One table per lane and a spare, written round-robin.
		tbls := make([]*Table, n+1)
		for i := range tbls {
			if tbls[i], err = eng.CreateTable(fmt.Sprintf("t%d", i), nil); err != nil {
				t.Fatal(err)
			}
		}
		ag := eng.NewAgent()
		for k := uint64(1); k <= 256; {
			tx := ag.Begin()
			for i := 0; i < 8; i, k = i+1, k+1 {
				if err := tx.Insert(tbls[int(k/8)%len(tbls)], k, append(row(k, k*7), bytes.Repeat([]byte{0xa5}, 4000)...)); err != nil {
					t.Fatal(err)
				}
			}
			if err := tx.Commit(CommitSync, nil); err != nil {
				t.Fatal(err)
			}
		}
		ag.Close()
		ckptBegan, _ := sizes(eng, devs)
		if err := eng.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		horizon := devs[0].Base()
		_, end := sizes(eng, devs)
		if ckptBegan < 1_000_000 || horizon < 1_000_000/int64(n)/2 {
			t.Fatalf("test invalid: %d bytes logged before the checkpoint, lane 0's horizon %d", ckptBegan, horizon)
		}
		closeAll(eng, devs, pf)

		devs, pf = open()
		eng2, res, err := Restart(RestartConfig{Devices: devs, Archive: pf, LogConfig: restartLogConfig, LockConfig: restartLockConfig})
		if err != nil {
			t.Fatalf("restart: %v", err)
		}
		t.Cleanup(func() { closeAll(eng2, devs, pf) })
		if int64(res.LogBase) != horizon {
			t.Fatalf("restart began at LogBase %d, the checkpoint before Close left the horizon at %d", res.LogBase, horizon)
		}
		if res.ScannedBytes > end-ckptBegan {
			t.Fatalf("analysis scanned %d bytes; only %d were appended since the checkpoint began", res.ScannedBytes, end-ckptBegan)
		}
		keys := 0
		for i := range tbls {
			tbl, err := eng2.CreateTable(fmt.Sprintf("t%d", i), nil)
			if err != nil {
				t.Fatal(err)
			}
			tbls[i] = tbl
		}
		if err := eng2.RebuildTables(); err != nil {
			t.Fatal(err)
		}
		for _, tbl := range tbls {
			keys += tbl.Index.Len()
		}
		if keys != 256 {
			t.Fatalf("rebuilt indexes hold %d keys, want 256", keys)
		}
	})
}

// TestRebuildIndexMatchesHeap: the index RebuildTables bulk-builds holds
// exactly the heap's live rows, each key at the RID of the row that
// carries it — across dead slots, a key deleted and inserted again (into
// whatever slot the heap reuses), a table with no rows at all, and a
// table whose pages hold keys out of page order, which the build has to
// sort.
func TestRebuildIndexMatchesHeap(t *testing.T) {
	dev, fs := memLog(t, logdev.DefaultSegmentSize)
	eng := newEngineOn(t, dev)
	names := []string{"ascending", "empty", "shuffled"}
	tables := make(map[string]*Table)
	for _, name := range names {
		tbl, err := eng.CreateTable(name, nil)
		if err != nil {
			t.Fatal(err)
		}
		tables[name] = tbl
	}
	ag := eng.NewAgent()
	wide := func(k, v uint64) []byte { return append(row(k, v), make([]byte, 900)...) }
	tx := ag.Begin()
	for k := uint64(1); k <= 60; k++ {
		if err := tx.Insert(tables["ascending"], k, wide(k, k)); err != nil {
			t.Fatal(err)
		}
		// Keys descending by page and interleaved within it: no page
		// order, no slot order.
		sk := 1000 - 7*k + (k%3)*200
		if err := tx.Insert(tables["shuffled"], sk, wide(sk, k)); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(3); k <= 60; k += 4 { // dead slots on every page
		if err := tx.Delete(tables["ascending"], k); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range []uint64{7, 23, 39} { // deleted, then back with a new value
		if err := tx.Insert(tables["ascending"], k, wide(k, k+500)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(CommitSync, nil); err != nil {
		t.Fatal(err)
	}
	ag.Close()
	eng.Log().Close()
	dev = crashLog(t, dev, fs)

	eng2, _, err := Restart(RestartConfig{Device: dev, LogConfig: restartLogConfig, LockConfig: restartLockConfig})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	t.Cleanup(func() { eng2.Log().Close() })
	rebuilt := make(map[string]*Table)
	for _, name := range names {
		tbl, err := eng2.CreateTable(name, nil)
		if err != nil {
			t.Fatal(err)
		}
		rebuilt[name] = tbl
	}
	if err := eng2.RebuildTables(); err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		tbl := rebuilt[name]
		// The heap is the truth: every live row, by key.
		want := make(map[uint64]storage.RID)
		err := tbl.Heap.Scan(func(rid storage.RID, data []byte) bool {
			k := DefaultKeyOf(data)
			if _, dup := want[k]; dup {
				t.Errorf("%s: key %d is live twice in the heap", name, k)
			}
			want[k] = rid
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := tbl.Index.Len(); got != len(want) {
			t.Errorf("%s: index holds %d keys, heap %d live rows", name, got, len(want))
		}
		prev, n := uint64(0), 0
		tbl.Index.Scan(0, ^uint64(0), func(k, packed uint64) bool {
			if n > 0 && k <= prev {
				t.Errorf("%s: index scan returned key %d after %d", name, k, prev)
			}
			prev, n = k, n+1
			if rid, ok := want[k]; !ok || storage.UnpackRID(packed) != rid {
				t.Errorf("%s: index maps key %d to %v, heap has it at %v (live=%v)", name, k, storage.UnpackRID(packed), rid, ok)
			}
			return true
		})
		if n != len(want) {
			t.Errorf("%s: index scan visited %d keys, heap has %d", name, n, len(want))
		}
	}
	if n := rebuilt["empty"].Index.Len(); n != 0 {
		t.Errorf("empty table's index holds %d keys", n)
	}
	if n := rebuilt["ascending"].Index.Len(); n != 60-15+3 {
		t.Errorf("ascending: %d keys, want %d", n, 60-15+3)
	}
	// The rebuilt index answers for the engine: reads see the
	// re-inserted value, and the tree takes new keys.
	ag2 := eng2.NewAgent()
	defer ag2.Close()
	check := ag2.Begin()
	if got, err := check.Read(rebuilt["ascending"], 23); err != nil || rowValue(got) != 523 {
		t.Errorf("key 23 after rebuild: %v, value %d, want 523", err, rowValue(got))
	}
	if _, err := check.Read(rebuilt["ascending"], 3); err == nil {
		t.Error("deleted key 3 is readable after rebuild")
	}
	if err := check.Insert(rebuilt["shuffled"], 5, wide(5, 5)); err != nil {
		t.Errorf("insert into a rebuilt table: %v", err)
	}
	if err := check.Commit(CommitSync, nil); err != nil {
		t.Fatal(err)
	}
}

// shiftedDev is a log device whose durable size moves 16 bytes on after
// its first reading: a lane that grew between recovery reading its tail
// and the log reopening over it.
type shiftedDev struct {
	*logdev.Segmented
	readings int
}

func (d *shiftedDev) DurableSize() int64 {
	d.readings++
	if d.readings > 1 {
		return d.Segmented.DurableSize() + 16
	}
	return d.Segmented.DurableSize()
}

// TestRestartRefusesTailMismatch: the log reopens each lane at its
// device's durable size, and recovery read the lane's tail up to where
// it ended. Restart refuses to run when the two are not one address —
// the new records' LSNs would not be where they land.
func TestRestartRefusesTailMismatch(t *testing.T) {
	dev, _ := memLog(t, logdev.DefaultSegmentSize)
	eng, _, err := Restart(RestartConfig{Device: &shiftedDev{Segmented: dev}, LogConfig: restartLogConfig, LockConfig: restartLockConfig})
	if err == nil {
		eng.Multi().Close()
		t.Fatal("restart ran over a lane that does not resume where its recovered tail ends")
	}
	if !strings.Contains(err.Error(), "log lane 0") {
		t.Fatalf("restart error %q does not name the lane", err)
	}
}
