package txn

import (
	"sort"
	"testing"
	"time"

	"aether/internal/core"
	"aether/internal/lockmgr"
	"aether/internal/logbuf"
	"aether/internal/logdev"
	"aether/internal/logrec"
	"aether/internal/lsn"
)

// laneHandOffs counts Appendix A.5's inter-log dependencies straight from
// the durable lanes: walk every lane's update and CLR records in global
// seq order and count the times a page's consecutive updates change lane.
func laneHandOffs(t *testing.T, devs []logdev.Device) int64 {
	t.Helper()
	type update struct {
		seq, page uint64
		lane      int
	}
	var all []update
	for lane, dev := range devs {
		data, base, err := logdev.ReadTail(dev)
		if err != nil {
			t.Fatalf("lane %d: %v", lane, err)
		}
		it := logrec.NewIterator(data, lsn.LSN(base))
		for rec, ok := it.Next(); ok; rec, ok = it.Next() {
			if rec.PageID != 0 && (rec.Kind == logrec.KindUpdate || rec.Kind == logrec.KindCLR) {
				all = append(all, update{seq: uint64(rec.Seq), page: rec.PageID, lane: lane})
			}
		}
		if err := it.Err(); err != nil {
			t.Fatalf("lane %d: decode: %v", lane, err)
		}
	}
	sort.Slice(all, func(a, b int) bool { return all[a].seq < all[b].seq })
	lastLane := map[uint64]int{}
	var n int64
	for _, u := range all {
		if l, ok := lastLane[u.page]; ok && l != u.lane {
			n++
		}
		lastLane[u.page] = u.lane
	}
	return n
}

// TestEdgesMatchLaneHandOffs checks the coordinator's edge count against
// the log it wrote: run a workload through a 4-lane engine homed by
// transaction ID, then recount the lane hand-offs from the lanes' records.
// MultiLog.EdgesTotal must equal the recount, and the enforced edges (the
// older record not yet durable) can only be a subset.
func TestEdgesMatchLaneHandOffs(t *testing.T) {
	const lanes = 4
	devs := make([]logdev.Device, lanes)
	for i := range devs {
		devs[i] = logdev.NewMem(logdev.ProfileMemory)
	}
	eng, _, err := Restart(RestartConfig{
		Devices:        devs,
		RoutePartition: func(txnID uint64, _ uint32) int { return int(txnID % lanes) },
		LogConfig:      core.Config{Buffer: logbuf.Config{Variant: logbuf.VariantCD, Size: 1 << 20}},
		LockConfig:     lockmgr.Config{DeadlockTimeout: time.Second, SLI: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	ml := eng.Multi()
	defer ml.Close()
	defer eng.Close()

	tbl, err := eng.CreateTable("t", nil)
	if err != nil {
		t.Fatal(err)
	}
	ag := eng.NewAgent()
	defer ag.Close()

	// One transaction seeds the keys (same-lane updates of one page), then
	// sequential transactions hammer them: consecutive IDs home on
	// different lanes, so each page's update chain keeps changing lane.
	const keys = 30
	seedRows(t, ag, tbl, keys)
	for i := uint64(0); i < 300; i++ {
		tx := ag.Begin()
		if err := tx.Update(tbl, i%keys+1, setValue(i)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(CommitSync, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := ml.FlushAll(); err != nil {
		t.Fatal(err)
	}

	edges := ml.EdgesTotal()
	if edges == 0 {
		t.Fatal("workload produced no cross-lane edges; the check is vacuous")
	}
	if want := laneHandOffs(t, devs); edges != want {
		t.Fatalf("engine counted %d cross-lane edges, its lanes hold %d hand-offs", edges, want)
	}
	if enf := ml.EdgesEnforced(); enf > edges {
		t.Fatalf("enforced edges %d exceed observed edges %d", enf, edges)
	}
}
