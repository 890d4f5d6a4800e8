package soak

import (
	"testing"
)

// TestSoakShortStorm runs a compact crash storm across the full fault
// profile and requires zero model divergences.
func TestSoakShortStorm(t *testing.T) {
	res, err := Run(Config{
		Seed:         42,
		Cycles:       12,
		TxnsPerCycle: 25,
		Keys:         32,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatalf("soak diverged: %v", err)
	}
	if res.Cycles != 12 {
		t.Fatalf("ran %d cycles, want 12", res.Cycles)
	}
	if res.Commits == 0 {
		t.Fatal("no transactions committed across the storm")
	}
	total := 0
	for _, n := range res.Cuts {
		total += n
	}
	if total != res.Cycles {
		t.Fatalf("cut counts sum to %d, want one cut per cycle (%d)", total, res.Cycles)
	}
}

// TestSoakSingleFaultPoints pins each fault point individually so a
// regression in one recovery path names its site directly.
func TestSoakSingleFaultPoints(t *testing.T) {
	for _, p := range AllFaultPoints {
		p := p
		t.Run(string(p), func(t *testing.T) {
			t.Parallel()
			res, err := Run(Config{
				Seed:         7,
				Cycles:       4,
				TxnsPerCycle: 20,
				Keys:         24,
				Points:       []FaultPoint{p},
			})
			if err != nil {
				t.Fatalf("soak diverged: %v", err)
			}
			if res.Cycles != 4 {
				t.Fatalf("ran %d cycles, want 4", res.Cycles)
			}
			// The archive rule names a directory (seg/ of the cold store):
			// if objects ever get installed somewhere else it matches
			// nothing and every cycle is a forced cut.
			if p == FaultArchive && res.Cuts[string(p)] == 0 {
				t.Fatalf("no cut landed inside a cold-store object install (cuts: %v); the run is vacuous", res.Cuts)
			}
		})
	}
}

// TestSoakPartitionedStorm runs the crash storm against a 3-partition
// log with the full partitioned fault profile — including the
// one-partition-cut point, where a single log's flush dies while the
// others keep hardening. A clean pass means every recovery merged the
// surviving logs without a flush-dependency violation and the model
// checker saw only committed state (plus at most the one in-doubt
// transaction) after every cut.
func TestSoakPartitionedStorm(t *testing.T) {
	res, err := Run(Config{
		Seed:          1234,
		Cycles:        12,
		TxnsPerCycle:  25,
		Keys:          32,
		LogPartitions: 3,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatalf("partitioned soak diverged: %v", err)
	}
	if res.Cycles != 12 {
		t.Fatalf("ran %d cycles, want 12", res.Cycles)
	}
	if res.Commits == 0 {
		t.Fatal("no transactions committed across the storm")
	}
}

// TestSoakPartitionFlushPoint pins the Appendix A.5 cut site alone:
// every cycle kills exactly one randomly chosen partition's segment
// fsync while the other partitions continue flushing.
func TestSoakPartitionFlushPoint(t *testing.T) {
	res, err := Run(Config{
		Seed:          9,
		Cycles:        8,
		TxnsPerCycle:  20,
		Keys:          24,
		LogPartitions: 3,
		Points:        []FaultPoint{FaultPartitionFlush},
	})
	if err != nil {
		t.Fatalf("partition-flush soak diverged: %v", err)
	}
	if res.Cycles != 8 {
		t.Fatalf("ran %d cycles, want 8", res.Cycles)
	}
	if res.Cuts[string(FaultPartitionFlush)] == 0 {
		t.Fatal("the partition-flush cut never fired; the run is vacuous")
	}
}

// TestSoakRemoteArchivePoint pins the cloud-tier cut site: the cold
// store is the remote archiver over a MemObjectStore that survives
// power cuts, and each armed cycle either tears an upload mid-object
// with a simultaneous local power cut or opens an outage window for the
// rest of the cycle. A clean pass means no committed transaction was
// lost to a torn or failed upload and no parked segment was recycled
// before its bytes were durably in the cloud.
func TestSoakRemoteArchivePoint(t *testing.T) {
	res, err := Run(Config{
		Seed:         11,
		Cycles:       10,
		TxnsPerCycle: 25,
		Keys:         32,
		Points:       []FaultPoint{FaultRemoteArchive, FaultGroupCommit},
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatalf("remote-archive soak diverged: %v", err)
	}
	if res.Cycles != 10 {
		t.Fatalf("ran %d cycles, want 10", res.Cycles)
	}
	if res.Commits == 0 {
		t.Fatal("no transactions committed across the storm")
	}
}

// TestSoakRemoteArchivePartitioned runs the cloud-tier cut site against
// a 3-partition stack: one remote lane per partition in the shared
// object store.
func TestSoakRemoteArchivePartitioned(t *testing.T) {
	res, err := Run(Config{
		Seed:          23,
		Cycles:        8,
		TxnsPerCycle:  20,
		Keys:          24,
		LogPartitions: 3,
		Points:        []FaultPoint{FaultRemoteArchive, FaultPartitionFlush},
	})
	if err != nil {
		t.Fatalf("partitioned remote-archive soak diverged: %v", err)
	}
	if res.Cycles != 8 {
		t.Fatalf("ran %d cycles, want 8", res.Cycles)
	}
}

// TestSoakPartitionPointRequiresPartitions rejects a profile that arms
// the partition cut on a single-log stack.
func TestSoakPartitionPointRequiresPartitions(t *testing.T) {
	_, err := Run(Config{
		Seed:   1,
		Cycles: 1,
		Points: []FaultPoint{FaultPartitionFlush},
	})
	if err == nil {
		t.Fatal("partition-flush accepted without LogPartitions")
	}
}

// TestDiffStates pins the model comparator: lost, changed, and
// resurrected keys must all surface as distinct diffs.
func TestDiffStates(t *testing.T) {
	want := map[uint64]uint64{1: 10, 2: 20, 3: 30}
	got := map[uint64]uint64{1: 10, 2: 99, 4: 40}
	diffs := DiffStates(want, got)
	if len(diffs) != 3 {
		t.Fatalf("got %d diffs, want 3 (changed, lost, resurrected): %v", len(diffs), diffs)
	}
	if len(DiffStates(want, want)) != 0 {
		t.Fatal("identical states reported diffs")
	}
}

// TestApplyOpsAtomic verifies the in-doubt overlay applies a whole
// transaction without mutating the base model.
func TestApplyOpsAtomic(t *testing.T) {
	base := map[uint64]uint64{1: 10, 2: 20}
	out := applyOps(base, []op{{key: 1, del: true}, {key: 3, val: 30}})
	if len(base) != 2 || base[1] != 10 {
		t.Fatalf("applyOps mutated its input: %v", base)
	}
	if _, ok := out[1]; ok {
		t.Fatal("delete not applied in overlay")
	}
	if out[3] != 30 {
		t.Fatalf("insert not applied in overlay: %v", out)
	}
}

// TestIsDivergence distinguishes model divergences from plain errors.
func TestIsDivergence(t *testing.T) {
	d := &Divergence{Seed: 1, Cycle: 2, Point: FaultJournal, Diffs: []string{"key 1 lost (want value 10)"}}
	if !IsDivergence(d) {
		t.Fatal("Divergence not recognized")
	}
	if IsDivergence(errDummy) {
		t.Fatal("plain error misclassified as divergence")
	}
	if msg := d.Error(); msg == "" {
		t.Fatal("empty divergence message")
	}
}

var errDummy = errDummyType{}

type errDummyType struct{}

func (errDummyType) Error() string { return "dummy" }
