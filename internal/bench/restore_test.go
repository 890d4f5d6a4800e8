package bench

import "testing"

// TestRestoreMicrobenchmark runs PR 10's restore-latency comparison at
// test scale: point-in-time restore through the newest cloud snapshot
// must beat a full from-genesis raw replay of the same history by at
// least 1.2× — a ratio near 1 means snapshots stopped being cut near
// the durable end or RestoreTo stopped using them — and both restored
// states must equal the workload's committed model (RunRestore fails
// internally on any divergence). This test is the only place the floor
// is held. Best-of-3 on the latency ratio because a loaded CI host can
// stall any single attempt; the correctness checks hold on every
// attempt.
func TestRestoreMicrobenchmark(t *testing.T) {
	cfg := quickRestore
	if testing.Short() {
		cfg.Batches = 10
	}
	best := 0.0
	var last RestoreResult
	for attempt := 0; attempt < 3; attempt++ {
		res, err := RunRestore(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("\n%s", res.Table())
		if res.Snapshots == 0 {
			t.Fatalf("no snapshots cut: %+v", res)
		}
		last = res
		if s := res.Speedup(); s > best {
			best = s
		}
		if best >= 1.2 {
			return
		}
	}
	t.Fatalf("snapshot restore only %.2fx over raw replay across 3 attempts, want ≥ 1.2x (%+v)", best, last)
}
