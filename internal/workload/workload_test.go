package workload

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"aether/internal/core"
	"aether/internal/lockmgr"
	"aether/internal/logbuf"
	"aether/internal/logdev"
	"aether/internal/storage"
	"aether/internal/txn"
)

func TestZipfUniformWhenSZero(t *testing.T) {
	z := NewZipf(10, 0)
	rng := rand.New(rand.NewSource(1))
	counts := make([]int, 10)
	const draws = 100000
	for i := 0; i < draws; i++ {
		counts[z.Draw(rng)]++
	}
	for i, c := range counts {
		frac := float64(c) / draws
		if math.Abs(frac-0.1) > 0.02 {
			t.Fatalf("bucket %d got %.3f, want ~0.1", i, frac)
		}
	}
}

func TestZipfSkewConcentrates(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	z2 := NewZipf(100, 2.0)
	hot := 0
	const draws = 50000
	for i := 0; i < draws; i++ {
		if z2.Draw(rng) == 0 {
			hot++
		}
	}
	// At s=2 over 100 items, item 0 holds ~61% of the mass.
	if frac := float64(hot) / draws; frac < 0.55 || frac > 0.67 {
		t.Fatalf("hot fraction %.3f, want ~0.61", frac)
	}
}

func TestZipfEightyTwenty(t *testing.T) {
	// The paper: s≈0.85 corresponds to the 80/20 rule. Check the top 20%
	// of 1000 items carries very roughly 80% of the mass at s=0.85.
	z := NewZipf(1000, 0.85)
	share := z.TopShare(200)
	if share < 0.6 || share > 0.9 {
		t.Fatalf("top-20%% share %.3f at s=0.85, want roughly 0.8", share)
	}
}

func TestZipfPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewZipf(0, 1) },
		func() { NewZipf(10, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

// Property: draws always land in range, and CDF is monotone.
func TestQuickZipfInRange(t *testing.T) {
	f := func(nRaw uint8, sRaw uint8, seed int64) bool {
		n := int(nRaw%100) + 1
		s := float64(sRaw%50) / 10.0
		z := NewZipf(n, s)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 50; i++ {
			v := z.Draw(rng)
			if v < 0 || v >= n {
				return false
			}
		}
		for i := 1; i < n; i++ {
			if z.cdf[i] < z.cdf[i-1] {
				return false
			}
		}
		return z.cdf[n-1] == 1.0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// openEngine starts an engine on an in-memory log and page archive.
func openEngine(t *testing.T) *txn.Engine {
	t.Helper()
	eng, _, err := txn.Restart(txn.RestartConfig{
		Device:     logdev.NewMem(logdev.ProfileMemory),
		Archive:    storage.NewMemArchive(),
		LogConfig:  core.Config{Buffer: logbuf.Config{Variant: logbuf.VariantCD, Size: 1 << 22}},
		LockConfig: lockmgr.Config{DeadlockTimeout: 200 * time.Millisecond, SLI: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		eng.Close()
		eng.Multi().Close()
	})
	return eng
}

func TestTPCBRunsAndStaysConsistent(t *testing.T) {
	eng := openEngine(t)
	w := &TPCB{Branches: 4, AccountsPerBranch: 200}
	if err := w.Setup(eng); err != nil {
		t.Fatal(err)
	}
	res := RunClosedLoop(eng, Options{
		Clients:  8,
		Duration: 300 * time.Millisecond,
		Mode:     txn.CommitPipelined,
	}, w.Body())
	if res.Completed == 0 {
		t.Fatal("no transactions completed")
	}
	if err := w.ConsistencyCheck(eng); err != nil {
		t.Fatal(err)
	}
	t.Logf("TPC-B: %v", res)
}

func TestTPCBSkewedStillConsistent(t *testing.T) {
	eng := openEngine(t)
	w := &TPCB{Branches: 4, AccountsPerBranch: 100, AccessSkew: 2.0}
	if err := w.Setup(eng); err != nil {
		t.Fatal(err)
	}
	res := RunClosedLoop(eng, Options{
		Clients:  8,
		Duration: 300 * time.Millisecond,
		Mode:     txn.CommitSyncELR,
	}, w.Body())
	if res.Completed == 0 {
		t.Fatal("no transactions completed under skew")
	}
	if err := w.ConsistencyCheck(eng); err != nil {
		t.Fatal(err)
	}
}

func TestTPCBAllCommitModes(t *testing.T) {
	for _, mode := range []txn.CommitMode{txn.CommitSync, txn.CommitSyncELR, txn.CommitAsync, txn.CommitPipelined} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			t.Parallel()
			eng := openEngine(t)
			w := &TPCB{Branches: 2, AccountsPerBranch: 100}
			if err := w.Setup(eng); err != nil {
				t.Fatal(err)
			}
			res := RunClosedLoop(eng, Options{
				Clients: 4, Duration: 200 * time.Millisecond, Mode: mode,
			}, w.Body())
			if res.Completed == 0 {
				t.Fatalf("mode %v: nothing completed", mode)
			}
			// Only the blocking modes park a client in its commit.
			if mode.Blocking() && res.CommitWait <= 0 || !mode.Blocking() && res.CommitWait != 0 {
				t.Fatalf("mode %v: commit wait %v", mode, res.CommitWait)
			}
			if err := w.ConsistencyCheck(eng); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestLoadCardinalities: after Setup on a fresh engine, every table holds
// exactly the rows its load inserts. Each load is more than one batch, so
// both a batch commit and the final commit are covered.
func TestLoadCardinalities(t *testing.T) {
	count := func(t *testing.T, eng *txn.Engine, tables ...*txn.Table) []int {
		t.Helper()
		ag := eng.NewAgent()
		defer ag.Close()
		tx := ag.Begin()
		defer tx.Commit(txn.CommitSync, nil)
		n := make([]int, len(tables))
		for i, tbl := range tables {
			if err := tx.Scan(tbl, 0, math.MaxUint64, func(uint64, []byte) bool { n[i]++; return true }); err != nil {
				t.Fatalf("scan %s: %v", tbl.Name, err)
			}
		}
		return n
	}
	check := func(t *testing.T, got, want []int) {
		t.Helper()
		if !slices.Equal(got, want) {
			t.Fatalf("rows per table %v, want %v", got, want)
		}
	}
	t.Run("TPCB", func(t *testing.T) {
		eng := openEngine(t)
		w := &TPCB{Branches: 3, AccountsPerBranch: 700}
		if err := w.Setup(eng); err != nil {
			t.Fatal(err)
		}
		check(t, count(t, eng, w.branches, w.tellers, w.accounts, w.history), []int{3, 30, 2100, 0})
	})
	t.Run("TPCC", func(t *testing.T) {
		eng := openEngine(t)
		w := NewTPCC()
		w.Warehouses, w.CustomersPerDistrict, w.ItemsPerWarehouse = 2, 100, 200
		if err := w.Setup(eng); err != nil {
			t.Fatal(err)
		}
		check(t, count(t, eng, w.warehouse, w.district, w.customer, w.stock, w.orders, w.orderLine, w.history),
			[]int{2, 20, 2000, 400, 0, 0, 0})
	})
	t.Run("TATP", func(t *testing.T) {
		eng := openEngine(t)
		w := &TATP{Subscribers: 500}
		if err := w.Setup(eng); err != nil {
			t.Fatal(err)
		}
		// Replay the load's draws, loop for loop.
		want := []int{w.Subscribers, 0, 0, 0}
		next := tatpCardinalities()
		for s := 0; s < w.Subscribers; s++ {
			for ai := 0; ai <= next(4); ai++ {
				want[1]++
			}
			for sf := 0; sf <= next(4); sf++ {
				want[2]++
				for cf := 0; cf < next(4); cf++ {
					want[3]++
				}
			}
		}
		check(t, count(t, eng, w.subscriber, w.accessInfo, w.specialFac, w.callFwd), want)
		if total := want[0] + want[1] + want[2] + want[3]; total <= loadBatch {
			t.Fatalf("TATP load of %d rows fits one batch", total)
		}
	})
}

func TestTATPRunsFullMix(t *testing.T) {
	eng := openEngine(t)
	w := &TATP{Subscribers: 500}
	if err := w.Setup(eng); err != nil {
		t.Fatal(err)
	}
	res := RunClosedLoop(eng, Options{
		Clients:  8,
		Duration: 300 * time.Millisecond,
		Mode:     txn.CommitPipelined,
	}, w.Body())
	if res.Completed == 0 {
		t.Fatal("no transactions completed")
	}
	t.Logf("TATP: %v", res)
}

func TestTATPUpdateLocationOnly(t *testing.T) {
	eng := openEngine(t)
	w := &TATP{Subscribers: 500, UpdateLocationOnly: true}
	if err := w.Setup(eng); err != nil {
		t.Fatal(err)
	}
	res := RunClosedLoop(eng, Options{
		Clients:  8,
		Duration: 200 * time.Millisecond,
		Mode:     txn.CommitPipelined,
	}, w.Body())
	if res.Completed == 0 {
		t.Fatal("no transactions completed")
	}
	// UpdateLocation writes every transaction: inserts must accumulate.
	if eng.Log().Stats().Inserts.Load() == 0 {
		t.Fatal("no log inserts from an update-only workload")
	}
}

func TestTPCCRuns(t *testing.T) {
	eng := openEngine(t)
	w := &TPCC{Warehouses: 2, DistrictsPerWarehouse: 4, CustomersPerDistrict: 50, ItemsPerWarehouse: 200}
	if err := w.Setup(eng); err != nil {
		t.Fatal(err)
	}
	res := RunClosedLoop(eng, Options{
		Clients:  6,
		Duration: 300 * time.Millisecond,
		Mode:     txn.CommitPipelined,
	}, w.Body())
	if res.Completed == 0 {
		t.Fatal("no transactions completed")
	}
	t.Logf("TPC-C lite: %v", res)
}

func TestDriverCountsSwitches(t *testing.T) {
	eng := openEngine(t)
	w := &TPCB{Branches: 2, AccountsPerBranch: 100}
	if err := w.Setup(eng); err != nil {
		t.Fatal(err)
	}
	// Sync commits block once per transaction.
	sw0 := eng.Log().Stats().SyncWaiters.Load()
	res := RunClosedLoop(eng, Options{
		Clients: 4, Duration: 200 * time.Millisecond, Mode: txn.CommitSync,
	}, w.Body())
	syncBlocks := eng.Log().Stats().SyncWaiters.Load() - sw0
	if syncBlocks < res.Completed {
		t.Fatalf("sync mode: %d commit blocks for %d commits", syncBlocks, res.Completed)
	}
	// Pipelined commits never block the agent on the log (lock waits may
	// still block; they are counted separately).
	sw0 = eng.Log().Stats().SyncWaiters.Load()
	res2 := RunClosedLoop(eng, Options{
		Clients: 4, Duration: 200 * time.Millisecond, Mode: txn.CommitPipelined,
	}, w.Body())
	if res2.Completed == 0 {
		t.Fatal("pipelined run completed nothing")
	}
	if got := eng.Log().Stats().SyncWaiters.Load() - sw0; got != 0 {
		t.Fatalf("pipelined mode: %d agent commit blocks, want 0", got)
	}
}

// TestDriverCountsEveryLane: on a two-lane log whose transactions are
// homed by ID, every blocking commit waits on its own home lane, half of
// them not on lane 0. The run's CommitBlocks must still be one per
// committed transaction, and its flushes must include both lanes'.
func TestDriverCountsEveryLane(t *testing.T) {
	eng, _, err := txn.Restart(txn.RestartConfig{
		Devices:        []logdev.Device{logdev.NewMem(logdev.ProfileMemory), logdev.NewMem(logdev.ProfileMemory)},
		RoutePartition: func(txnID uint64, _ uint32) int { return int(txnID % 2) },
		LogConfig:      core.Config{Buffer: logbuf.Config{Variant: logbuf.VariantCD, Size: 1 << 22}},
		LockConfig:     lockmgr.Config{DeadlockTimeout: 200 * time.Millisecond, SLI: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		eng.Close()
		eng.Multi().Close()
	})
	w := &TPCB{Branches: 2, AccountsPerBranch: 100}
	if err := w.Setup(eng); err != nil {
		t.Fatal(err)
	}
	res := RunClosedLoop(eng, Options{
		Clients: 4, Duration: 200 * time.Millisecond, Mode: txn.CommitSync,
	}, w.Body())
	if res.Completed == 0 {
		t.Fatal("no transactions completed")
	}
	if res.CommitBlocks != res.Completed {
		t.Fatalf("%d commit blocks for %d blocking commits", res.CommitBlocks, res.Completed)
	}
	if lane0 := eng.Multi().Part(0).Stats().Flushes.Load(); res.Flushes <= lane0 {
		t.Fatalf("run counted %d flushes, lane 0 alone has done %d", res.Flushes, lane0)
	}
}

func TestResultHelpers(t *testing.T) {
	r := Result{Completed: 100, Elapsed: 2 * time.Second, BusyTime: 4 * time.Second, Switches: 50}
	if r.Throughput() != 50 {
		t.Fatalf("throughput %f", r.Throughput())
	}
	if r.Utilization() != 2 {
		t.Fatalf("utilization %f", r.Utilization())
	}
	if r.SwitchRate() != 25 {
		t.Fatalf("switch rate %f", r.SwitchRate())
	}
	var zero Result
	if zero.Throughput() != 0 || zero.Utilization() != 0 || zero.SwitchRate() != 0 {
		t.Fatal("zero result helpers must be 0")
	}
}
