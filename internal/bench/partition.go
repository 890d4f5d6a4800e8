package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"aether/internal/core"
	"aether/internal/lockmgr"
	"aether/internal/logbuf"
	"aether/internal/logdev"
	"aether/internal/txn"
)

// PartitionConfig parameterizes the partition-scaling microbenchmark:
// the same write-heavy workload is run once against a single simulated
// log device and once against N devices coordinated by the MultiLog,
// so the committed-bytes/s ratio isolates what log partitioning buys
// when the device — not the workload — is the bottleneck.
type PartitionConfig struct {
	// Partitions is the partitioned side's log count (default 4).
	Partitions int
	// Workers is the number of concurrent commit streams (default
	// 4×Partitions). Each worker hammers its own table, so its
	// transactions home to one partition and partitions fill evenly.
	Workers int
	// Duration is the measured window per side (default 500ms).
	Duration time.Duration
	// Payload is the row payload size in bytes (default 4096 — large
	// enough that device bandwidth, not per-record CPU, dominates).
	Payload int
	// CrossEvery makes every Nth transaction also update a shared
	// table (default 8; negative disables). Consecutive updates of the
	// shared pages then come from different home logs, which is what
	// creates the cross-log flush dependencies the stall-rate gate
	// watches.
	CrossEvery int
	// Device is the simulated log device class. The zero value uses a
	// flash-latency, bandwidth-limited profile (100µs sync, 8 MB/s),
	// under which a single log is bandwidth-bound and N independent
	// devices offer N× aggregate bandwidth — the hardware premise of
	// distributed logging.
	Device logdev.Profile
}

// PartitionRun reports one side of the comparison.
type PartitionRun struct {
	// Partitions is this side's log count.
	Partitions int
	// Workers is the concurrent commit streams.
	Workers int
	// Commits is the transactions committed in the window.
	Commits int64
	// CommittedBytes is the log bytes appended by those commits.
	CommittedBytes int64
	// BytesPerSec is CommittedBytes over the window.
	BytesPerSec float64
	// Flushes is the device sync count across all partitions.
	Flushes int64
	// DepEdges counts cross-log flush dependencies observed at append
	// time (0 on the single-log side).
	DepEdges int64
	// DepStalls counts flush passes clamped below their buffered tail
	// waiting for another log.
	DepStalls int64
	// StallRate is DepStalls/Flushes — the fraction of flush passes
	// the dependency limiter held back.
	StallRate float64
}

// PartitionResult is the 1-vs-N comparison plus the derived gates.
type PartitionResult struct {
	// Single is the one-log baseline.
	Single PartitionRun
	// Multi is the N-partition side.
	Multi PartitionRun
	// Speedup is Multi.BytesPerSec / Single.BytesPerSec.
	Speedup float64
}

// Table renders the comparison as one row per side.
func (r PartitionResult) Table() *Table {
	t := &Table{
		Title:   fmt.Sprintf("Partition scaling: committed log bytes/s, 1 vs %d logs over simulated bandwidth-limited devices", r.Multi.Partitions),
		Columns: []string{"logs", "workers", "commits", "MB/s", "flushes", "dep edges", "stall rate", "speedup"},
	}
	for _, side := range []PartitionRun{r.Single, r.Multi} {
		speedup := 1.0
		if side.Partitions > 1 {
			speedup = r.Speedup
		}
		t.AddRow(fmt.Sprint(side.Partitions),
			fmt.Sprint(side.Workers),
			fmt.Sprint(side.Commits),
			fmt.Sprintf("%.1f", side.BytesPerSec/1e6),
			fmt.Sprint(side.Flushes),
			fmt.Sprint(side.DepEdges),
			fmt.Sprintf("%.3f", side.StallRate),
			fmt.Sprintf("%.2fx", speedup))
	}
	return t
}

// PartitionScaling is the registry's "partition-scaling" experiment:
// RunPartitions at the scale's window, as a table.
func PartitionScaling(scale Scale) (*Table, error) {
	cfg := PartitionConfig{} // RunPartitions' defaults are the full scale
	if scale.Quick {
		cfg.Duration = 250 * time.Millisecond
	}
	res, err := RunPartitions(cfg)
	if err != nil {
		return nil, err
	}
	return res.Table(), nil
}

// RunPartitions executes both sides and, on the partitioned side,
// crash-freezes the devices and re-runs recovery so the merge's
// dependency verification passes judgment on the run: a dependency-
// order violation in any surviving log fails the benchmark.
func RunPartitions(cfg PartitionConfig) (PartitionResult, error) {
	if cfg.Partitions <= 0 {
		cfg.Partitions = 4
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4 * cfg.Partitions
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 500 * time.Millisecond
	}
	if cfg.Payload <= 0 {
		cfg.Payload = 4096
	}
	if cfg.CrossEvery < 0 {
		cfg.CrossEvery = 0
	} else if cfg.CrossEvery == 0 {
		cfg.CrossEvery = 8
	}
	if cfg.Device == (logdev.Profile{}) {
		cfg.Device = logdev.Profile{Name: "sim-flash", SyncLatency: 100 * time.Microsecond, BytesPerSecond: 8 << 20}
	}
	var res PartitionResult
	single, err := runPartitionSide(cfg, 1)
	if err != nil {
		return res, fmt.Errorf("single-log side: %w", err)
	}
	multi, err := runPartitionSide(cfg, cfg.Partitions)
	if err != nil {
		return res, fmt.Errorf("%d-partition side: %w", cfg.Partitions, err)
	}
	res.Single, res.Multi = single, multi
	if single.BytesPerSec > 0 {
		res.Speedup = multi.BytesPerSec / single.BytesPerSec
	}
	return res, nil
}

// runPartitionSide measures one configuration: parts simulated devices
// under a full transaction engine, Workers concurrent commit streams.
func runPartitionSide(cfg PartitionConfig, parts int) (PartitionRun, error) {
	run := PartitionRun{Partitions: parts, Workers: cfg.Workers}
	devs := make([]logdev.Device, parts)
	mems := make([]*logdev.Segmented, parts)
	for i := range devs {
		mems[i] = logdev.NewMem(cfg.Device)
		devs[i] = mems[i]
	}
	rc := txn.RestartConfig{
		LogConfig: core.Config{
			Buffer: logbuf.Config{Variant: logbuf.VariantCD, Size: 1 << 22},
		},
		LockConfig: lockmgr.Config{DeadlockTimeout: time.Second, SLI: true},
		Devices:    devs,
	}
	eng, _, err := txn.Restart(rc)
	if err != nil {
		return run, err
	}

	// One table per worker (homes the worker's transactions to one
	// partition via the default space routing) plus a shared table the
	// cross-partition transactions collide on.
	tables := make([]*txn.Table, cfg.Workers)
	for w := range tables {
		if tables[w], err = eng.CreateTable(fmt.Sprintf("w%d", w), nil); err != nil {
			return run, err
		}
	}
	shared, err := eng.CreateTable("shared", nil)
	if err != nil {
		return run, err
	}

	payload := make([]byte, 8+cfg.Payload)
	// Seed the shared rows outside the measured window so the loop is
	// pure updates (no insert/update races on first touch).
	seedAg := eng.NewAgent()
	seedTx := seedAg.Begin()
	for w := 0; w < cfg.Workers; w++ {
		if err := seedTx.Insert(shared, uint64(w)+1, payload); err != nil {
			seedAg.Close()
			return run, err
		}
	}
	if err := seedTx.Commit(txn.CommitSync, nil); err != nil {
		seedAg.Close()
		return run, err
	}
	seedAg.Close()

	var commits atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ag := eng.NewAgent()
			defer ag.Close()
			// Key 0 aliases the table lock — start at 1. Each worker owns
			// a disjoint shared-table key so collisions are page-level
			// (log ordering), not row-level (lock waits).
			for n := uint64(1); time.Since(start) < cfg.Duration; n++ {
				tx := ag.Begin()
				if err := tx.Insert(tables[w], n, payload); err != nil {
					tx.Abort()
					continue
				}
				if cfg.CrossEvery > 0 && n%uint64(cfg.CrossEvery) == 0 {
					key := uint64(w) + 1
					err := tx.Update(shared, key, func([]byte) ([]byte, error) { return payload, nil })
					if err != nil {
						tx.Abort()
						continue
					}
				}
				if err := tx.Commit(txn.CommitSync, nil); err != nil {
					continue
				}
				commits.Add(1)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	run.Commits = commits.Load()
	ml := eng.Multi()
	for i := 0; i < ml.NumParts(); i++ {
		ls := ml.Part(i).Stats()
		run.CommittedBytes += ls.InsertBytes.Load()
		run.Flushes += ls.Flushes.Load()
		run.DepStalls += ml.DepStalls(i)
	}
	run.DepEdges = ml.EdgesTotal()
	if elapsed > 0 {
		run.BytesPerSec = float64(run.CommittedBytes) / elapsed.Seconds()
	}
	if run.Flushes > 0 {
		run.StallRate = float64(run.DepStalls) / float64(run.Flushes)
	}

	// Power-cut the devices and re-run recovery: the merge verifies no
	// surviving log holds a record whose cross-log predecessor is
	// missing (ErrDependencyViolated). A run that commits at partitioned
	// speed but violates dependency order must fail here, not pass on
	// throughput alone.
	for _, m := range mems {
		m.CrashFreeze()
	}
	eng.Close()
	ml.Close()
	for _, m := range mems {
		m.Remount()
	}
	eng2, _, err := txn.Restart(rc)
	if err != nil {
		return run, fmt.Errorf("recovery after crash: %w", err)
	}
	eng2.Close()
	eng2.Multi().Close()
	return run, nil
}
