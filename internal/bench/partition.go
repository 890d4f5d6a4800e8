package bench

import (
	"fmt"
	"time"

	"aether/internal/logbuf"
	"aether/internal/logdev"
	"aether/internal/txn"
	"aether/internal/workload"
)

// PartitionConfig parameterizes the partition-scaling scenario: the same
// write-heavy workload (workload.Streams) is run on one lane and on
// partitionLanes lanes homed by table, every lane a simulated device
// bandwidth-bound at 8 MB/s, so the committed-bytes/s ratio isolates what
// splitting the log buys when the device, not the workload, is the
// bottleneck: N lanes offer N× the bandwidth.
type PartitionConfig struct {
	// Duration is the measured window per side; 0 is a full-scale
	// figure's window.
	Duration time.Duration
}

const (
	partitionLanes   = 4
	partitionClients = 16
)

// PartitionRun reports one side of the comparison.
type PartitionRun struct {
	// Partitions is this side's log count.
	Partitions int
	// Commits is the transactions committed in the window.
	Commits int64
	// BytesPerSec is the log bytes appended in the window, per second.
	BytesPerSec float64
	// Flushes is the device sync count across all partitions.
	Flushes int64
	// DepEdges counts cross-log flush dependencies observed at append
	// time (0 on the single-log side).
	DepEdges int64
	// DepChecks counts flush passes the dependency limiter judged: every
	// pass with released bytes to flush, whether it then synced or not.
	DepChecks int64
	// DepStalls counts those of them clamped below their buffered tail
	// waiting for another log.
	DepStalls int64
	// StallRate is DepStalls/DepChecks — the fraction of flush passes
	// the dependency limiter held back, between 0 and 1.
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
			fmt.Sprint(partitionClients),
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
	cfg := PartitionConfig{Duration: 500 * time.Millisecond}
	if scale.Quick {
		cfg.Duration = 250 * time.Millisecond
	}
	res, err := RunPartitions(cfg)
	if err != nil {
		return nil, err
	}
	return res.Table(), nil
}

// RunPartitions runs both sides through run, which power-cuts the
// partitioned side after its window and restarts it, so recovery's
// dependency verification passes judgment on the run: a dependency-order
// violation in any surviving lane fails the scenario.
func RunPartitions(cfg PartitionConfig) (PartitionResult, error) {
	var sides [2]PartitionRun
	for i, lanes := range []int{1, partitionLanes} {
		out, err := run(Scale{}, rig{
			variant:     logbuf.VariantCD,
			device:      logdev.Profile{Name: "sim-flash", SyncLatency: 100 * time.Microsecond, BytesPerSecond: 8 << 20},
			lanes:       lanes,
			homeByTable: true,
			load:        &workload.Streams{Clients: partitionClients},
			clients:     partitionClients,
			mode:        txn.CommitSync,
			duration:    cfg.Duration,
		})
		if err != nil {
			return PartitionResult{}, fmt.Errorf("%d-lane side: %w", lanes, err)
		}
		sides[i] = PartitionRun{
			Partitions:  lanes,
			Commits:     out.res.Completed,
			BytesPerSec: float64(out.bytes) / out.res.Elapsed.Seconds(),
			Flushes:     out.res.Flushes,
			DepEdges:    out.edges,
			DepChecks:   out.checks,
			DepStalls:   out.stalls,
			StallRate:   float64(out.stalls) / float64(max(out.checks, 1)),
		}
	}
	res := PartitionResult{Single: sides[0], Multi: sides[1]}
	if res.Single.BytesPerSec > 0 {
		res.Speedup = res.Multi.BytesPerSec / res.Single.BytesPerSec
	}
	return res, nil
}
