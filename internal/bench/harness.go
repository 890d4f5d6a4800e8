// Package bench implements the paper's evaluation section: one
// experiment per figure, each reproducing the corresponding workload,
// parameter sweep and output series, plus two scenarios (partition
// scaling, restore latency) kept here until ./benchmark has a workload
// for them. One registry (figures.go) names them all; the root-level
// bench_test.go and cmd/aetherbench expose them as testing.B benchmarks
// and a CLI. The repository's benchmark — the one changes are measured
// against — is ./benchmark, not this package.
//
// Absolute numbers differ from the paper's Sun Niagara II + Solaris
// testbed; what the experiments reproduce is the *shape* of each figure:
// who wins, by roughly what factor, and where the crossovers sit.
package bench

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"aether/internal/core"
	"aether/internal/lockmgr"
	"aether/internal/logbuf"
	"aether/internal/logdev"
	"aether/internal/metrics"
	"aether/internal/storage"
	"aether/internal/txn"
)

// Scale selects experiment sizing. Quick keeps everything test-friendly
// (sub-second runs, small datasets); Full approximates the paper's
// sweeps within a laptop-class budget.
type Scale struct {
	// Quick selects the fast, test-scale parameters.
	Quick bool
}

// runFor returns the measurement duration for this scale.
func (s Scale) runFor() time.Duration {
	if s.Quick {
		return 150 * time.Millisecond
	}
	return 2 * time.Second
}

// clientSweep returns the client-count x-axis (the paper sweeps 1..64 on
// a 64-context machine; we sweep up to ~2×cores to show saturation).
func (s Scale) clientSweep() []int {
	max := runtime.GOMAXPROCS(0)
	if s.Quick {
		return []int{1, 4, 8}
	}
	sweep := []int{1, 2, 4, 8, 12, 16}
	for c := 24; c <= 2*max && c <= 64; c += 8 {
		sweep = append(sweep, c)
	}
	return sweep
}

// threadSweep is the microbenchmark thread axis. It stays within the
// machine's core count: the paper's spin-wait designs (D, CD) assume a
// hardware context per thread (their T2 had 64); oversubscribing Go's
// M:N scheduler with spin-waiting threads collapses the release chain
// instead of saturating it, which would measure the runtime rather than
// the algorithms.
func (s Scale) threadSweep() []int {
	if s.Quick {
		return []int{1, 2, 4, 8}
	}
	max := runtime.GOMAXPROCS(0) - 2 // leave room for the drain + daemon
	sweep := []int{1, 2, 4, 8}
	for c := 12; c <= max && c <= 64; c += 4 {
		sweep = append(sweep, c)
	}
	return sweep
}

// microThreads is the fixed "high" thread count for record-size sweeps,
// bounded for the same reason as threadSweep.
func (s Scale) microThreads() int {
	if s.Quick {
		return 8
	}
	max := runtime.GOMAXPROCS(0) - 4
	if max < 4 {
		max = 4
	}
	if max > 64 {
		max = 64
	}
	return max
}

// EngineConfig assembles a full engine for workload experiments.
type EngineConfig struct {
	// Variant selects the log-buffer insert algorithm.
	Variant logbuf.Variant
	// Device is the simulated log device latency class of every lane.
	Device logdev.Profile
	// Lanes is the log's lane count (0 or 1: one lane). With more, a
	// transaction's home lane is its ID modulo Lanes, so consecutive
	// transactions land on different lanes.
	Lanes int
	// Log carries the flush daemon's settings; the rig fills in the
	// buffer, the device and the breakdown probes.
	Log core.Config
}

// Rig is an assembled engine plus the probes the experiments read.
type Rig struct {
	// Eng is the assembled transaction engine.
	Eng *txn.Engine
	// Breakdown holds the time-breakdown probes attached to the log.
	Breakdown *metrics.Breakdown
}

// Close shuts the engine's daemons down, then its log.
func (r *Rig) Close() {
	r.Eng.Close()
	r.Eng.Multi().Close()
}

// NewRig opens an empty database the way every other assembly does,
// through txn.Restart: one log device per lane and a database file, each
// on an in-memory filesystem, and the lock manager with speculative lock
// inheritance.
func NewRig(cfg EngineConfig) (*Rig, error) {
	bd := &metrics.Breakdown{}
	devs := make([]logdev.Device, max(cfg.Lanes, 1))
	for i := range devs {
		devs[i] = logdev.NewMem(cfg.Device)
	}
	var route func(txnID uint64, space uint32) int
	if n := uint64(len(devs)); n > 1 {
		route = func(txnID uint64, _ uint32) int { return int(txnID % n) }
	}
	lc := cfg.Log
	lc.Buffer = logbuf.Config{Variant: cfg.Variant, Size: 1 << 24, Breakdown: bd}
	lc.Breakdown = bd
	eng, _, err := txn.Restart(txn.RestartConfig{
		Devices:        devs,
		RoutePartition: route,
		Archive:        storage.NewMemArchive(),
		LogConfig:      lc,
		LockConfig:     lockmgr.Config{DeadlockTimeout: 250 * time.Millisecond, SLI: true},
	})
	if err != nil {
		return nil, err
	}
	return &Rig{Eng: eng, Breakdown: bd}, nil
}

// BreakdownSnapshot captures the probe state so a run's delta can be
// computed.
type BreakdownSnapshot struct {
	logWork, logContention, logWait time.Duration
	lockWait                        time.Duration
}

// Snapshot reads the current probe totals.
func (r *Rig) Snapshot() BreakdownSnapshot {
	return BreakdownSnapshot{
		logWork:       r.Breakdown.Get(metrics.PhaseLogWork),
		logContention: r.Breakdown.Get(metrics.PhaseLogContention),
		logWait:       r.Breakdown.Get(metrics.PhaseLogWait),
		lockWait:      r.Eng.Locks().Stats().WaitTime.Sum(),
	}
}

// TimeShares is a machine-utilization breakdown in the style of the
// paper's Figures 2 and 7: fractions of total machine time (clients ×
// wall clock).
type TimeShares struct {
	// OtherWork is useful transaction work outside the log.
	OtherWork float64
	// OtherContention is blocking lock waits.
	OtherContention float64
	// LogWork is time copying records into the log buffer.
	LogWork float64
	// LogContention is time fighting for the log buffer.
	LogContention float64
	// Idle is agent time blocked on commit flushes (descheduled).
	Idle float64
}

// String renders the shares as the paper's breakdown rows.
func (t TimeShares) String() string {
	return fmt.Sprintf("other-work %.0f%% | lock-contention %.0f%% | log-work %.0f%% | log-contention %.0f%% | idle %.0f%%",
		t.OtherWork*100, t.OtherContention*100, t.LogWork*100, t.LogContention*100, t.Idle*100)
}

// Shares converts probe deltas over a run into machine-time fractions.
func Shares(before, after BreakdownSnapshot, clients int, elapsed time.Duration) TimeShares {
	capacity := float64(clients) * elapsed.Seconds()
	if capacity <= 0 {
		return TimeShares{}
	}
	lw := (after.logWork - before.logWork).Seconds() / capacity
	lc := (after.logContention - before.logContention).Seconds() / capacity
	idle := (after.logWait - before.logWait).Seconds() / capacity
	lockW := (after.lockWait - before.lockWait).Seconds() / capacity
	other := 1 - lw - lc - idle - lockW
	if other < 0 {
		other = 0
	}
	return TimeShares{
		OtherWork:       other,
		OtherContention: clamp01(lockW),
		LogWork:         clamp01(lw),
		LogContention:   clamp01(lc),
		Idle:            clamp01(idle),
	}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Table renders aligned experiment output.
type Table struct {
	// Title heads the rendered block.
	Title string
	// Columns names the columns.
	Columns []string
	// Rows holds pre-formatted cells.
	Rows [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// String renders the table.
func (t *Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], cell)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return sb.String()
}
