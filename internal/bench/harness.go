// Package bench implements the paper's evaluation section: one
// experiment per figure, each reproducing the corresponding workload,
// parameter sweep and output series, plus two scenarios (partition
// scaling, restore latency) kept here until ./benchmark has a workload
// for them. One registry (figures.go) names them all; the root-level
// bench_test.go and cmd/aetherbench expose them as testing.B benchmarks
// and a CLI. Every figure that drives the engine does it through one run
// loop, run in harness.go: assemble over txn.Restart, load, drive
// workload.RunClosedLoop, read the probes around it, close. The insert
// figures run RunMicro. The repository's benchmark — the one changes are
// measured against — is ./benchmark, not this package.
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
	"aether/internal/vfs"
	"aether/internal/workload"
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

// rig is one closed-loop run of a figure: the engine to assemble, the
// workload to load into it and how to drive it.
type rig struct {
	// variant selects the log-buffer insert algorithm.
	variant logbuf.Variant
	// device is the simulated log device latency class of every lane.
	device logdev.Profile
	// lanes is the log's lane count (0 or 1: one lane). With more, a
	// transaction's home lane is its ID modulo lanes, so consecutive
	// transactions land on different lanes, or with homeByTable the page
	// space of its first write modulo lanes (the engine's default).
	lanes       int
	homeByTable bool
	// log carries the flush daemon's settings; run fills in the buffer
	// and the device.
	log core.Config
	// load is the workload: Setup fills the empty database, Body is
	// each client's transaction.
	load interface {
		Setup(*txn.Engine) error
		Body() workload.Body
	}
	// clients and mode drive the closed loop.
	clients int
	mode    txn.CommitMode
	// penalty is the switch cost burnt after each blocking commit
	// (withSwitchPenalty); 0 burns none.
	penalty time.Duration
	// duration is the measured window; 0 is the scale's run length.
	duration time.Duration
}

// window is what the probes counted while a closed loop ran: the log
// buffer's two phases and the lock manager's waits, and the log counters
// Figure 13 reads, summed over lanes.
type window struct {
	logWork, logContention, lockWait       time.Duration
	bytes, edges, enforced, stalls, checks int64
}

// outcome is one run's measurements.
type outcome struct {
	res    workload.Result
	shares TimeShares
	window
}

// run opens an empty database the way every other assembly does, through
// txn.Restart — one log device per lane and a database file on one
// in-memory filesystem, and the lock manager with speculative lock
// inheritance — loads r's workload, drives it for the window and closes
// the database. Every experiment that runs the engine runs it here. A
// multi-lane run then cuts the power and restarts: recovery refuses lanes
// hardened out of dependency order (recovery.ErrDependencyViolated), and
// so does run, whatever it measured.
func run(scale Scale, r rig) (outcome, error) {
	bd := &metrics.Breakdown{}
	cfg := txn.RestartConfig{
		LogConfig:  r.log,
		LockConfig: lockmgr.Config{DeadlockTimeout: 250 * time.Millisecond, SLI: true},
	}
	cfg.LogConfig.Buffer = logbuf.Config{Variant: r.variant, Size: 1 << 24, Breakdown: bd}
	if n := uint64(r.lanes); n > 1 && !r.homeByTable {
		cfg.RoutePartition = func(txnID uint64, _ uint32) int { return int(txnID % n) }
	}
	fs := vfs.NewFaultFS(1)
	eng, stop, err := r.start(fs, cfg)
	defer func() { stop() }()
	if err != nil {
		return outcome{}, err
	}
	if err := r.load.Setup(eng); err != nil {
		return outcome{}, err
	}
	d := r.duration
	if d == 0 {
		d = scale.runFor()
	}
	var w window
	w.add(eng, bd, -1)
	res := workload.RunClosedLoop(eng, workload.Options{
		Clients: r.clients, Duration: d, Mode: r.mode,
	}, withSwitchPenalty(r.load.Body(), r.mode, r.penalty))
	w.add(eng, bd, 1)
	out := outcome{res: res, shares: shares(w, res, r.clients), window: w}
	if r.lanes <= 1 {
		return out, nil
	}
	// The power goes before the engine stops, so every lane stops at its
	// own durable watermark at once (DB.Crash's order).
	fs.PowerCut()
	stop()
	fs.Recover()
	if _, stop, err = r.start(fs, cfg); err != nil {
		return out, fmt.Errorf("bench: restart after the %d-lane window: %w", r.lanes, err)
	}
	return out, nil
}

// start opens r's lanes (segmented logs under /log paying r.device's
// response time) and database file on fs and starts an engine over them
// through txn.Restart, recovering what they hold. stop closes whatever
// start opened, also when it failed.
func (r rig) start(fs vfs.FS, cfg txn.RestartConfig) (eng *txn.Engine, stop func(), err error) {
	stop = func() {
		if eng != nil {
			eng.Close()
			eng.Multi().Close()
		}
		for _, d := range cfg.Devices {
			d.Close()
		}
		if cfg.Archive != nil {
			cfg.Archive.Close()
		}
	}
	for i, n := 0, max(r.lanes, 1); i < n; i++ {
		seg, err := logdev.OpenSegmentedDirFS(fs, logdev.LaneDir("/log", i, n), logdev.DefaultSegmentSize)
		if err != nil {
			return nil, stop, err
		}
		seg.SetProfile(r.device)
		cfg.Devices = append(cfg.Devices, seg)
	}
	pf, err := storage.OpenPageFileFS(fs, "/pagefile.db")
	if err != nil {
		return nil, stop, err
	}
	cfg.Archive = pf
	eng, _, err = txn.Restart(cfg)
	return eng, stop, err
}

// add adds sign times the probes' running totals to w: subtracting them
// before the loop and adding them after leaves what the loop counted.
func (w *window) add(eng *txn.Engine, bd *metrics.Breakdown, sign int64) {
	ml := eng.Multi()
	w.logWork += time.Duration(sign) * bd.Get(metrics.PhaseLogWork)
	w.logContention += time.Duration(sign) * bd.Get(metrics.PhaseLogContention)
	w.lockWait += time.Duration(sign) * eng.Locks().Stats().WaitTime.Sum()
	w.edges += sign * ml.EdgesTotal()
	w.enforced += sign * ml.EdgesEnforced()
	for i := 0; i < ml.NumParts(); i++ {
		w.bytes += sign * ml.Part(i).Stats().InsertBytes.Load()
		w.stalls += sign * ml.DepStalls(i)
		w.checks += sign * ml.DepChecks(i)
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

// shares converts a run's window into machine-time fractions; idle is
// the time its clients spent in blocking commits (res.CommitWait).
func shares(w window, res workload.Result, clients int) TimeShares {
	capacity := float64(clients) * res.Elapsed.Seconds()
	if capacity <= 0 {
		return TimeShares{}
	}
	lw := w.logWork.Seconds() / capacity
	lc := w.logContention.Seconds() / capacity
	idle := res.CommitWait.Seconds() / capacity
	lockW := w.lockWait.Seconds() / capacity
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
