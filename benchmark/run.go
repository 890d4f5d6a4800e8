package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"aether"
)

// clients is how many sessions (or connections) drive a workload: the
// box has two cores, and every loop is closed, so two is the load at
// which neither the generator nor the engine is starved of a core.
// tpcb_sync alone uses one (tpcbVariants says why).
const clients = 2

// config is one run of one workload.
type config struct {
	workload string
	seed     int64
	budget   time.Duration // how long the run's cycles may take together (--seconds)
	scale    float64       // data-size factor; 1 except in the smoke test
	trace    bool
	dir      string // parent of the scratch databases
	outDir   string // result and trace files; "" writes none

	// sabotage, set only by the smoke test, names one correctness
	// check to feed a corrupted input (see the sabotage* constants).
	sabotage string
}

const (
	sabotageDropAck  = "drop-ack"  // delete the history row of one acknowledged commit
	sabotageDropRow  = "drop-row"  // lose one row of one scan range
	sabotageStaleRow = "stale-row" // rewrite one subscriber behind the model's back
)

// metric is one reported number. N, Tail and Max are filled for
// timings only.
type metric struct {
	Value   float64
	Unit    string
	N       int
	TailPct float64
	Tail    float64
	Max     float64
}

// result is what one run reports.
type result struct {
	Workload   string
	Seed       int64
	Traced     bool
	Correct    bool
	Attempted  int64
	Failed     int64
	Violations []string
	Notes      []string // printed with the metrics, not part of the result line
	Metrics    map[string]metric
}

// run is the state one workload run accumulates.
type run struct {
	cfg     config
	res     *result
	mu      sync.Mutex // guards res.Violations: both clients check what they read
	scratch string     // this run's scratch root, removed on exit
	tracers []*tracer
	epoch   time.Time
}

func newRun(cfg config) (*run, error) {
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(cfg.dir, cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	r := &run{cfg: cfg, scratch: scratch, epoch: time.Now(), res: &result{
		Workload: cfg.workload, Seed: cfg.seed, Traced: cfg.trace, Metrics: map[string]metric{},
	}}
	r.tracers = make([]*tracer, clients)
	if cfg.trace {
		for i := range r.tracers {
			r.tracers[i] = &tracer{client: i, epoch: r.epoch}
		}
	}
	return r, nil
}

// newDir makes a fresh database directory under the run's scratch root.
func (r *run) newDir() (string, error) { return os.MkdirTemp(r.scratch, "db-") }

// scaled shrinks a data size for the smoke test, never below min.
func (r *run) scaled(n, min int) int {
	if v := int(float64(n) * r.cfg.scale); v > min {
		return v
	}
	return min
}

// rng derives a generator's random stream from the run seed, so the
// same seed replays the same inputs and streams do not overlap.
func (r *run) rng(stream int) *rand.Rand {
	return rand.New(rand.NewSource(r.cfg.seed*1_000_003 + int64(stream)*7919 + 1))
}

// violate records a failed correctness check; the run still finishes
// and cleans up, then exits non-zero.
func (r *run) violate(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.res.Violations) < 20 {
		r.res.Violations = append(r.res.Violations, fmt.Sprintf(format, args...))
	}
}

// set reports a metric the benchmark defines (spec.go). A workload
// reports everything it measured; the run keeps what its mode carries —
// end-to-end metrics untraced, per-layer metrics traced — because
// end-to-end numbers are only ever taken with tracing off.
func (r *run) set(name string, value float64) { r.put(name, metric{Value: value}) }

// setTiming reports the median of a set of timings, with the sample
// count and the highest percentile the sample supports.
func (r *run) setTiming(name string, t timing) {
	r.put(name, metric{Value: t.P50, N: t.N, TailPct: t.TailPct, Tail: t.Tail, Max: t.Max})
}

func (r *run) put(name string, m metric) {
	def, ok := vocabulary[name]
	if !ok {
		panic("benchmark: metric " + name + " is not defined in spec.go")
	}
	if def.perLayer == r.cfg.trace {
		m.Unit = def.unit
		r.res.Metrics[name] = m
	}
}

// window bounds the commits a pipelined client keeps in flight: the
// client puts a token in before it begins a transaction, the durable-ack
// callback takes one out.
type window chan struct{}

// drain returns when no commit is in flight any more.
func (w window) drain() {
	for i := 0; i < cap(w); i++ {
		w <- struct{}{}
	}
	for i := 0; i < cap(w); i++ {
		<-w
	}
}

// eachClient runs fn once per client, each on its own goroutine, and
// waits for all n of them.
func eachClient(n int, fn func(client int)) {
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			fn(c)
		}(c)
	}
	wg.Wait()
}

// snapshot is what a cycle's work is charged with at one of its ends:
// the clock, the bytes allocated by the whole process (generator
// included) and the engine's counters.
type snapshot struct {
	at    time.Time
	alloc uint64
	stats aether.Stats
}

func takeSnapshot(db *aether.DB) snapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return snapshot{at: time.Now(), alloc: ms.TotalAlloc, stats: db.Stats()}
}

// cycle is what one cycle of a run measured. A run is a sequence of
// identical cycles — set up a fresh database, do a fixed amount of work
// on it, restart it, check it — and every metric is taken per cycle and
// reported as the middle of the cycles. Fixed work makes every cycle the
// same experiment whatever the speed of the box that minute (a timed
// phase would let a faster start grow the history table, and with it the
// heap and the slowdown, further); cycles spread every metric's samples,
// set-up and restart included, over the whole run, so a neighbour on the
// host that disturbs a few seconds of it moves a minority of them.
type cycle struct {
	setupS   float64   // open + load + checkpoint (+ reopen)
	recoverS []float64 // each restart, or DB.Crash
	secs     float64   // how long the work took
	acked    int64     // transactions acknowledged
	rows     int64     // rows that count towards rows_per_s
	latMs    []float64

	attempted, failed int64
	allocBytes        uint64 // allocated during the work
	allocOver         int64  // what alloc_bytes_per_txn divides them by
	logBytes, logTxns int64  // what log_bytes_per_txn divides

	// For the per-layer counters: the engine's counters around the work,
	// and the size of the log's segment files after it.
	before, after aether.Stats
	liveLogMiB    float64
}

// charge fills in what the two snapshots around a cycle's work say.
func (c *cycle) charge(before, after snapshot) {
	c.secs = after.at.Sub(before.at).Seconds()
	c.allocBytes = after.alloc - before.alloc
	c.logBytes = after.stats.LogBytes - before.stats.LogBytes
	c.before, c.after = before.stats, after.stats
}

// minCycles is the fewest cycles a run reports from, however little
// time it is given.
const minCycles = 3

// cycles calls one for cycle 0, 1, … until the next cycle would overrun
// the run's time, and reports the end-to-end metrics from all but the
// first, which warms the process up (the heap grows to its working
// size, the page cache takes the files' blocks) and is told not to trace.
func (r *run) cycles(one func(n int, counted bool) (cycle, error)) error {
	var counted []cycle
	var longest time.Duration
	for n, began := 0, time.Now(); len(counted) < minCycles || time.Since(began)+longest <= r.cfg.budget; n++ {
		start := time.Now()
		c, err := one(n, n > 0)
		if err != nil {
			return fmt.Errorf("cycle %d: %w", n, err)
		}
		// What a finished cycle leaves behind is collected before the
		// next begins, so that the peak is one cycle's, not two.
		runtime.GC()
		longest = max(longest, time.Since(start))
		if n > 0 {
			counted = append(counted, c)
		}
	}
	r.report(counted)
	return nil
}

// report fills the end-to-end metrics from the counted cycles: times,
// throughput and latency as the interquartile mean (or median) over the
// cycles, the per-transaction byte counts from totals over all of them.
func (r *run) report(cycles []cycle) {
	var setupS, recoverS, txnPerS, rowsPerS, p50, p99, all []float64
	var allocBytes, allocOver, logBytes, logTxns float64
	for _, c := range cycles {
		setupS = append(setupS, c.setupS)
		recoverS = append(recoverS, c.recoverS...)
		txnPerS = append(txnPerS, float64(c.acked)/c.secs)
		rowsPerS = append(rowsPerS, float64(c.rows)/c.secs)
		sort.Float64s(c.latMs)
		// The typical latency is the mean of the cycle's middle half, the
		// tail latency the mean of the one percent around its 99th
		// percentile (see bandMean).
		p50 = append(p50, bandMean(c.latMs, 0.25, 0.75))
		p99 = append(p99, bandMean(c.latMs, 0.985, 0.995))
		all = append(all, c.latMs...)
		allocBytes += float64(c.allocBytes)
		allocOver += float64(c.allocOver)
		logBytes += float64(c.logBytes)
		logTxns += float64(c.logTxns)
		r.res.Attempted += c.attempted
		r.res.Failed += c.failed
	}
	pooled := summarize(all)
	lat := func(v float64) metric {
		return metric{Value: v, N: pooled.N, TailPct: pooled.TailPct, Tail: pooled.Tail, Max: pooled.Max}
	}
	r.setTiming("setup_s", summarize(setupS))
	r.setTiming("recover_s", summarize(recoverS))
	r.set("txn_per_s", midmean(txnPerS))
	r.set("rows_per_s", midmean(rowsPerS))
	r.set("log_bytes_per_txn", ratio(logBytes, logTxns))
	r.set("alloc_bytes_per_txn", ratio(allocBytes, allocOver))
	// Latency is reported — by the traced run as metrics, by every run in
	// print — but gates nothing. In a closed loop the typical latency is
	// the commits in flight divided by the throughput, so a slow minute of
	// the host that costs a quarter of the throughput adds a third to the
	// latency; the tail sits on the edge between one tick of the flush
	// timer and the next. Both spread wider between runs of one binary
	// than a bound can be (README.md, "Where this departs").
	r.set("bench.traced_txn_per_s", midmean(txnPerS))
	r.put("bench.traced_lat_p50_ms", lat(midmean(p50)))
	r.put("bench.traced_lat_p99_ms", lat(midmean(p99)))
	r.res.Notes = append(r.res.Notes, fmt.Sprintf("latency: typical %.4f ms, tail (p99) %.4f ms, n=%d p%g=%.4f max=%.4f",
		midmean(p50), midmean(p99), pooled.N, pooled.TailPct, pooled.Tail, pooled.Max))
	// Every cycle has its own database; the last one's counters stand for all.
	last := cycles[len(cycles)-1]
	r.reportEngineCounters(last.before, last.after, last.acked, last.liveLogMiB)
}

// restartsPerCycle is how often a cycle restarts its database: a reopen
// takes tens of milliseconds, most of it waiting for the disk, and one
// sample per cycle leaves the median of a run at the mercy of a few.
const restartsPerCycle = 3

// restart checkpoints and closes db and times reopen — which must open
// the database, re-create its tables and rebuild them — restartsPerCycle
// times over. The workload's final checks run on the last reopened
// database, so they cover what survives a restart.
func (c *cycle) restart(db *aether.DB, reopen func() (*aether.DB, error)) error {
	for i := 0; i < restartsPerCycle; i++ {
		if err := db.Checkpoint(); err != nil {
			return fmt.Errorf("checkpoint before restart: %w", err)
		}
		if err := db.Close(); err != nil {
			return fmt.Errorf("close before restart: %w", err)
		}
		start := time.Now()
		var err error
		if db, err = reopen(); err != nil {
			return fmt.Errorf("reopen: %w", err)
		}
		c.recoverS = append(c.recoverS, time.Since(start).Seconds())
	}
	return nil
}

// finish adds what is only known at the very end.
func (r *run) finish() error {
	rss, err := peakRSSMiB()
	if err != nil {
		return err
	}
	r.set("peak_rss_mb", rss)
	r.res.Correct = len(r.res.Violations) == 0
	return r.checkMetrics()
}
