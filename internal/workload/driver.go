package workload

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"aether/internal/lockmgr"
	"aether/internal/txn"
)

// Client is one closed-loop client: a goroutine that runs transactions
// back to back on its own agent context, exactly like a Shore-MT agent
// thread serving one client connection.
type Client struct {
	// ID is the client index, 0-based.
	ID int
	// Agent is the client's transaction context.
	Agent *txn.Agent
	// Rng is the client's private random stream.
	Rng *rand.Rand

	drv *driver
}

// Body is one transaction execution. It begins, runs and finishes
// (commit via c.CommitTxn, or abort) a single transaction. A returned
// error other than those from CommitTxn counts as an abort.
type Body func(c *Client) error

// Options configures a closed-loop run.
type Options struct {
	// Clients is the number of concurrent client goroutines.
	Clients int
	// Duration is how long to drive load.
	Duration time.Duration
	// Mode is the commit protocol clients use via CommitTxn.
	Mode txn.CommitMode
	// Seed makes runs reproducible (per-client streams derive from it).
	Seed int64
}

// Result is what a run measured.
type Result struct {
	// Completed counts transactions whose commit was acknowledged
	// durably (or instantly, for CommitAsync) before the run drained.
	Completed int64
	// Aborted counts aborted transactions (deadlock victims included).
	Aborted int64
	// Elapsed is the measured wall-clock interval.
	Elapsed time.Duration
	// BusyTime is the wall-clock the clients spent NOT blocked in the
	// body (total across clients). Utilization estimates derive from it.
	BusyTime time.Duration
	// Switches counts agent-thread scheduling events (blocking commit
	// waits plus blocking lock waits) during the run.
	Switches int64
	// CommitBlocks counts only the log-flush blocks, on every lane — the
	// per-commit context switches flush pipelining eliminates (Figure 4's
	// metric).
	CommitBlocks int64
	// LockBlocks counts blocking lock waits.
	LockBlocks int64
	// Flushes counts log device syncs during the run, summed over lanes.
	Flushes int64
	// CommitWait is the wall-clock the clients spent inside blocking
	// commits (CommitSync, CommitSyncELR), summed over clients: the
	// flush wait the paper's time breakdowns plot as idle. The detaching
	// modes never block on the log, so under them it is 0.
	CommitWait time.Duration
}

// CommitBlockRate returns commit-blocking scheduling events per second.
func (r Result) CommitBlockRate() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.CommitBlocks) / r.Elapsed.Seconds()
}

// Throughput returns completed transactions per second.
func (r Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Completed) / r.Elapsed.Seconds()
}

// Utilization returns the average number of busy clients (an estimate of
// CPUs kept busy, before capping at the machine's core count).
func (r Result) Utilization() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return r.BusyTime.Seconds() / r.Elapsed.Seconds()
}

// SwitchRate returns scheduling events per second.
func (r Result) SwitchRate() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Switches) / r.Elapsed.Seconds()
}

// String renders the one-line summary experiment tables print.
func (r Result) String() string {
	return fmt.Sprintf("%.0f tps (completed %d, aborted %d, util %.1f, %.0f switches/s)",
		r.Throughput(), r.Completed, r.Aborted, r.Utilization(), r.SwitchRate())
}

type driver struct {
	mode      txn.CommitMode
	completed atomic.Int64
	aborted   atomic.Int64
	wait      atomic.Int64 // ns spent in blocking commits
	inflight  sync.WaitGroup
	stopped   atomic.Bool
}

// CommitTxn commits tx under the driver's commit mode and wires the
// completion accounting. For pipelined modes it returns immediately; the
// driver waits for all outstanding acknowledgements before reporting.
// A blocking commit is timed into the run's CommitWait.
func (c *Client) CommitTxn(tx *txn.Txn) error {
	d := c.drv
	d.inflight.Add(1)
	if d.mode.Blocking() {
		defer func(t0 time.Time) { d.wait.Add(int64(time.Since(t0))) }(time.Now())
	}
	err := tx.Commit(d.mode, func(err error) {
		if err == nil {
			d.completed.Add(1)
		} else {
			d.aborted.Add(1)
		}
		d.inflight.Done()
	})
	if err != nil {
		// The synchronous part failed; the callback never fires.
		d.inflight.Done()
		d.aborted.Add(1)
	}
	return err
}

// AbortTxn aborts tx with accounting (deadlock victims call this).
func (c *Client) AbortTxn(tx *txn.Txn) error {
	err := tx.Abort()
	c.drv.aborted.Add(1)
	return err
}

// RunClosedLoop drives body with opts.Clients concurrent closed-loop
// clients for opts.Duration and reports aggregate results. It snapshots
// the engine's switch-relevant counters around the run, so results
// reflect only this run's activity.
func RunClosedLoop(eng *txn.Engine, opts Options, body Body) Result {
	if opts.Clients <= 0 {
		opts.Clients = 1
	}
	if opts.Duration <= 0 {
		opts.Duration = time.Second
	}
	d := &driver{mode: opts.Mode}

	commitBlocks0, flushes0 := logCounters(eng)
	lockBlocks0 := eng.Locks().Stats().Blocks.Load()

	var busy atomic.Int64
	start := time.Now()
	deadline := start.Add(opts.Duration)
	var wg sync.WaitGroup
	for i := 0; i < opts.Clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := &Client{
				ID:    i,
				Agent: eng.NewAgent(),
				Rng:   rand.New(rand.NewSource(opts.Seed + int64(i)*104729 + 1)),
				drv:   d,
			}
			defer c.Agent.Close()
			var clientBusy time.Duration
			for time.Now().Before(deadline) && !d.stopped.Load() {
				t0 := time.Now()
				if err := body(c); err != nil {
					d.aborted.Add(1)
				}
				clientBusy += time.Since(t0)
			}
			busy.Add(int64(clientBusy))
		}(i)
	}
	wg.Wait()
	// Drain pipelined acknowledgements so Completed is exact: flush every
	// lane, without waiting on any (a wait would count as a commit block).
	ml := eng.Multi()
	for i := 0; i < ml.NumParts(); i++ {
		ml.Part(i).Flush()
	}
	d.inflight.Wait()
	elapsed := time.Since(start)

	commitBlocks, flushes := logCounters(eng)
	commitBlocks -= commitBlocks0
	lockBlocks := eng.Locks().Stats().Blocks.Load() - lockBlocks0
	return Result{
		Completed:    d.completed.Load(),
		Aborted:      d.aborted.Load(),
		Elapsed:      elapsed,
		BusyTime:     time.Duration(busy.Load()),
		Switches:     commitBlocks + lockBlocks,
		CommitBlocks: commitBlocks,
		LockBlocks:   lockBlocks,
		Flushes:      flushes - flushes0,
		CommitWait:   time.Duration(d.wait.Load()),
	}
}

// logCounters sums the blocking commit waits and the flushes of every
// lane: a blocking commit waits on its home lane, which need not be lane 0.
func logCounters(eng *txn.Engine) (commitBlocks, flushes int64) {
	ml := eng.Multi()
	for i := 0; i < ml.NumParts(); i++ {
		st := ml.Part(i).Stats()
		commitBlocks += st.SyncWaiters.Load()
		flushes += st.Flushes.Load()
	}
	return commitBlocks, flushes
}

// IsDeadlock reports whether err is a deadlock-timeout abort, which
// workload bodies treat as a routine abort-and-retry.
func IsDeadlock(err error) bool {
	return errors.Is(err, lockmgr.ErrLockTimeout)
}
