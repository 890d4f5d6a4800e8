package bench

import (
	"fmt"
	"time"

	"aether/internal/logbuf"
	"aether/internal/logdev"
	"aether/internal/txn"
	"aether/internal/workload"
)

// This file implements one experiment per figure of the paper's
// evaluation. Each returns a Table whose rows mirror the figure's series.

// switchPenalty models the scheduler cost of descheduling and
// redispatching an agent thread after a blocking commit ("each scheduling
// decision consumes several microseconds of CPU time which cannot be
// overlapped", §4). Go's scheduler is too cheap to show the paper's
// Solaris overload on its own, so Figs. 2 and 4 burn it deterministically.
const switchPenalty = 10 * time.Microsecond

// withSwitchPenalty wraps body so that each transaction a blocking commit
// mode acknowledged is followed by d of unoverlappable CPU on its client —
// the rig's own stand-in for the context switch, kept off the engine's
// commit path.
func withSwitchPenalty(body workload.Body, mode txn.CommitMode, d time.Duration) workload.Body {
	if d <= 0 || !mode.Blocking() {
		return body
	}
	return func(c *workload.Client) error {
		err := body(c)
		if err == nil {
			for deadline := time.Now().Add(d); time.Now().Before(deadline); {
			}
		}
		return err
	}
}

// Fig2 reproduces Figure 2: the CPU-time breakdown of TPC-B as the
// log-related bottlenecks are removed one by one. Bar 1 (baseline sync
// commit): the machine idles most of the time, blocked on log flushes
// while holding locks. Bar 2 (+ELR): lock contention melts, idle
// shrinks but scheduling overhead remains. Bar 3 (+flush pipelining):
// the machine saturates and log-buffer contention becomes visible.
func Fig2(scale Scale) (*Table, error) {
	clients := 20
	if scale.Quick {
		clients = 8
	}
	type cfg struct {
		name    string
		mode    txn.CommitMode
		penalty time.Duration
	}
	cfgs := []cfg{
		{"log-io-latency (baseline)", txn.CommitSync, 0},
		{"os-scheduler (+ELR)", txn.CommitSyncELR, switchPenalty},
		{"log-buffer-contention (+pipelining)", txn.CommitPipelined, 0},
	}
	t := &Table{
		Title:   "Figure 2: machine-time breakdown, TPC-B, removing log bottlenecks",
		Columns: []string{"config", "idle%", "lock-cont%", "log-cont%", "log-work%", "other%", "ktps"},
	}
	for _, c := range cfgs {
		out, err := run(scale, rig{
			variant: logbuf.VariantBaseline,
			device:  logdev.ProfileFlash,
			load:    tpcb(scale, 0.85),
			clients: clients,
			mode:    c.mode,
			penalty: c.penalty,
		})
		if err != nil {
			return nil, err
		}
		sh := out.shares
		t.AddRow(c.name,
			fmt.Sprintf("%.0f", sh.Idle*100),
			fmt.Sprintf("%.0f", sh.OtherContention*100),
			fmt.Sprintf("%.0f", sh.LogContention*100),
			fmt.Sprintf("%.0f", sh.LogWork*100),
			fmt.Sprintf("%.0f", sh.OtherWork*100),
			fmt.Sprintf("%.1f", out.res.Throughput()/1000))
	}
	return t, nil
}

// Fig3 reproduces Figure 3: speedup of ELR over the lock-holding
// baseline as access skew and log-device latency vary. The paper's
// shape: negligible gain at low skew, a broad sweet spot in the middle
// (up to 35x on a slow disk, ~2x on flash), converging again at extreme
// skew.
func Fig3(scale Scale) (*Table, error) {
	skews := []float64{0, 0.5, 0.85, 1.25, 2.0, 3.0}
	devices := []logdev.Profile{logdev.ProfileMemory, logdev.ProfileFlash, logdev.ProfileFastDisk}
	clients := 16
	if scale.Quick {
		skews = []float64{0, 0.85, 2.0}
		devices = []logdev.Profile{logdev.ProfileMemory, logdev.ProfileFlash}
		clients = 8
	}
	t := &Table{
		Title:   "Figure 3: ELR speedup vs access skew and log-device latency (TPC-B)",
		Columns: append([]string{"device"}, skewCols(skews)...),
	}
	for _, dev := range devices {
		row := []string{dev.Name}
		for _, s := range skews {
			speedup, err := elrSpeedup(scale, dev, s, clients)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.2fx", speedup))
		}
		t.AddRow(row...)
	}
	return t, nil
}

func skewCols(skews []float64) []string {
	out := make([]string, len(skews))
	for i, s := range skews {
		out[i] = fmt.Sprintf("s=%.2f", s)
	}
	return out
}

func elrSpeedup(scale Scale, dev logdev.Profile, skew float64, clients int) (float64, error) {
	tps := func(mode txn.CommitMode) (float64, error) {
		out, err := run(scale, rig{
			variant: logbuf.VariantCD,
			device:  dev,
			load:    tpcb(scale, skew),
			clients: clients,
			mode:    mode,
		})
		return out.res.Throughput(), err
	}
	base, err := tps(txn.CommitSync)
	if err != nil {
		return 0, err
	}
	elr, err := tps(txn.CommitSyncELR)
	if err != nil {
		return 0, err
	}
	if base <= 0 {
		return 0, fmt.Errorf("bench: baseline produced no throughput")
	}
	return elr / base, nil
}

// Fig4 reproduces Figure 4: scheduler activity vs client count, without
// and with flush pipelining. Series per client count: commit-blocking
// events per second (the context switches the paper plots), utilization
// (busy client-threads), and modeled system time.
func Fig4(scale Scale) (*Table, error) {
	t := &Table{
		Title:   "Figure 4: commit-blocking context switches and utilization vs clients (TPC-B)",
		Columns: []string{"clients", "base switch/s", "base /txn", "base util", "pipe switch/s", "pipe /txn", "pipe util"},
	}
	for _, clients := range scale.clientSweep() {
		base, err := fig4Run(scale, txn.CommitSync, clients)
		if err != nil {
			return nil, err
		}
		pipe, err := fig4Run(scale, txn.CommitPipelined, clients)
		if err != nil {
			return nil, err
		}
		perTxn := func(r workload.Result) float64 {
			if r.Completed == 0 {
				return 0
			}
			return float64(r.CommitBlocks) / float64(r.Completed)
		}
		t.AddRow(fmt.Sprint(clients),
			fmt.Sprintf("%.0f", base.CommitBlockRate()),
			fmt.Sprintf("%.2f", perTxn(base)),
			fmt.Sprintf("%.1f", base.Utilization()),
			fmt.Sprintf("%.0f", pipe.CommitBlockRate()),
			fmt.Sprintf("%.2f", perTxn(pipe)),
			fmt.Sprintf("%.1f", pipe.Utilization()))
	}
	return t, nil
}

func fig4Run(scale Scale, mode txn.CommitMode, clients int) (workload.Result, error) {
	out, err := run(scale, rig{
		variant: logbuf.VariantCD,
		device:  logdev.ProfileFlash,
		load:    tpcb(scale, 0),
		clients: clients,
		mode:    mode,
		penalty: switchPenalty,
	})
	return out.res, err
}

// Fig5 reproduces Figure 5: TPC-B throughput vs clients for the
// baseline, unsafe asynchronous commit, and flush pipelining. The
// paper's shape: pipelining tracks async commit (within noise) and both
// beat the baseline by ~20%+ at high client counts.
func Fig5(scale Scale) (*Table, error) {
	modes := []txn.CommitMode{txn.CommitSync, txn.CommitAsync, txn.CommitPipelined}
	t := &Table{
		Title:   "Figure 5: TPC-B throughput (ktps) vs clients",
		Columns: []string{"clients", "baseline", "async-commit", "flush-pipelining"},
	}
	for _, clients := range scale.clientSweep() {
		row := []string{fmt.Sprint(clients)}
		for _, mode := range modes {
			res, err := fig4Run(scale, mode, clients)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.1f", res.Throughput()/1000))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Fig7 reproduces Figure 7: the time breakdown of TATP UpdateLocation
// with ELR and flush pipelining active, as load increases — the
// log-buffer contention share grows with load, which is the motivation
// for §5's buffer designs.
func Fig7(scale Scale) (*Table, error) {
	t := &Table{
		Title:   "Figure 7: time breakdown vs load, TATP UpdateLocation (ELR+pipelining, baseline buffer)",
		Columns: []string{"clients", "log-cont%", "log-work%", "lock-cont%", "other%", "ktps"},
	}
	for _, clients := range scale.clientSweep() {
		out, err := run(scale, rig{
			variant: logbuf.VariantBaseline,
			device:  logdev.ProfileMemory,
			load:    updateLocation(scale),
			clients: clients,
			mode:    txn.CommitPipelined,
		})
		if err != nil {
			return nil, err
		}
		sh := out.shares
		t.AddRow(fmt.Sprint(clients),
			fmt.Sprintf("%.1f", sh.LogContention*100),
			fmt.Sprintf("%.1f", sh.LogWork*100),
			fmt.Sprintf("%.1f", sh.OtherContention*100),
			fmt.Sprintf("%.1f", (sh.OtherWork+sh.Idle)*100),
			fmt.Sprintf("%.1f", out.res.Throughput()/1000))
	}
	return t, nil
}

// Fig8Left reproduces Figure 8 (left): log-insert throughput vs thread
// count at 120B records for every buffer variant. Paper shape: baseline
// saturates early (~0.14GB/s there), C overtakes it under contention, D
// is fast but degrades, CD scales near-linearly.
func Fig8Left(scale Scale) (*Table, error) {
	variants := []logbuf.Variant{logbuf.VariantBaseline, logbuf.VariantC, logbuf.VariantD, logbuf.VariantCD, logbuf.VariantCDME}
	t := &Table{
		Title:   "Figure 8 (left): insert throughput (GB/s), 120B records vs thread count",
		Columns: append([]string{"threads"}, variantCols(variants)...),
	}
	for _, threads := range scale.threadSweep() {
		row := []string{fmt.Sprint(threads)}
		for _, v := range variants {
			cell, err := microCell(scale, MicroConfig{Variant: v, Threads: threads, RecordSize: 120})
			if err != nil {
				return nil, err
			}
			row = append(row, cell)
		}
		t.AddRow(row...)
	}
	return t, nil
}

// microCell runs one insert microbenchmark for the scale's run length and
// formats its bandwidth as a GB/s cell.
func microCell(scale Scale, cfg MicroConfig) (string, error) {
	cfg.Duration = scale.runFor()
	res, err := RunMicro(cfg)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%.3f", res.GBps()), nil
}

func variantCols(vs []logbuf.Variant) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.String()
	}
	return out
}

// Fig8Right reproduces Figure 8 (right): bandwidth vs record size at a
// fixed high thread count, including the cache-resident "CD in L1"
// series that keeps scaling after the shared-memory variants hit the
// machine's bandwidth wall.
func Fig8Right(scale Scale) (*Table, error) {
	variants := []logbuf.Variant{logbuf.VariantBaseline, logbuf.VariantC, logbuf.VariantD, logbuf.VariantCD}
	sizes := []int{48, 120, 360, 1200, 4096, 12000}
	threads := scale.microThreads()
	if scale.Quick {
		sizes = []int{48, 360, 4096}
	}
	t := &Table{
		Title:   fmt.Sprintf("Figure 8 (right): bandwidth (GB/s) vs record size, %d threads", threads),
		Columns: append(append([]string{"record"}, variantCols(variants)...), "CD-in-L1"),
	}
	for _, size := range sizes {
		row := []string{fmt.Sprint(size)}
		for _, v := range variants {
			cell, err := microCell(scale, MicroConfig{Variant: v, Threads: threads, RecordSize: size})
			if err != nil {
				return nil, err
			}
			row = append(row, cell)
		}
		cell, err := microCell(scale, MicroConfig{
			Variant:    logbuf.VariantCD,
			Threads:    threads,
			RecordSize: size,
			LocalFill:  true,
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(append(row, cell)...)
	}
	return t, nil
}

// Fig9 reproduces Figure 9: end-to-end TATP UpdateLocation throughput
// as Aether's components stack up — baseline, +ELR+flush pipelining,
// and full Aether (pipelining plus the hybrid CD buffer). Paper shape:
// pipelining is the big win (~68%), the scalable buffer adds a further
// single-digit percentage at today's core counts.
func Fig9(scale Scale) (*Table, error) {
	type variant struct {
		name string
		mode txn.CommitMode
		buf  logbuf.Variant
	}
	variants := []variant{
		{"baseline", txn.CommitSync, logbuf.VariantBaseline},
		{"pipelining+ELR", txn.CommitPipelined, logbuf.VariantBaseline},
		{"aether", txn.CommitPipelined, logbuf.VariantCD},
	}
	t := &Table{
		Title:   "Figure 9: TATP UpdateLocation throughput (ktps) vs clients",
		Columns: []string{"clients", "baseline", "pipelining+ELR", "aether"},
	}
	for _, clients := range scale.clientSweep() {
		row := []string{fmt.Sprint(clients)}
		for _, v := range variants {
			out, err := run(scale, rig{
				variant: v.buf,
				device:  logdev.ProfileFlash,
				load:    updateLocation(scale),
				clients: clients,
				mode:    v.mode,
			})
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.1f", out.res.Throughput()/1000))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Fig11 reproduces Figure 11: CD vs CDME under a strongly bimodal
// record-size distribution (one outlier per 60 small records). Paper
// shape: the two track each other until ~8KiB outliers, then CD
// plateaus while CDME keeps scaling (up to ~2x past 64KiB), at the cost
// of ~10% under no skew.
func Fig11(scale Scale) (*Table, error) {
	outliers := []int{512, 2048, 8192, 16384, 65536, 262144}
	threads := scale.microThreads()
	if scale.Quick {
		outliers = []int{512, 16384}
	}
	t := &Table{
		Title:   "Figure 11: bimodal skew (48B + outlier every 60 inserts), GB/s",
		Columns: []string{"outlier", "CD", "CDME"},
	}
	for _, out := range outliers {
		row := []string{fmt.Sprint(out)}
		for _, v := range []logbuf.Variant{logbuf.VariantCD, logbuf.VariantCDME} {
			cell, err := microCell(scale, MicroConfig{
				Variant:      v,
				Threads:      threads,
				RecordSize:   48,
				OutlierEvery: 60,
				OutlierSize:  out,
			})
			if err != nil {
				return nil, err
			}
			row = append(row, cell)
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Fig12 reproduces Figure 12: sensitivity of the consolidation array to
// its slot count across thread counts. Paper shape: peak performance at
// 3–4 slots; fewer slots choke high thread counts, more slots dilute
// consolidation.
func Fig12(scale Scale) (*Table, error) {
	slots := []int{1, 2, 3, 4, 6, 8, 10}
	threads := scale.threadSweep()
	if scale.Quick {
		slots = []int{1, 4, 8}
	}
	cols := []string{"threads"}
	for _, s := range slots {
		cols = append(cols, fmt.Sprintf("%d-slot", s))
	}
	t := &Table{
		Title:   "Figure 12: consolidation-array slot sensitivity (GB/s, variant C, 120B)",
		Columns: cols,
	}
	for _, th := range threads {
		row := []string{fmt.Sprint(th)}
		for _, s := range slots {
			cell, err := microCell(scale, MicroConfig{Variant: logbuf.VariantC, Threads: th, RecordSize: 120, Slots: s})
			if err != nil {
				return nil, err
			}
			row = append(row, cell)
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Fig13 reproduces Figure 13 / §A.5 on the engine's own partitioned log:
// for N = 1, 2, 4, 8 it loads the TPC-C subset on an N-lane rig whose
// transactions are homed on lane ID mod N, drives the same closed loop, and
// reads the lanes' counters over the measured window. An edge is a page
// update whose previous update sits on another lane; it is enforced when
// that older record was not yet durable, so the younger lane could not
// harden past it first (the engine's "tight"). Paper finding: dependencies
// are pervasive and overwhelmingly tight, and most commits end up flushing
// more than one log, making intra-node log distribution unattractive.
func Fig13(scale Scale) (*Table, error) {
	rows, err := fig13Rows(scale)
	if err != nil {
		return nil, err
	}
	return fig13Table(rows), nil
}

func fig13Table(rows []fig13Row) *Table {
	t := &Table{
		Title:   "Figure 13: inter-log dependencies of TPC-C on an N-lane log, homed by transaction",
		Columns: []string{"logs", "commits", "kb", "edges", "edges/KB", "enforced%", "dep stalls", "flush/commit"},
	}
	for _, r := range rows {
		t.AddRow(fmt.Sprint(r.lanes),
			fmt.Sprint(r.res.Completed),
			fmt.Sprintf("%.1f", r.kb()),
			fmt.Sprint(r.edges),
			fmt.Sprintf("%.1f", r.edgesPerKB()),
			fmt.Sprintf("%.0f", r.enforcedFrac()*100),
			fmt.Sprint(r.stalls),
			fmt.Sprintf("%.2f", r.flushesPerCommit()))
	}
	return t
}

// fig13Row is one lane count's window of Figure 13: what the engine's
// counters moved by while the closed loop ran.
type fig13Row struct {
	lanes int
	outcome
}

func (r fig13Row) kb() float64 { return float64(r.bytes) / 1024 }

func (r fig13Row) edgesPerKB() float64 {
	if r.bytes == 0 {
		return 0
	}
	return float64(r.edges) / r.kb()
}

func (r fig13Row) enforcedFrac() float64 {
	if r.edges == 0 {
		return 0
	}
	return float64(r.enforced) / float64(r.edges)
}

func (r fig13Row) flushesPerCommit() float64 {
	if r.res.Completed == 0 {
		return 0
	}
	return float64(r.res.Flushes) / float64(r.res.Completed)
}

func fig13Rows(scale Scale) ([]fig13Row, error) {
	var rows []fig13Row
	for _, lanes := range []int{1, 2, 4, 8} {
		w := workload.NewTPCC()
		if scale.Quick {
			w.Warehouses = 2
			w.CustomersPerDistrict = 50
			w.ItemsPerWarehouse = 200
		}
		out, err := run(scale, rig{
			variant: logbuf.VariantCD,
			device:  logdev.ProfileMemory,
			lanes:   lanes,
			load:    w,
			clients: 8,
			mode:    txn.CommitPipelined,
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, fig13Row{lanes, out})
	}
	return rows, nil
}

// tpcb is the figures' TPC-B: the paper's 10 branches, accounts sized
// by the scale, branches drawn with the given zipfian skew.
func tpcb(s Scale, skew float64) *workload.TPCB {
	accounts := 10000
	if s.Quick {
		accounts = 200
	}
	return &workload.TPCB{Branches: 10, AccountsPerBranch: accounts, AccessSkew: skew}
}

// updateLocation is the figures' TATP: subscribers sized by the scale,
// the UpdateLocation transaction only.
func updateLocation(s Scale) *workload.TATP {
	subscribers := 100000
	if s.Quick {
		subscribers = 1000
	}
	return &workload.TATP{Subscribers: subscribers, UpdateLocationOnly: true}
}

// experiment is one entry of the registry: a name, the shorthands
// Figure also accepts, and the function that runs it.
type experiment struct {
	name    string
	aliases []string
	run     func(Scale) (*Table, error)
}

// experiments is the registry, in the order -all runs it: the paper's
// figures, the two ablations, then the two scenarios that wait for a
// ./benchmark workload of their own. AllFigures, Figure, FigureNames
// and `aetherbench -list` all read this one table.
var experiments = []experiment{
	{"fig2", []string{"2"}, Fig2},
	{"fig3", []string{"3"}, Fig3},
	{"fig4", []string{"4"}, Fig4},
	{"fig5", []string{"5"}, Fig5},
	{"fig7", []string{"7"}, Fig7},
	{"fig8left", []string{"8left", "8l"}, Fig8Left},
	{"fig8right", []string{"8right", "8r"}, Fig8Right},
	{"fig9", []string{"9"}, Fig9},
	{"fig11", []string{"11"}, Fig11},
	{"fig12", []string{"12"}, Fig12},
	{"fig13", []string{"13"}, Fig13},
	{"ablation-elr", nil, AblationELR},
	{"ablation-groupcommit", nil, AblationGroupCommit},
	{"partition-scaling", nil, PartitionScaling},
	{"restore-latency", nil, RestoreLatency},
}

// lookup finds an experiment by name or alias.
func lookup(name string) *experiment {
	for i := range experiments {
		e := &experiments[i]
		if e.name == name {
			return e
		}
		for _, a := range e.aliases {
			if a == name {
				return e
			}
		}
	}
	return nil
}

// AllFigures runs every experiment and returns the tables in registry
// order.
func AllFigures(scale Scale) ([]*Table, error) {
	var out []*Table
	for _, e := range experiments {
		t, err := e.run(scale)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", e.name, err)
		}
		out = append(out, t)
	}
	return out, nil
}

// Figure runs a single experiment by name ("fig2" … "restore-latency")
// or alias ("2", "8l").
func Figure(name string, scale Scale) (*Table, error) {
	e := lookup(name)
	if e == nil {
		return nil, fmt.Errorf("bench: unknown figure %q", name)
	}
	return e.run(scale)
}

// FigureNames lists the runnable experiments in registry order.
func FigureNames() []string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	return names
}
