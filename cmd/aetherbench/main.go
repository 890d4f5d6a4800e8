// Command aetherbench runs the paper-reproduction experiments: one per
// figure of the evaluation section.
//
// Usage:
//
//	aetherbench -fig fig3            # one figure, full scale
//	aetherbench -fig fig8left -quick # one figure, fast parameters
//	aetherbench -all                 # everything, in paper order
//	aetherbench -json                # machine-readable perf report → BENCH_pr10.json
//	aetherbench -json -baseline BENCH_pr10.json  # …and diff key counters vs the committed baseline
//	aetherbench -net                 # network path only: aetherd wire server vs client processes
//	aetherbench -list                # list experiment names
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"aether"
	"aether/internal/bench"
	"aether/internal/fsutil"
	"aether/internal/metrics"
)

func main() {
	var (
		fig      = flag.String("fig", "", "figure to run (fig2, fig3, fig4, fig5, fig7, fig8left, fig8right, fig9, fig11, fig12, fig13)")
		all      = flag.Bool("all", false, "run every figure")
		quick    = flag.Bool("quick", false, "use fast, test-scale parameters")
		list     = flag.Bool("list", false, "list experiment names and exit")
		jsonOut  = flag.Bool("json", false, "run the perf-tracking suite and write machine-readable results")
		netOnly  = flag.Bool("net", false, "run only the network-path suite (wire server vs external client processes) and print the results")
		outPath  = flag.String("out", "BENCH_pr10.json", "output file for -json")
		baseline = flag.String("baseline", "", "existing report to diff demand-steal counts against (regression check, used by make bench-smoke)")

		// Hidden child mode: -net re-executes this binary with these flags
		// to drive load from a genuinely separate process.
		netClient      = flag.Bool("net-client", false, "internal: run as a network load client and print a JSON result")
		netAddr        = flag.String("net-addr", "", "internal: server address for -net-client")
		netWorkload    = flag.String("net-workload", "tatp", "internal: workload for -net-client")
		netSessions    = flag.Int("net-sessions", 8, "internal: connections for -net-client")
		netDuration    = flag.Duration("net-duration", time.Second, "internal: run length for -net-client")
		netSeed        = flag.Int64("net-seed", 1, "internal: RNG seed / process tag for -net-client")
		netPipeline    = flag.Int("net-pipeline", 16, "internal: in-flight commits per session for -net-client")
		netSubscribers = flag.Int("net-subscribers", 10000, "internal: TATP scale for -net-client")
		netBranches    = flag.Int("net-branches", 10, "internal: TPC-B branches for -net-client")
		netAccounts    = flag.Int("net-accounts", 1000, "internal: TPC-B accounts per branch for -net-client")
	)
	flag.Parse()

	if *netClient {
		if err := runNetClient(*netAddr, *netWorkload, *netSessions, *netDuration, *netSeed, *netPipeline, *netSubscribers, *netBranches, *netAccounts); err != nil {
			fmt.Fprintln(os.Stderr, "aetherbench net client:", err)
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, name := range bench.FigureNames {
			fmt.Println(name)
		}
		return
	}
	scale := bench.Scale{Quick: *quick}
	switch {
	case *netOnly:
		runs, err := runNetBench(scale)
		if err != nil {
			fmt.Fprintln(os.Stderr, "aetherbench:", err)
			os.Exit(1)
		}
		for _, r := range runs {
			fmt.Println(r)
		}
	case *jsonOut:
		if err := writeJSONReport(*outPath, *baseline, scale); err != nil {
			fmt.Fprintln(os.Stderr, "aetherbench:", err)
			os.Exit(1)
		}
	case *all:
		start := time.Now()
		tables, err := bench.AllFigures(scale)
		if err != nil {
			fmt.Fprintln(os.Stderr, "aetherbench:", err)
			os.Exit(1)
		}
		for _, t := range tables {
			fmt.Println(t)
		}
		fmt.Printf("total: %v\n", time.Since(start).Round(time.Second))
	case *fig != "":
		t, err := bench.Figure(*fig, scale)
		if err != nil {
			fmt.Fprintln(os.Stderr, "aetherbench:", err)
			os.Exit(1)
		}
		fmt.Println(t)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// perfReport is the machine-readable result file tracking the perf
// trajectory across PRs: commit throughput on a file-backed database
// with the background checkpointer running (its sweep pages, fsyncs and
// durations included) and the larger-than-memory scenario (bounded
// buffer pool vs fully resident).
type perfReport struct {
	GeneratedAt string              `json:"generated_at"`
	Quick       bool                `json:"quick"`
	Throughput  tputRun             `json:"throughput"`
	Cache       bench.CacheResult   `json:"cache"`
	Cleaner     bench.CleanerResult `json:"cleaner"`
	Scan        struct {
		bench.ScanResult
		Speedup float64 `json:"speedup"`
	} `json:"scan"`
	Partition bench.PartitionResult `json:"partition"`
	Restore   struct {
		bench.RestoreResult
		Speedup float64 `json:"speedup"`
	} `json:"restore"`
	Net []netRun `json:"net"`
}

// tputRun reports the sustained-commit workload.
type tputRun struct {
	Clients         int                       `json:"clients"`
	Commits         int64                     `json:"commits"`
	ElapsedMs       int64                     `json:"elapsed_ms"`
	TPS             float64                   `json:"tps"`
	AutoCheckpoints int64                     `json:"auto_checkpoints"`
	SweepPages      int64                     `json:"sweep_pages"`
	SweepFsyncs     int64                     `json:"sweep_fsyncs"`
	SweepDuration   metrics.HistogramSnapshot `json:"sweep_duration"`
	LogBase         int64                     `json:"log_base"`
}

// runThroughput hammers a file-backed segmented database with inserts
// while the background incremental checkpointer bounds the log.
func runThroughput(dir string, dur time.Duration, clients int, segSize int64) (tputRun, error) {
	db, err := aether.Open(aether.Options{
		LogPath:              filepath.Join(dir, "wal.d"),
		SegmentSize:          segSize,
		CheckpointEveryBytes: 2 * segSize,
	})
	if err != nil {
		return tputRun{}, err
	}
	defer db.Close()
	tbl, err := db.CreateTable("bench")
	if err != nil {
		return tputRun{}, err
	}
	payload := make([]byte, 128)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			s := db.Session()
			defer s.Close()
			// +1: row key 0 aliases the table lock (never insert it).
			for k := uint64(c)<<40 + 1; time.Since(start) < dur; k++ {
				tx := s.Begin()
				if err := tx.Insert(tbl, k, aether.Row(k, payload)); err != nil {
					tx.Abort()
					continue
				}
				_ = tx.Commit()
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	st := db.Stats()
	return tputRun{
		Clients:         clients,
		Commits:         st.Commits,
		ElapsedMs:       elapsed.Milliseconds(),
		TPS:             float64(st.Commits) / elapsed.Seconds(),
		AutoCheckpoints: st.AutoCheckpoints,
		SweepPages:      st.SweepPages,
		SweepFsyncs:     st.SweepFsyncs,
		SweepDuration:   st.SweepDuration,
		LogBase:         st.LogBase,
	}, nil
}

func writeJSONReport(outPath, baselinePath string, scale bench.Scale) error {
	dir, err := os.MkdirTemp("", "aetherbench")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	dur, clients, segSize := 2*time.Second, 8, int64(1<<20)
	if scale.Quick {
		dur, clients, segSize = 300*time.Millisecond, 4, 32<<10
	}
	var rep perfReport
	rep.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
	rep.Quick = scale.Quick
	rep.Throughput, err = runThroughput(dir, dur, clients, segSize)
	if err != nil {
		return fmt.Errorf("throughput run: %w", err)
	}
	cacheRows, cachePages := 4000, 24
	if scale.Quick {
		cacheRows, cachePages = 800, 12
	}
	rep.Cache, err = bench.RunCache(bench.CacheConfig{
		Dir:        dir,
		Rows:       cacheRows,
		CachePages: cachePages,
	})
	if err != nil {
		return fmt.Errorf("cache run: %w", err)
	}

	cleanerRows, cleanerUpdates := 2000, 4000
	if scale.Quick {
		cleanerRows, cleanerUpdates = 600, 1200
	}
	rep.Cleaner, err = bench.RunCleaner(bench.CleanerConfig{
		Dir:        dir,
		Rows:       cleanerRows,
		CachePages: cachePages,
		Updates:    cleanerUpdates,
	})
	if err != nil {
		return fmt.Errorf("cleaner run: %w", err)
	}

	scanPages := 512
	if scale.Quick {
		scanPages = 192
	}
	scan, err := bench.RunScan(bench.ScanConfig{
		Dir:           dir,
		Pages:         scanPages,
		CachePages:    scanPages / 8,
		PrefetchDepth: 16,
		ReadDelay:     200 * time.Microsecond, // between flash and disk
	})
	if err != nil {
		return fmt.Errorf("scan run: %w", err)
	}
	rep.Scan.ScanResult = scan
	rep.Scan.Speedup = scan.Speedup()
	// The read-ahead gate is the mechanism, counted: the pipeline issued
	// reads and served accesses from them, the single-mutex baseline never
	// had two reads inside the device, the concurrent scan did. The hit
	// rate is printed and recorded, not gated — on a shared two-core host
	// it ranges over 8–92% at one commit while these counts do not move.
	if scan.PrefetchReads == 0 || scan.PrefetchHits == 0 {
		return fmt.Errorf("scan run: read-ahead never engaged (%d reads issued, %d hits; %v)", scan.PrefetchReads, scan.PrefetchHits, scan)
	}
	if scan.SerialMaxInflight != 1 || scan.ConcurrentMaxInflight < 2 {
		return fmt.Errorf("scan run: reads in flight %d serial (want exactly 1), %d concurrent (want >= 2) (%v)",
			scan.SerialMaxInflight, scan.ConcurrentMaxInflight, scan)
	}

	partDur := 500 * time.Millisecond
	if scale.Quick {
		partDur = 250 * time.Millisecond
	}
	rep.Partition, err = bench.RunPartitions(bench.PartitionConfig{Duration: partDur})
	if err != nil {
		return fmt.Errorf("partition run: %w", err)
	}
	// The scaling floor and stall ceiling: four logs over four simulated
	// bandwidth-limited devices must commit at least 1.5× the bytes/s of
	// one log on one such device, and the dependency limiter must clamp
	// well under a quarter of flush passes — partitioning that merely
	// re-serializes behind cross-log waits fails CI even though every
	// run is correct.
	if rep.Partition.Speedup < 1.5 {
		return fmt.Errorf("partition run: committed-bytes/s speedup %.2fx below the 1.5x floor (%v)",
			rep.Partition.Speedup, rep.Partition)
	}
	if sr := rep.Partition.Multi.StallRate; sr > 0.25 {
		return fmt.Errorf("partition run: dependency-stall rate %.3f above the 0.25 ceiling (%v)",
			sr, rep.Partition)
	}

	restoreCfg := bench.RestoreConfig{
		Batches:            24,
		TxnsPerBatch:       25,
		ValueBytes:         192,
		SegmentSize:        16 << 10,
		SnapshotEveryBytes: 32 << 10,
		CompactSegments:    4,
		Iters:              3,
	}
	if scale.Quick {
		restoreCfg.Batches, restoreCfg.TxnsPerBatch, restoreCfg.ValueBytes = 16, 20, 128
		restoreCfg.SegmentSize, restoreCfg.SnapshotEveryBytes = 8<<10, 16<<10
		restoreCfg.Iters = 2
	}
	restore, err := bench.RunRestore(restoreCfg)
	if err != nil {
		return fmt.Errorf("restore run: %w", err)
	}
	rep.Restore.RestoreResult = restore
	rep.Restore.Speedup = restore.Speedup()
	// The restore-latency floor: point-in-time restore through the
	// newest cloud snapshot replays only the tail past its cut, so it
	// must clearly beat a full from-genesis raw replay of the same
	// history. A ratio near 1x means snapshots stopped being cut near
	// the durable end or RestoreTo stopped using them — fail CI even
	// though both restores were byte-correct (RunRestore checks that
	// itself).
	if rep.Restore.Speedup < 1.2 {
		return fmt.Errorf("restore run: snapshot restore only %.2fx over raw replay, below the 1.2x floor (%v)",
			rep.Restore.Speedup, restore)
	}

	rep.Net, err = runNetBench(scale)
	if err != nil {
		return fmt.Errorf("net run: %w", err)
	}

	if err := diffBaseline(baselinePath, rep); err != nil {
		return err
	}

	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	// Durable install: the report is CI's comparison artifact, so it
	// gets the same write+fsync+dir-sync treatment as data files.
	if err := fsutil.WriteFileSyncDir(outPath, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("throughput: %.0f commits/s (%d clients, %d auto checkpoints, log base %d)\n",
		rep.Throughput.TPS, rep.Throughput.Clients, rep.Throughput.AutoCheckpoints, rep.Throughput.LogBase)
	fmt.Println(rep.Cache)
	fmt.Println(rep.Cleaner)
	fmt.Println(scan)
	fmt.Println(rep.Partition)
	fmt.Println(restore)
	for _, r := range rep.Net {
		fmt.Println(r)
	}
	fmt.Println("wrote", outPath)
	return nil
}

// diffBaseline compares the fresh report's key counters against a
// committed baseline report, failing on regression. Two checks: the
// cleaner scenario's demand-steal rate (the armed run stealing
// substantially more than the baseline means writebacks crept back
// onto the fault path), and the network path's throughput (a fresh
// net TPS collapsing far below the baseline means the wire path broke
// its pipelining). A missing baseline file or a baseline predating a
// section only prints a notice (first run on a branch). Counts are
// normalized so quick and full runs remain comparable.
func diffBaseline(path string, fresh perfReport) error {
	if path == "" {
		return nil
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Printf("baseline: %s not found; skipping baseline diff\n", path)
		return nil
	}
	var base perfReport
	if err := json.Unmarshal(raw, &base); err != nil || base.Cleaner.Updates == 0 {
		fmt.Printf("baseline: %s has no cleaner scenario; skipping baseline diff\n", path)
		return nil
	}
	if err := diffNet(path, base.Net, fresh.Net); err != nil {
		return err
	}
	baseRate := float64(base.Cleaner.CleanedSteals) / float64(base.Cleaner.Updates)
	freshRate := float64(fresh.Cleaner.CleanedSteals) / float64(fresh.Cleaner.Updates)
	fmt.Printf("baseline: %.3f demand steals/update armed (baseline %.3f from %s)\n",
		freshRate, baseRate, path)
	// Generous slack: steal residue is scheduler-dependent noise around
	// a small mean (observed 0.07–0.16 steals/update across quick
	// runs); only a step change (cleaner stopped keeping up) should
	// fail CI. Because bench-smoke refreshes the baseline file it just
	// diffed against, this relative check alone could ratchet if
	// successively worse baselines were committed — the absolute
	// backstop is RunCleaner's own assertion, which bounds armed steals
	// against the SAME RUN's cleaner-off baseline and fails long before
	// repeated 2.5x creep could compound.
	if freshRate > 2.5*baseRate+0.1 {
		return fmt.Errorf("demand-steal regression: %.3f steals/update armed vs %.3f in baseline %s",
			freshRate, baseRate, path)
	}
	return nil
}

// diffNet applies the network-TPS floor per workload: a fresh run
// below 20% of the baseline's throughput is a collapse, not noise.
// The generous factor absorbs machine and scheduler variance (loopback
// TPS swings with core count); a broken pipeline — commits serialized
// per flush, or sessions stalling on lost acks — drops throughput by
// far more than 5x. A baseline without a matching net section (older
// report shape) only prints a notice.
func diffNet(path string, base, fresh []netRun) error {
	baseByWL := make(map[string]netRun, len(base))
	for _, r := range base {
		baseByWL[r.Workload] = r
	}
	for _, f := range fresh {
		b, ok := baseByWL[f.Workload]
		if !ok || b.TPS <= 0 {
			fmt.Printf("baseline: %s has no net %s run; skipping net diff\n", path, f.Workload)
			continue
		}
		fmt.Printf("baseline: net %s %.0f tps (baseline %.0f from %s)\n", f.Workload, f.TPS, b.TPS, path)
		if f.TPS < 0.2*b.TPS {
			return fmt.Errorf("network throughput collapse: net %s %.0f tps vs %.0f in baseline %s",
				f.Workload, f.TPS, b.TPS, path)
		}
	}
	return nil
}
