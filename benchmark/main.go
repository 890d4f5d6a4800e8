// Command benchmark is the repository's one benchmark: six named
// workloads over the whole stack, the end-to-end metrics a user of the
// engine would see, and a separate traced run that attributes them to
// layers. BENCHMARK.json at the repository root names the command, the
// workloads the driver gates on (the steadiest two) and every metric;
// README.md in this directory defines them.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// workloads maps each workload name to its generator.
var workloads = map[string]func(*run) error{
	"tpcb_pipelined": runTPCB,
	"tpcb_sync":      runTPCB,
	"tpcb_bounded":   runTPCB,
	"tatp_wire":      runTATPWire,
	"scan_cold":      runScanCold,
	"crash_recover":  runCrashRecover,
}

// workloadOrder is the order -workload all runs and prints them in.
var workloadOrder = []string{"tpcb_pipelined", "tpcb_sync", "tpcb_bounded", "tatp_wire", "scan_cold", "crash_recover"}

func main() {
	var (
		workload = flag.String("workload", "all", "workload name, or all (each in a fresh child process)")
		seed     = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds  = flag.Float64("seconds", 50, "how long the run's cycles may take together")
		trace    = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics; 0 = end-to-end metrics")
		dir      = flag.String("dir", filepath.Join("benchmark", "out", "scratch"), "parent directory for scratch databases (removed on exit)")
		outDir   = flag.String("out", filepath.Join("benchmark", "out"), "directory for result.json and trace-<workload>.json")
		compare  = flag.Bool("compare", false, "compare two result.json files given as arguments")
		spec     = flag.String("spec", "BENCHMARK.json", "with -compare: the file naming each metric's direction and bound")
	)
	flag.Parse()
	if *compare {
		os.Exit(compareMain(os.Stdout, *spec, flag.Args()))
	}
	cfg := config{
		workload: *workload, seed: *seed, budget: time.Duration(*seconds * float64(time.Second)),
		scale: 1, trace: *trace != 0, dir: *dir, outDir: *outDir,
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fatal(err)
	}
	if *workload == "all" {
		os.Exit(runAll(cfg))
	}
	res, err := runWorkload(cfg)
	if err != nil {
		fatal(err)
	}
	printResult(os.Stdout, res)
	if err := emit(os.Stdout, res); err != nil {
		fatal(err)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// runWorkload runs one workload in this process. The scratch databases
// are removed whether or not the run, or one of its checks, failed.
func runWorkload(cfg config) (*result, error) {
	fn, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, workloadOrder)
	}
	r, err := newRun(cfg)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(r.scratch)
	if err := fn(r); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if cfg.trace {
		if err := r.runProbes(); err != nil {
			return nil, fmt.Errorf("layer probes: %w", err)
		}
		if cfg.outDir != "" {
			if err := writeTrace(filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json"), cfg.workload, r.tracers); err != nil {
				return nil, err
			}
		}
	}
	if err := r.finish(); err != nil {
		return nil, err
	}
	return r.res, nil
}

// printResult lists every metric by name and unit, with the sample
// count and tail of each timing.
func printResult(w io.Writer, res *result) {
	fmt.Fprintf(w, "workload %s seed %d traced %v: attempted %d failed %d correct %v\n",
		res.Workload, res.Seed, res.Traced, res.Attempted, res.Failed, res.Correct)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "  %-42s %16.4f %-6s", n, m.Value, m.Unit)
		if m.N > 0 {
			fmt.Fprintf(w, " n=%d p%g=%.4f max=%.4f", m.N, m.TailPct, m.Tail, m.Max)
		}
		fmt.Fprintln(w)
	}
	for _, n := range res.Notes {
		fmt.Fprintln(w, " ", n)
	}
	for _, v := range res.Violations {
		fmt.Fprintln(w, "  VIOLATION:", v)
	}
}

// value is a metric as the one-line result carries it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the one-line result the driver reads: exactly these keys.
type summary struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func emit(w io.Writer, res *result) error {
	out := summary{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	for n, m := range res.Metrics {
		out.Metrics[n] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// environment is recorded with every result.json: numbers from
// different boxes, Go versions or filesystems are not comparable.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	ScratchFS  string `json:"scratch_fs"`
	Clients    int    `json:"clients"`
}

func currentEnvironment(scratch string) environment {
	return environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		ScratchFS: filesystemOf(scratch), Clients: clients,
	}
}

// filesystemOf names the filesystem holding dir, by statfs magic.
func filesystemOf(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{0xEF53: "ext4", 0x01021994: "tmpfs", 0x794C7630: "overlayfs", 0x58465342: "xfs", 0x9123683E: "btrfs"}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return "0x" + strconv.FormatInt(int64(st.Type), 16)
}

// allResult is result.json: what -workload all writes and -compare reads.
type allResult struct {
	Env       environment        `json:"env"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Traced    bool               `json:"traced"`
	Workloads map[string]summary `json:"workloads"`
}

// runAll runs every workload in a fresh child process of this binary
// (clean heap, its own peak RSS), untraced, and with -trace 1 a second
// time traced. It writes result.json and returns the exit code.
func runAll(cfg config) int {
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		fatal(err)
	}
	all := allResult{Env: currentEnvironment(cfg.dir), Seed: cfg.seed, Seconds: cfg.budget.Seconds(), Traced: cfg.trace,
		Workloads: map[string]summary{}}
	fmt.Printf("environment: %+v\n", all.Env)
	code := 0
	child := func(workload string, trace int) (summary, bool) {
		cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(cfg.seed, 10),
			"-seconds", strconv.FormatFloat(cfg.budget.Seconds(), 'g', -1, 64), "-trace", strconv.Itoa(trace),
			"-dir", cfg.dir, "-out", cfg.outDir)
		var stdout bytes.Buffer
		cmd.Stdout = io.MultiWriter(os.Stdout, &stdout)
		cmd.Stderr = os.Stderr
		runErr := cmd.Run()
		var s summary
		lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
		if err := json.Unmarshal(lines[len(lines)-1], &s); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s printed no result (%v)\n", workload, runErr)
			code = 2
			return s, false
		}
		if runErr != nil || !s.Correct {
			code = max(code, 1)
		}
		return s, true
	}
	for _, w := range workloadOrder {
		s, ok := child(w, 0)
		if !ok {
			continue
		}
		if cfg.trace {
			t, ok := child(w, 1)
			if !ok {
				continue
			}
			s.Correct = s.Correct && t.Correct
			for n, m := range t.Metrics {
				s.Metrics[n] = m
			}
			overhead := 1 - ratio(t.Metrics["bench.traced_txn_per_s"].Value, s.Metrics["txn_per_s"].Value)
			s.Metrics["bench.trace_overhead_frac"] = value{overhead, "ratio"}
			// The spans must account for the latency of the run they were
			// taken in.
			sum, traced := t.Metrics["session.span_sum_ms"].Value, t.Metrics["bench.traced_lat_p50_ms"].Value
			fmt.Printf("%s: tracing cost %.1f%% of txn_per_s; session.* spans sum to %.4f ms, %+.1f%% off the run's typical latency\n",
				w, 100*overhead, sum, 100*(sum/traced-1))
			if sum < 0.9*traced || sum > 1.1*traced {
				fmt.Printf("%s: the spans do not add up to the latency\n", w)
				code = max(code, 1)
			}
		}
		all.Workloads[w] = s
	}
	data, err := json.MarshalIndent(all, "", " ")
	if err == nil {
		err = os.WriteFile(filepath.Join(cfg.outDir, "result.json"), data, 0o644)
	}
	if err != nil {
		fatal(err)
	}
	return code
}
