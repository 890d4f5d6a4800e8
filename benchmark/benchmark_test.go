package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// smoke is a run small enough for the unit-test tier: 1/20 of the data
// and of the work per cycle, and no more cycles than a run must have.
func smoke(t *testing.T, workload string) config {
	return config{workload: workload, seed: 1, budget: time.Millisecond, scale: 0.05, dir: t.TempDir()}
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	var spec benchmarkSpec
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// smokeWorkloads is every workload, or under -short the cheapest one.
func smokeWorkloads() []string {
	if testing.Short() {
		return []string{"tpcb_sync"}
	}
	return workloadOrder
}

// TestNamesMatchBenchmarkJSON runs every workload and holds what it
// emits to BENCHMARK.json: no metric in one and not the other, and every
// workload the driver is told to run is one the benchmark has (the
// driver gates on the steadiest of them, README.md says which and why).
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	spec := readSpec(t)
	var wantWorkloads, wantEndToEnd, wantPerLayer []string
	for _, w := range spec.Workloads {
		wantWorkloads = append(wantWorkloads, w.Name)
	}
	units := map[string]string{}
	for _, m := range spec.EndToEnd {
		wantEndToEnd = append(wantEndToEnd, m.Name)
		units[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		wantPerLayer = append(wantPerLayer, m.Name)
		units[m.Name] = m.Unit
	}
	sort.Strings(wantEndToEnd)
	sort.Strings(wantPerLayer)
	for _, w := range wantWorkloads {
		if _, ok := workloads[w]; !ok {
			t.Errorf("BENCHMARK.json names workload %q, the benchmark has %q", w, workloadOrder)
		}
	}
	if len(workloads) != len(workloadOrder) {
		t.Errorf("%d workloads registered, %d ordered", len(workloads), len(workloadOrder))
	}

	check := func(res *result, want []string) {
		t.Helper()
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d %v", res.Workload, res.Correct, res.Attempted, res.Failed, res.Violations)
		}
		if got := sortedKeys(res.Metrics); strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%s (traced %v) emitted\n %q\nBENCHMARK.json lists\n %q", res.Workload, res.Traced, got, want)
		}
		for name, m := range res.Metrics {
			if m.Unit != units[name] {
				t.Errorf("%s: %s is in %q, BENCHMARK.json says %q", res.Workload, name, m.Unit, units[name])
			}
			if !res.Traced && m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v; every one must be positive", res.Workload, name, m.Value)
			}
		}
	}
	for _, w := range smokeWorkloads() {
		res, err := runWorkload(smoke(t, w))
		if err != nil {
			t.Fatal(err)
		}
		check(res, wantEndToEnd)
	}

	// One traced run covers the per-layer vocabulary: every traced run
	// emits all of it. tatp_wire also exercises the wire spans.
	tracedWorkload := "tatp_wire"
	if testing.Short() {
		tracedWorkload = "tpcb_sync"
	}
	traced := smoke(t, tracedWorkload)
	traced.trace = true
	traced.outDir = t.TempDir()
	res, err := runWorkload(traced)
	if err != nil {
		t.Fatal(err)
	}
	check(res, wantPerLayer)
	var trace struct {
		Spans []struct{ ID, Parent, Name string }
	}
	if err := readJSON(filepath.Join(traced.outDir, "trace-"+traced.workload+".json"), &trace); err != nil {
		t.Fatal(err)
	}
	if len(trace.Spans) == 0 {
		t.Error("the traced run wrote no spans")
	}

	// The line the driver reads carries exactly four keys, and each
	// metric exactly value and unit.
	var line bytes.Buffer
	if err := emit(&line, res); err != nil {
		t.Fatal(err)
	}
	var generic map[string]json.RawMessage
	if err := json.Unmarshal(line.Bytes(), &generic); err != nil {
		t.Fatal(err)
	}
	if len(generic) != 4 || generic["correct"] == nil || generic["attempted"] == nil || generic["failed"] == nil || generic["metrics"] == nil {
		t.Errorf("result line has keys %v", generic)
	}
}

// TestChecksCanFail feeds each correctness check a corrupted result and
// expects the run to be reported incorrect.
func TestChecksCanFail(t *testing.T) {
	cases := []struct{ workload, sabotage, want string }{
		{"tpcb_sync", sabotageDropAck, "acknowledged commit lost"},
		{"crash_recover", sabotageDropAck, "acknowledged commit lost"},
		{"scan_cold", sabotageDropRow, "delivered"},
		{"tatp_wire", sabotageStaleRow, "last acknowledged"},
	}
	for _, c := range cases {
		if testing.Short() && c.workload != "tpcb_sync" {
			continue
		}
		cfg := smoke(t, c.workload)
		cfg.sabotage = c.sabotage
		res, err := runWorkload(cfg)
		if err != nil {
			t.Fatalf("%s with %s: %v", c.workload, c.sabotage, err)
		}
		if res.Correct || !strings.Contains(strings.Join(res.Violations, "\n"), c.want) {
			t.Errorf("%s with %s: correct=%v, violations %q; want one mentioning %q", c.workload, c.sabotage, res.Correct, res.Violations, c.want)
		}
		if entries, _ := os.ReadDir(cfg.dir); len(entries) != 0 {
			t.Errorf("%s left %d scratch entries behind after a failed check", c.workload, len(entries))
		}
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, txnPerS, recoverS float64, failed int64) string {
		all := allResult{Workloads: map[string]summary{"tpcb_sync": {Correct: true, Attempted: 1000, Failed: failed,
			Metrics: map[string]value{"txn_per_s": {txnPerS, "1/s"}, "recover_s": {recoverS, "s"}, "core.append_ns": {100, "ns"}}}}}
		data, err := json.Marshal(all)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	spec := filepath.Join("..", "BENCHMARK.json")
	base := write("a.json", 1000, 2.0, 0)
	for _, c := range []struct {
		name string
		b    string
		code int
		want string
	}{
		{"same", base, 0, "ok"},
		{"within bounds", write("b.json", 950, 2.2, 0), 0, "ok"},
		{"throughput regressed", write("c.json", 700, 2.0, 0), 1, "regressed"},
		{"restart regressed", write("d.json", 1000, 3.0, 0), 1, "regressed"},
		{"more failures", write("e.json", 1000, 2.0, 1), 1, "regressed"},
	} {
		var out bytes.Buffer
		if code := compareMain(&out, spec, []string{base, c.b}); code != c.code || !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: exit code %d, want %d; output:\n%s", c.name, code, c.code, out.String())
		}
	}
	// A parent whose own runs lie further apart than the bound cannot
	// convict the change: the cell is unresolved, not regressed.
	var out bytes.Buffer
	noisy := base + "," + write("f.json", 1400, 2.0, 0)
	if code := compareMain(&out, spec, []string{noisy, write("g.json", 850, 2.0, 0)}); code != 0 || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("noisy parent: exit code %d, want 0 and an unresolved row; output:\n%s", code, out.String())
	}
}
