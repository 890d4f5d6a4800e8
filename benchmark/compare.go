package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
)

// benchmarkSpec is BENCHMARK.json.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readJSON(path string, into any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, into); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// side is one side of a comparison: the result.json files of one or
// more runs of the same commit.
type side []allResult

func readSide(list string) (side, error) {
	var s side
	for _, path := range strings.Split(list, ",") {
		var r allResult
		if err := readJSON(path, &r); err != nil {
			return nil, err
		}
		s = append(s, r)
	}
	return s, nil
}

// values lists the side's values of one metric on one workload.
func (s side) values(workload, metric string) []float64 {
	var v []float64
	for _, r := range s {
		if m, ok := r.Workloads[workload].Metrics[metric]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}

// failedFrac is the side's worst failed/attempted on a workload, and
// whether every run of it was correct.
func (s side) failedFrac(workload string) (frac float64, correct bool) {
	correct = true
	for _, r := range s {
		w := r.Workloads[workload]
		frac = max(frac, ratio(float64(w.Failed), float64(w.Attempted)))
		correct = correct && w.Correct
	}
	return frac, correct
}

// spread is how far a side's own runs lie apart, as a share of their
// median: the distance between the quartiles given four runs or more,
// the range given two or three, unknown (0) given one.
func spread(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	switch {
	case len(s) >= 4:
		return ratio(quantile(s, 0.75)-quantile(s, 0.25), median(s))
	case len(s) >= 2:
		return ratio(s[len(s)-1]-s[0], median(s))
	}
	return 0
}

// compareMain prints one row per (metric, workload) of two sides — a
// the parent, b the change, each one result.json or a comma-separated
// list of them — with both medians, the relative change, the bound and
// a verdict: ok, regressed (worse by more than the bound), or unresolved
// (the parent's own runs lie further apart than the bound, so this
// comparison cannot tell). It returns 1 if any end-to-end metric
// regressed or a workload failed more often, 2 if the inputs cannot be
// read.
func compareMain(w io.Writer, specPath string, args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark -compare a.json[,a2.json...] b.json[,b2.json...]")
		return 2
	}
	var spec benchmarkSpec
	err := readJSON(specPath, &spec)
	var a, b side
	if err == nil {
		a, err = readSide(args[0])
	}
	if err == nil {
		b, err = readSide(args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	type rule struct {
		lowerBetter bool
		bound       float64 // 0 = per-layer: shown, never judged
	}
	rules := map[string]rule{}
	var order []string
	for _, m := range spec.EndToEnd {
		rules[m.Name] = rule{m.Better == "lower", m.Bound}
		order = append(order, m.Name)
	}
	for _, m := range spec.PerLayer {
		rules[m.Name] = rule{lowerBetter: m.Better == "lower"}
		order = append(order, m.Name)
	}

	regressed := 0
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "workload\tmetric\ta (n=%d)\tb (n=%d)\tchange\ta's spread\tbound\tverdict\t\n", len(a), len(b))
	for _, wl := range workloadOrder {
		if _, ran := a[0].Workloads[wl]; !ran {
			continue
		}
		fa, ca := a.failedFrac(wl)
		fb, cb := b.failedFrac(wl)
		verdict := "ok"
		if fb > fa || (ca && !cb) {
			verdict = "regressed"
			regressed++
		}
		fmt.Fprintf(tw, "%s\tfailed_frac\t%.6f\t%.6f\t\t\t\t%s\t\n", wl, fa, fb, verdict)
		for _, metric := range order {
			va, vb := a.values(wl, metric), b.values(wl, metric)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb, ru := median(va), median(vb), rules[metric]
			change := ratio(mb-ma, ma)
			worse := change
			if !ru.lowerBetter {
				worse = -change
			}
			bound, verdict := "", ""
			if ru.bound > 0 {
				bound = fmt.Sprintf("%.2f", ru.bound)
				switch {
				case spread(va) > ru.bound:
					verdict = "unresolved"
				case worse > ru.bound:
					verdict = "regressed"
					regressed++
				default:
					verdict = "ok"
				}
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4f\t%.4f\t%+.1f%%\t%.1f%%\t%s\t%s\t\n", wl, metric, ma, mb, 100*change, 100*spread(va), bound, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if regressed > 0 {
		fmt.Fprintf(w, "%d regressed\n", regressed)
		return 1
	}
	return 0
}
