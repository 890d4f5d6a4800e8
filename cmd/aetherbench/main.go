// Command aetherbench runs the paper-reproduction experiments: one per
// figure of the evaluation section, the two ablations, and the two
// scenarios (partition scaling, restore latency) that have no workload
// in ./benchmark yet. The repository's benchmark — the one with a
// contract, BENCHMARK.json — is `go run ./benchmark`.
//
// Usage:
//
//	aetherbench -list                # list experiment names
//	aetherbench -fig fig3            # one experiment, full scale
//	aetherbench -fig fig8left -quick # one experiment, fast parameters
//	aetherbench -all                 # everything, in registry order
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"aether/internal/bench"
)

func main() {
	var (
		fig   = flag.String("fig", "", "experiment to run ("+strings.Join(bench.FigureNames(), ", ")+")")
		all   = flag.Bool("all", false, "run every experiment")
		quick = flag.Bool("quick", false, "use fast, test-scale parameters")
		list  = flag.Bool("list", false, "list experiment names and exit")
	)
	flag.Parse()

	scale := bench.Scale{Quick: *quick}
	switch {
	case *list:
		for _, name := range bench.FigureNames() {
			fmt.Println(name)
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
