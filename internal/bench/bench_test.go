package bench

import (
	"strings"
	"testing"
	"time"

	"aether/internal/logbuf"
	"aether/internal/workload"
)

// quickScale keeps the experiment smoke tests fast.
var quickScale = Scale{Quick: true}

func TestRunMicroBasics(t *testing.T) {
	res, err := RunMicro(MicroConfig{
		Variant:    logbuf.VariantCD,
		Threads:    4,
		RecordSize: 120,
		Duration:   100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inserts == 0 || res.GBps() <= 0 {
		t.Fatalf("micro produced nothing: %+v", res)
	}
	t.Logf("CD 4 threads 120B: %v", res)
}

func TestRunMicroOutliers(t *testing.T) {
	res, err := RunMicro(MicroConfig{
		Variant:      logbuf.VariantCDME,
		Threads:      4,
		RecordSize:   48,
		Duration:     100 * time.Millisecond,
		OutlierEvery: 60,
		OutlierSize:  32 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inserts == 0 {
		t.Fatal("no inserts with outliers")
	}
}

func TestRunMicroLocalFill(t *testing.T) {
	res, err := RunMicro(MicroConfig{
		Variant:    logbuf.VariantCD,
		Threads:    4,
		RecordSize: 1200,
		Duration:   100 * time.Millisecond,
		LocalFill:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inserts == 0 {
		t.Fatal("no inserts in local-fill mode")
	}
}

func TestMicroDefaults(t *testing.T) {
	res, err := RunMicro(MicroConfig{Variant: logbuf.VariantBaseline, Duration: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inserts == 0 {
		t.Fatal("defaulted micro run produced nothing")
	}
	var zero MicroResult
	if zero.GBps() != 0 || zero.InsertsPerSec() != 0 {
		t.Fatal("zero result division")
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{Title: "T", Columns: []string{"a", "bbbb"}}
	tbl.AddRow("1", "2")
	s := tbl.String()
	if !strings.Contains(s, "== T ==") || !strings.Contains(s, "bbbb") {
		t.Fatalf("table output: %q", s)
	}
}

func TestSharesClamps(t *testing.T) {
	sh := shares(window{
		logWork: time.Second, logContention: time.Second, lockWait: time.Second,
	}, workload.Result{Elapsed: time.Second, CommitWait: time.Second}, 1)
	if sh.OtherWork != 0 {
		t.Fatalf("other work should clamp to 0: %+v", sh)
	}
	if s := (TimeShares{}).String(); s == "" {
		t.Fatal("empty shares string")
	}
	if (shares(window{}, workload.Result{}, 0) != TimeShares{}) {
		t.Fatal("zero capacity shares")
	}
}

// The figure smoke tests run each experiment end to end in quick mode
// and sanity-check the output shape (row/column counts), not numbers.
func checkTable(t *testing.T, tbl *Table, wantRows int) {
	t.Helper()
	if len(tbl.Rows) != wantRows {
		t.Fatalf("%s: %d rows, want %d", tbl.Title, len(tbl.Rows), wantRows)
	}
	for i, row := range tbl.Rows {
		if len(row) != len(tbl.Columns) {
			t.Fatalf("%s row %d: %d cells for %d columns", tbl.Title, i, len(row), len(tbl.Columns))
		}
	}
	t.Logf("\n%s", tbl)
}

func TestFig2(t *testing.T) {
	tbl, err := Fig2(quickScale)
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tbl, 3)
}

func TestFig3(t *testing.T) {
	tbl, err := Fig3(quickScale)
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tbl, 2)
}

func TestFig4(t *testing.T) {
	tbl, err := Fig4(quickScale)
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tbl, len(quickScale.clientSweep()))
}

func TestFig5(t *testing.T) {
	tbl, err := Fig5(quickScale)
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tbl, len(quickScale.clientSweep()))
}

func TestFig7(t *testing.T) {
	tbl, err := Fig7(quickScale)
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tbl, len(quickScale.clientSweep()))
}

func TestFig8Left(t *testing.T) {
	tbl, err := Fig8Left(quickScale)
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tbl, len(quickScale.threadSweep()))
}

func TestFig8Right(t *testing.T) {
	tbl, err := Fig8Right(quickScale)
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tbl, 3)
}

func TestFig9(t *testing.T) {
	tbl, err := Fig9(quickScale)
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tbl, len(quickScale.clientSweep()))
}

func TestFig11(t *testing.T) {
	tbl, err := Fig11(quickScale)
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tbl, 2)
}

func TestFig12(t *testing.T) {
	tbl, err := Fig12(quickScale)
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tbl, len(quickScale.threadSweep()))
}

// TestFig13 checks Figure 13's shape on per-KB and per-commit counts,
// never on throughput: one lane forms no edges and never stalls, every
// split forms edges and enforces at most all of them, and eight lanes
// flush more often per commit than one. Every split also restarts after
// its window (run), so a lane hardened out of dependency order fails
// here. Each row commits at least fig13MinCommits: the TPC-C subset
// takes its locks in one order, so no client sits out a deadlock
// timeout longer than the quick window.
func TestFig13(t *testing.T) {
	const fig13MinCommits = 100
	rows, err := fig13Rows(quickScale)
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, fig13Table(rows), 4)
	for _, r := range rows {
		if r.res.Completed < fig13MinCommits {
			t.Fatalf("%d lanes: %d commits, want at least %d", r.lanes, r.res.Completed, fig13MinCommits)
		}
		if r.lanes == 1 {
			if r.edges != 0 || r.stalls != 0 {
				t.Fatalf("one lane: %d edges, %d dependency stalls, want none", r.edges, r.stalls)
			}
			continue
		}
		if r.edgesPerKB() <= 0 {
			t.Fatalf("%d lanes: no cross-lane edges in %.1f KB", r.lanes, r.kb())
		}
		if r.enforced > r.edges {
			t.Fatalf("%d lanes: %d enforced edges of %d", r.lanes, r.enforced, r.edges)
		}
	}
	if one, eight := rows[0].flushesPerCommit(), rows[3].flushesPerCommit(); eight <= one {
		t.Fatalf("flushes per commit: %.2f on eight lanes, %.2f on one", eight, one)
	}
}

// TestFigureDispatch checks the registry itself: every name and alias
// resolves to its own entry, none is claimed twice, the scenarios
// without a ./benchmark workload are registered, and an unknown name is
// an error. Running the entries is the other tests' job.
func TestFigureDispatch(t *testing.T) {
	seen := map[string]bool{}
	for i := range experiments {
		e := &experiments[i]
		for _, n := range append([]string{e.name}, e.aliases...) {
			if seen[n] {
				t.Fatalf("%q is registered twice", n)
			}
			seen[n] = true
			if got := lookup(n); got != e {
				t.Fatalf("lookup(%q) = %v, want the %s entry", n, got, e.name)
			}
		}
	}
	names := FigureNames()
	if len(names) != len(experiments) {
		t.Fatalf("FigureNames lists %d of %d experiments", len(names), len(experiments))
	}
	for _, n := range []string{"fig2", "8l", "ablation-elr", "partition-scaling", "restore-latency"} {
		if !seen[n] {
			t.Fatalf("%q is not registered", n)
		}
	}
	if _, err := Figure("nope", quickScale); err == nil {
		t.Fatal("unknown figure must error")
	}
}

func TestAblationELR(t *testing.T) {
	tbl, err := AblationELR(quickScale)
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tbl, len(quickScale.clientSweep()))
}

func TestAblationGroupCommit(t *testing.T) {
	tbl, err := AblationGroupCommit(quickScale)
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tbl, 2)
}
