package distlog

import (
	"testing"

	"aether/internal/logrec"
	"aether/internal/lsn"
)

func TestExtractTrace(t *testing.T) {
	var log []byte
	add := func(rec *logrec.Record) {
		b, err := rec.Encode()
		if err != nil {
			t.Fatal(err)
		}
		log = append(log, b...)
	}
	up := logrec.Splice(0, []byte("a"), []byte("b"))
	add(logrec.NewUpdate(1, lsn.Undefined, 100, up))
	add(logrec.NewCommit(1, 0))
	add(logrec.NewUpdate(2, lsn.Undefined, 101, up))
	add(logrec.NewCLR(3, lsn.Undefined, 102, lsn.Undefined, up))

	trace := ExtractTrace(log)
	if len(trace) != 3 {
		t.Fatalf("trace has %d entries, want 3 (commit excluded)", len(trace))
	}
	if trace[0].PageID != 100 || trace[1].PageID != 101 || trace[2].PageID != 102 {
		t.Fatalf("pages: %+v", trace)
	}
}

func TestAnalyzeNoSharingNoDeps(t *testing.T) {
	// Each transaction writes its own page: zero dependencies.
	var trace []TraceEntry
	for i := 0; i < 100; i++ {
		trace = append(trace, TraceEntry{TxnID: uint64(i), PageID: uint64(i), Size: 100})
	}
	res := Analyze(trace, Config{Logs: 8})
	if res.Dependencies != 0 {
		t.Fatalf("deps: %d", res.Dependencies)
	}
	if res.Records != 100 || res.Bytes != 10000 || res.Transactions != 100 {
		t.Fatalf("result: %+v", res)
	}
}

func TestAnalyzeHotPageMakesDeps(t *testing.T) {
	// Every transaction updates page 1 back to back: every hand-off
	// between different logs is a tight dependency.
	var trace []TraceEntry
	for i := 0; i < 64; i++ {
		trace = append(trace, TraceEntry{TxnID: uint64(i), PageID: 1, Size: 100})
	}
	res := Analyze(trace, Config{Logs: 8})
	if res.Dependencies == 0 {
		t.Fatal("hot page produced no dependencies")
	}
	// txnID%8 round-robins: all 63 hand-offs cross logs.
	if res.Dependencies != 63 {
		t.Fatalf("deps: %d, want 63", res.Dependencies)
	}
	if res.TightDependencies != 63 {
		t.Fatalf("tight: %d, want 63", res.TightDependencies)
	}
	if res.TightFraction() != 1.0 {
		t.Fatalf("tight fraction: %f", res.TightFraction())
	}
}

func TestAnalyzeSingleLogNoDeps(t *testing.T) {
	var trace []TraceEntry
	for i := 0; i < 50; i++ {
		trace = append(trace, TraceEntry{TxnID: uint64(i), PageID: 1, Size: 80})
	}
	res := Analyze(trace, Config{Logs: 1})
	if res.Dependencies != 0 {
		t.Fatalf("single log cannot have inter-log deps: %d", res.Dependencies)
	}
	if res.IntraLog != 49 {
		t.Fatalf("intra-log hand-offs: %d", res.IntraLog)
	}
}

func TestAnalyzeCustomAssign(t *testing.T) {
	// Perfect partitioning by page (txn i touches page i%2, assigned to
	// log i%2): zero inter-log deps even with page sharing.
	var trace []TraceEntry
	for i := 0; i < 40; i++ {
		trace = append(trace, TraceEntry{TxnID: uint64(i), PageID: uint64(i % 2), Size: 64})
	}
	res := Analyze(trace, Config{
		Logs:   2,
		Assign: func(txnID uint64) int { return int(txnID % 2) },
	})
	if res.Dependencies != 0 {
		t.Fatalf("aligned partitioning: %d deps", res.Dependencies)
	}
}

func TestAnalyzeTightWindow(t *testing.T) {
	// Page hand-off with many intervening records in the older log:
	// dependency exists but is not tight.
	trace := []TraceEntry{
		{TxnID: 0, PageID: 1, Size: 64}, // log 0
	}
	// 10 filler records in log 0 on other pages.
	for i := 0; i < 10; i++ {
		trace = append(trace, TraceEntry{TxnID: 2, PageID: uint64(100 + i), Size: 64}) // log 0 (2%2=0)
	}
	trace = append(trace, TraceEntry{TxnID: 1, PageID: 1, Size: 64}) // log 1 touches page 1
	res := Analyze(trace, Config{Logs: 2, TightWindow: 5})
	if res.Dependencies != 1 {
		t.Fatalf("deps: %d", res.Dependencies)
	}
	if res.TightDependencies != 0 {
		t.Fatalf("dependency should be loose: %d tight", res.TightDependencies)
	}
}

func TestResultString(t *testing.T) {
	res := Result{Logs: 8, Records: 10, Bytes: 2048, Transactions: 5, Dependencies: 4, TightDependencies: 2}
	s := res.String()
	if s == "" || res.DependencyRate() != 2.0 || res.TightFraction() != 0.5 {
		t.Fatalf("string/rates wrong: %q %f %f", s, res.DependencyRate(), res.TightFraction())
	}
	var zero Result
	if zero.DependencyRate() != 0 || zero.TightFraction() != 0 {
		t.Fatal("zero result rates")
	}
}
