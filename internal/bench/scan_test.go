package bench

import (
	"testing"
	"time"
)

// TestScanMicrobenchmark runs PR 6's headline comparison — a cold
// sequential scan over a larger-than-memory table through the
// single-mutex baseline and through the concurrent pagefile with
// read-ahead, on a simulated device where a page read costs 200µs — and
// asserts the mechanism by counts: read-ahead engaged and was hit, the
// baseline never had two reads inside the device, the concurrent
// pagefile did. The throughput ratio that follows from the overlap is
// logged, not asserted: a wall-clock ≥ 2× on a shared two-core box
// failed about once per full run; aetherbench's scan scenario in `make
// bench-smoke` carries the number.
func TestScanMicrobenchmark(t *testing.T) {
	pages := 192
	if testing.Short() {
		pages = 96
	}
	res, err := RunScan(ScanConfig{
		Dir:           t.TempDir(),
		Pages:         pages,
		CachePages:    pages / 8,
		PrefetchDepth: 16,
		ReadDelay:     200 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%v; reads in flight: %d serial, %d concurrent", res, res.SerialMaxInflight, res.ConcurrentMaxInflight)
	if res.PrefetchReads == 0 || res.PrefetchHits == 0 {
		t.Fatalf("read-ahead never engaged: %+v", res)
	}
	if res.SerialMaxInflight != 1 {
		t.Fatalf("the single-mutex baseline had %d reads in flight, want exactly 1", res.SerialMaxInflight)
	}
	if res.ConcurrentMaxInflight < 2 {
		t.Fatalf("the concurrent scan never overlapped two page reads: %+v", res)
	}
}
