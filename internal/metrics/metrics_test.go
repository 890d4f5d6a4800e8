package metrics

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Load(); got != 42 {
		t.Fatalf("Load: got %d, want 42", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10000; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != 80000 {
		t.Fatalf("got %d, want 80000", got)
	}
}

func TestBucketFor(t *testing.T) {
	cases := []struct {
		n    int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 2}, {1023, 9}, {1024, 10},
		{math.MaxInt64, histBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketFor(c.n); got != c.want {
			t.Errorf("bucketFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	h.Observe(10 * time.Microsecond)
	h.Observe(20 * time.Microsecond)
	h.Observe(30 * time.Microsecond)
	if got := h.Count(); got != 3 {
		t.Fatalf("Count: got %d", got)
	}
	if got := h.Mean(); got != 20*time.Microsecond {
		t.Fatalf("Mean: got %v", got)
	}
	if got := h.Sum(); got != 60*time.Microsecond {
		t.Fatalf("Sum: got %v", got)
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	var h Histogram
	h.Observe(-time.Second)
	if got := h.Sum(); got != 0 {
		t.Fatalf("negative sample should clamp to 0, sum=%v", got)
	}
	if got := h.Count(); got != 1 {
		t.Fatalf("count: got %d", got)
	}
}

// Property: Quantile is an upper bound within 2x for a uniform batch of
// identical samples.
func TestQuickHistogramQuantileBound(t *testing.T) {
	f := func(raw uint32) bool {
		d := time.Duration(raw%1_000_000 + 1)
		var h Histogram
		for i := 0; i < 10; i++ {
			h.Observe(d)
		}
		q := h.Quantile(0.5)
		return q >= d && q <= 4*d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramQuantileOrdering(t *testing.T) {
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	p50, p90, p99 := h.Quantile(0.5), h.Quantile(0.9), h.Quantile(0.99)
	if p50 > p90 || p90 > p99 {
		t.Fatalf("quantiles not monotone: p50=%v p90=%v p99=%v", p50, p90, p99)
	}
}

func TestBreakdownNegativeIgnored(t *testing.T) {
	var b Breakdown
	b.Add(PhaseLogWork, -time.Second)
	if b.Get(PhaseLogWork) != 0 {
		t.Fatal("negative duration must be ignored")
	}
}

func TestPhaseString(t *testing.T) {
	if PhaseLogContention.String() != "log-contention" {
		t.Fatal("phase name wrong")
	}
	if Phase(99).String() != "phase(99)" {
		t.Fatal("out-of-range phase name wrong")
	}
}

func TestBreakdownConcurrent(t *testing.T) {
	var b Breakdown
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				b.Add(PhaseLogWork, time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := b.Get(PhaseLogWork); got != 8*1000*time.Microsecond {
		t.Fatalf("got %v", got)
	}
}
