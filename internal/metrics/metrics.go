// Package metrics provides the lightweight, allocation-free instrumentation
// Aether's experiments are built on: atomic counters, power-of-two latency
// histograms, and the per-phase time breakdown (log work vs. log
// contention vs. log wait) that the paper's Figures 2 and 7 plot.
//
// Everything here is safe for concurrent use and designed so the probes are
// cheap enough to leave enabled in the hot paths being measured.
package metrics

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// histBuckets is the number of power-of-two latency buckets. Bucket i holds
// samples in [2^i, 2^(i+1)) nanoseconds; bucket 0 also holds zero. 48
// buckets cover up to ~78 hours, far beyond any latency we measure.
const histBuckets = 48

// Histogram is a concurrent power-of-two histogram of durations. The zero
// value is ready to use.
type Histogram struct {
	count  atomic.Int64
	sum    atomic.Int64 // nanoseconds
	bucket [histBuckets]atomic.Int64
}

// Observe records one duration sample.
func (h *Histogram) Observe(d time.Duration) {
	n := int64(d)
	if n < 0 {
		n = 0
	}
	h.count.Add(1)
	h.sum.Add(n)
	h.bucket[bucketFor(n)].Add(1)
}

func bucketFor(n int64) int {
	if n <= 0 {
		return 0
	}
	b := 63 - bits.LeadingZeros64(uint64(n))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// Count returns the number of samples recorded.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the total of all samples.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Mean returns the average sample, or 0 if empty.
func (h *Histogram) Mean() time.Duration {
	c := h.count.Load()
	if c == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / c)
}

// Quantile returns an upper bound on the q-quantile (0 <= q <= 1) using the
// bucket boundaries. The estimate is exact to within a factor of two, which
// is sufficient for the shape comparisons the experiments make.
func (h *Histogram) Quantile(q float64) time.Duration {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	target := int64(q * float64(total))
	if target >= total {
		target = total - 1
	}
	var seen int64
	for i := 0; i < histBuckets; i++ {
		seen += h.bucket[i].Load()
		if seen > target {
			return time.Duration(int64(1) << uint(i+1)) // bucket upper bound
		}
	}
	return time.Duration(int64(1) << histBuckets)
}

// HistogramSnapshot is a point-in-time, JSON-friendly view of a
// Histogram (machine-readable benchmark output).
type HistogramSnapshot struct {
	// Count is how many observations the histogram has absorbed.
	Count int64 `json:"count"`
	// MeanNs is the mean observation in nanoseconds.
	MeanNs int64 `json:"mean_ns"`
	// P50Ns is the median in nanoseconds (bucketed upper bound).
	P50Ns int64 `json:"p50_ns"`
	// P99Ns is the 99th percentile in nanoseconds (bucketed upper bound).
	P99Ns int64 `json:"p99_ns"`
}

// Snapshot captures the histogram's summary statistics.
func (h *Histogram) Snapshot() HistogramSnapshot {
	return HistogramSnapshot{
		Count:  h.Count(),
		MeanNs: int64(h.Mean()),
		P50Ns:  int64(h.Quantile(0.50)),
		P99Ns:  int64(h.Quantile(0.99)),
	}
}

// String summarizes the histogram for human consumption.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%v p50≤%v p99≤%v",
		h.Count(), h.Mean(), h.Quantile(0.50), h.Quantile(0.99))
}

// Phase identifies where a transaction's wall-clock time is spent. These
// are exactly the categories of the paper's time-breakdown figures.
type Phase int

const (
	// PhaseLogWork is time spent inside the log manager doing useful
	// work: encoding and copying records ("Log mgr. work").
	PhaseLogWork Phase = iota
	// PhaseLogContention is time spent waiting to enter the log buffer:
	// mutex acquisition, consolidation-slot joins, in-order release waits
	// ("Log mgr. contention").
	PhaseLogContention
	// PhaseLogWait is time a committing transaction (or its detached
	// continuation) spends waiting for its commit record to harden —
	// the log-flush wait the paper calls delay (A).
	PhaseLogWait
	numPhases
)

var phaseNames = [numPhases]string{"log-work", "log-contention", "log-wait"}

// String returns the phase's short name.
func (p Phase) String() string {
	if p < 0 || p >= numPhases {
		return fmt.Sprintf("phase(%d)", int(p))
	}
	return phaseNames[p]
}

// Breakdown accumulates time per phase across any number of goroutines.
// The zero value is ready to use.
type Breakdown struct {
	ns [numPhases]atomic.Int64
}

// Add records d spent in phase p.
func (b *Breakdown) Add(p Phase, d time.Duration) {
	if d < 0 {
		return
	}
	b.ns[p].Add(int64(d))
}

// Get returns the accumulated time for phase p.
func (b *Breakdown) Get(p Phase) time.Duration {
	return time.Duration(b.ns[p].Load())
}
