package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// slab is an append-only store whose elements never move: push hands
// out a pointer that stays valid while later pushes grow the slab. A
// client goroutine pushes; an ack callback on the log daemon's goroutine
// writes through the pointer it was handed. The owner reads the slab
// only after every such callback has returned.
type slab[T any] struct {
	chunks [][]T
}

const slabChunk = 1 << 14

func (s *slab[T]) push() *T {
	if n := len(s.chunks); n == 0 || len(s.chunks[n-1]) == slabChunk {
		s.chunks = append(s.chunks, make([]T, 0, slabChunk))
	}
	c := &s.chunks[len(s.chunks)-1]
	*c = (*c)[:len(*c)+1]
	return &(*c)[len(*c)-1]
}

func (s *slab[T]) len() int {
	if len(s.chunks) == 0 {
		return 0
	}
	return (len(s.chunks)-1)*slabChunk + len(s.chunks[len(s.chunks)-1])
}

func (s *slab[T]) at(i int) *T { return &s.chunks[i/slabChunk][i%slabChunk] }

// each visits the elements in push order.
func (s *slab[T]) each(fn func(*T)) {
	for _, c := range s.chunks {
		for i := range c {
			fn(&c[i])
		}
	}
}

// timing summarises a set of duration samples the way the benchmark
// reports every timing: a median, plus the highest percentile that still
// has at least ten samples beyond it.
type timing struct {
	N       int
	P50     float64
	Tail    float64 // value at TailPct
	TailPct float64 // e.g. 99.9; 50 when N is too small for any tail
	Max     float64
}

// summarize sorts samples in place. The values keep the unit the
// caller collected them in.
func summarize(samples []float64) timing {
	n := len(samples)
	if n == 0 {
		return timing{}
	}
	sort.Float64s(samples)
	t := timing{N: n, P50: quantile(samples, 0.50), Max: samples[n-1]}
	t.Tail, t.TailPct = t.P50, 50
	for _, pct := range []float64{90, 99, 99.9, 99.99} {
		if float64(n)*(1-pct/100) >= 10 {
			t.Tail, t.TailPct = quantile(samples, pct/100), pct
		}
	}
	return t
}

// quantile reads the q-quantile of sorted samples (nearest rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// bandMean is the mean of the sorted samples whose rank lies between
// the quantiles lo and hi. Latencies here are quantised by the box's
// ~1 ms timer (a commit is acknowledged one tick later, or two), so the
// sample at one exact rank jumps by a whole tick when the mix shifts a
// little; the mean over a band of ranks moves smoothly.
func bandMean(sorted []float64, lo, hi float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	i := min(int(lo*float64(n)), n-1)
	j := max(min(int(math.Ceil(hi*float64(n))), n), i+1)
	var sum float64
	for _, x := range sorted[i:j] {
		sum += x
	}
	return sum / float64(j-i)
}

// midmean is the interquartile mean: the mean of the middle half of the
// samples. It is the median's smooth cousin, and ignores a disturbed
// quarter of the samples at either end.
func midmean(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return bandMean(s, 0.25, 0.75)
}

// ratio is a/b, and 0 when b is 0: a per-layer counter that does not
// apply to a workload reads 0 rather than NaN (which JSON cannot carry).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMiB reads this process's resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}
