package main

import (
	"io/fs"
	"path/filepath"
	"strings"

	"aether"
)

// reportSpans turns the timed phase's API spans into the session.*
// medians. session.span_sum_ms is the typical time a transaction's spans
// cover (the interquartile mean over transactions, as the typical
// latency is over latencies): it should land within the span overhead of
// bench.traced_lat_p50_ms, or the spans miss part of what a transaction
// waits for.
// (On a workload whose transactions are all alike it is also what the
// span medians add up to.) skipSpans and skipTxns name what the
// workload's latency leaves out.
func (r *run) reportSpans(skipSpans, skipTxns spanSet) {
	byName, perTxn := spanStats(r.tracers, skipSpans, skipTxns)
	for n, metricName := range map[spanName]string{
		spanBegin:        "session.begin_us",
		spanUpdate:       "session.update_us",
		spanInsert:       "session.insert_us",
		spanRead:         "session.read_us",
		spanScanChunk:    "session.scan_chunk_us",
		spanCommitSubmit: "session.commit_submit_us",
		spanAckWait:      "session.ack_wait_us",
	} {
		r.setTiming(metricName, summarize(byName[n]))
	}
	r.set("session.span_sum_ms", midmean(perTxn)/1e3)
}

// reportEngineCounters turns DB.Stats deltas over one cycle's work into
// the per-layer counters. A counter that a workload never moves reads 0.
// liveLogMiB is the size of the log's segment files after the work, 0
// for an in-memory log.
func (r *run) reportEngineCounters(a, b aether.Stats, txns int64, liveLogMiB float64) {
	n := float64(txns)
	d := func(x, y int64) float64 { return float64(y - x) }
	r.set("core.flushes_per_commit", ratio(d(a.LogFlushes, b.LogFlushes), d(a.Commits, b.Commits)))
	r.set("core.group_bytes", ratio(d(a.LogBytes, b.LogBytes), d(a.LogFlushes, b.LogFlushes)))

	ckpts := d(a.Checkpoints, b.Checkpoints)
	r.set("txn.ckpts", ckpts)
	r.set("txn.sweep_pages_per_ckpt", ratio(d(a.SweepPages, b.SweepPages), ckpts))
	r.set("txn.sweep_fsyncs_per_ckpt", ratio(d(a.SweepFsyncs, b.SweepFsyncs), ckpts))
	// SweepDuration is cumulative, and its percentiles are power-of-two
	// buckets; the mean over the phase's own sweeps is exact.
	sa, sb := a.SweepDuration, b.SweepDuration
	r.set("txn.sweep_ms_mean", ratio(float64(sb.Count*sb.MeanNs-sa.Count*sa.MeanNs)/1e6, d(sa.Count, sb.Count)))

	r.set("storage.misses_per_txn", ratio(d(a.PageMisses, b.PageMisses), n))
	r.set("storage.evictions_per_txn", ratio(d(a.PageEvictions, b.PageEvictions), n))
	r.set("storage.steals_per_ktxn", ratio(1e3*d(a.StealWrites, b.StealWrites), n))
	r.set("storage.cleaner_writes_per_ktxn", ratio(1e3*d(a.CleanerWrites, b.CleanerWrites), n))
	hits, reads := d(a.PrefetchHits, b.PrefetchHits), d(a.PrefetchReads, b.PrefetchReads)
	r.set("storage.prefetch_hit_frac", ratio(hits, hits+d(a.PageMisses, b.PageMisses)))
	r.set("storage.prefetch_useful_frac", ratio(hits, reads))
	r.set("storage.read_retries", d(a.ReadRetries, b.ReadRetries))
	r.set("logdev.live_log_mb_end", liveLogMiB)
}

// segmentFilesMiB sums the log segment files under dir.
func segmentFilesMiB(dir string) float64 {
	var total int64
	_ = filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err == nil && !e.IsDir() && strings.HasSuffix(e.Name(), ".seg") {
			if info, ierr := e.Info(); ierr == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return float64(total) / (1 << 20)
}
