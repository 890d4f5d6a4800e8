package main

import "fmt"

// The metric names below are the benchmark's vocabulary: BENCHMARK.json
// lists exactly these (the smoke test compares the two), README.md
// defines each, and a later performance claim names one of the
// end-to-end metrics on one of the workloads.

type metricSpec struct{ name, unit string }

// endToEnd is reported by every workload of an untraced run.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"txn_per_s", "1/s"},
	{"rows_per_s", "1/s"},
	{"log_bytes_per_txn", "B"},
	{"alloc_bytes_per_txn", "B"},
	{"peak_rss_mb", "MiB"},
	{"recover_s", "s"},
}

// perLayer is reported by every workload of a traced run. Spans and
// counters a workload never produces read 0.
var perLayer = []metricSpec{
	{"bench.traced_txn_per_s", "1/s"},
	{"bench.traced_lat_p50_ms", "ms"},
	{"bench.traced_lat_p99_ms", "ms"},

	{"session.begin_us", "us"},
	{"session.update_us", "us"},
	{"session.insert_us", "us"},
	{"session.read_us", "us"},
	{"session.scan_chunk_us", "us"},
	{"session.commit_submit_us", "us"},
	{"session.ack_wait_us", "us"},
	{"session.span_sum_ms", "ms"},

	{"wire.rtt_read_us", "us"},
	{"wire.rtt_commit_us", "us"},
	{"wire.frames_per_txn", "ratio"},
	{"wire.ping_rtt_us", "us"},
	{"wire.encode_req_ns", "ns"},
	{"wire.decode_req_ns", "ns"},
	{"wire.encode_allocs", "count"},

	{"lockmgr.txn_locks_ns", "ns"},
	{"lockmgr.sli_hit_frac", "ratio"},

	{"logrec.encode_ns", "ns"},
	{"logrec.encode_allocs", "count"},
	{"logrec.decode_ns", "ns"},

	{"logbuf.insert_ns_1t", "ns"},
	{"logbuf.insert_ns_2t", "ns"},

	{"core.append_ns", "ns"},
	{"core.durable_wake_us", "us"},
	{"core.flushes_per_commit", "ratio"},
	{"core.group_bytes", "B"},

	{"logdev.seg_append_sync_us", "us"},
	{"logdev.seg_syncs_per_flush", "ratio"},
	{"logdev.live_log_mb_end", "MiB"},

	{"txn.tpcb_txn_ns", "ns"},
	{"txn.ckpts", "count"},
	{"txn.sweep_pages_per_ckpt", "count"},
	{"txn.sweep_fsyncs_per_ckpt", "count"},
	{"txn.sweep_ms_mean", "ms"},

	{"storage.misses_per_txn", "ratio"},
	{"storage.evictions_per_txn", "ratio"},
	{"storage.steals_per_ktxn", "ratio"},
	{"storage.cleaner_writes_per_ktxn", "ratio"},
	{"storage.prefetch_hit_frac", "ratio"},
	{"storage.prefetch_useful_frac", "ratio"},
	{"storage.read_retries", "count"},
	{"storage.fault_us", "us"},
	{"storage.pagefile_get_us", "us"},
	{"storage.putbatch100_ms", "ms"},
	{"storage.putbatch100_fsyncs", "count"},
	{"storage.seqscan_pages_per_s_rd200us", "1/s"},
	{"storage.seqscan_prefetch_hit_frac_rd200us", "ratio"},

	{"recovery.replay_mb_per_s", "MiB/s"},
	{"recovery.redo_per_s", "1/s"},
	{"recovery.scanned_mb", "MiB"},
}

// vocabulary indexes both lists by name.
type metricDef struct {
	unit     string
	perLayer bool
}

var vocabulary = func() map[string]metricDef {
	v := map[string]metricDef{}
	for _, s := range endToEnd {
		v[s.name] = metricDef{s.unit, false}
	}
	for _, s := range perLayer {
		v[s.name] = metricDef{s.unit, true}
	}
	return v
}()

// checkMetrics completes a finished run: an untraced run must carry
// every end-to-end metric; a traced run carries every per-layer metric,
// with 0 for the ones its workload never produced.
func (r *run) checkMetrics() error {
	if r.cfg.trace {
		for _, s := range perLayer {
			if _, ok := r.res.Metrics[s.name]; !ok {
				r.set(s.name, 0)
			}
		}
		return nil
	}
	for _, s := range endToEnd {
		if _, ok := r.res.Metrics[s.name]; !ok {
			return fmt.Errorf("%s did not report %s", r.cfg.workload, s.name)
		}
	}
	return nil
}
