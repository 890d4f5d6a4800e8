package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// Span names are the calls a generator makes into the system, so the
// per-layer `session.*` and `wire.*` span medians are taken exactly at
// the API boundary the end-to-end latency is measured across.
type spanName uint8

const (
	spanBegin spanName = iota
	spanUpdate
	spanInsert
	spanRead
	spanScanChunk
	spanCommitSubmit
	spanAckWait
	spanCommit // blocking commit over the wire: one round trip, reported as wire.rtt_commit_us
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"begin", "update", "insert", "read", "scan_chunk", "commit_submit", "ack_wait", "commit",
}

// span is one timed call. Spans of one transaction share Txn, which is
// also the id of their parent (the transaction's root span runs from the
// first child's start to the last child's end).
type span struct {
	Txn   uint32
	Name  spanName
	Start int64 // ns since the tracer's epoch
	End   int64 // 0 until the call (or the durable ack) returned
}

// tracer records one client's spans in memory. A nil tracer records
// nothing, so untraced runs pay one nil check per call.
type tracer struct {
	client int
	epoch  time.Time
	spans  slab[span]
}

func (t *tracer) start(txn uint32, name spanName) *span {
	if t == nil {
		return nil
	}
	s := t.spans.push()
	*s = span{Txn: txn, Name: name, Start: int64(time.Since(t.epoch))}
	return s
}

// end may run on another goroutine than start (the durable-ack
// callback); the slab keeps s valid.
func (t *tracer) end(s *span) {
	if s != nil {
		s.End = int64(time.Since(t.epoch))
	}
}

// spanSet is a set of span names.
type spanSet uint

func spans(names ...spanName) (set spanSet) {
	for _, n := range names {
		set |= 1 << n
	}
	return set
}

// spanStats folds the clients' finished spans into
// per-name duration samples and, per transaction, the sum of its spans
// (both µs). The sums leave out the spans in skipSpans and every
// transaction that has a span in skipTxns: a workload's latency does
// not always run over all of every transaction.
func spanStats(tracers []*tracer, skipSpans, skipTxns spanSet) (byName [numSpanNames][]float64, perTxn []float64) {
	for _, t := range tracers {
		if t == nil {
			continue
		}
		last, sum, skip := uint32(0), 0.0, true
		flush := func() {
			if !skip {
				perTxn = append(perTxn, sum)
			}
		}
		t.spans.each(func(s *span) {
			if s.End == 0 {
				return
			}
			// An ack that beat its submit's return waited no time at all.
			us := float64(max(s.End-s.Start, 0)) / 1e3
			byName[s.Name] = append(byName[s.Name], us)
			if s.Txn != last {
				flush()
				last, sum, skip = s.Txn, 0, false
			}
			if skipTxns&(1<<s.Name) != 0 {
				skip = true
			}
			if skipSpans&(1<<s.Name) == 0 {
				sum += us
			}
		})
		flush()
	}
	return byName, perTxn
}

// traceFileTxns bounds the trace file: a 10 s pipelined run records a
// few million spans, which would take longer to write than to measure.
// Every k-th transaction of each client is written whole.
const traceFileTxns = 4000

// writeTrace writes the sampled spans: every transaction is a root span
// ("txn") and each call made for it a child naming it as parent.
func writeTrace(path, workload string, tracers []*tracer) error {
	type line struct {
		ID      string `json:"id"`
		Parent  string `json:"parent,omitempty"`
		Name    string `json:"name"`
		StartNs int64  `json:"start_ns"`
		EndNs   int64  `json:"end_ns"`
	}
	total := 0
	for _, t := range tracers {
		if t != nil && t.spans.len() > 0 {
			total += int(t.spans.at(t.spans.len() - 1).Txn)
		}
	}
	every := uint32(total/traceFileTxns + 1)
	var spans []line
	for _, t := range tracers {
		if t == nil {
			continue
		}
		root := -1 // index of the current transaction's root span
		t.spans.each(func(s *span) {
			if s.Txn%every != 0 || s.End == 0 {
				return
			}
			id := fmt.Sprintf("c%d.t%d", t.client, s.Txn)
			if root < 0 || spans[root].ID != id {
				root = len(spans)
				spans = append(spans, line{ID: id, Name: "txn", StartNs: s.Start})
			}
			if s.End > spans[root].EndNs {
				spans[root].EndNs = s.End
			}
			spans = append(spans, line{ID: fmt.Sprintf("%s.s%d", id, len(spans)-root), Parent: id,
				Name: spanNames[s.Name], StartNs: s.Start, EndNs: s.End})
		})
	}
	data, err := json.Marshal(map[string]any{
		"workload": workload, "clock": "ns since run start", "sampled_every_txn": every, "spans": spans,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
