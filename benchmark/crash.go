package main

import (
	"time"

	"aether"
)

const (
	crashAccounts = 20_000
	crashTxns     = 20_000 // per cycle, so every cycle replays the same volume of log
)

// runCrashRecover repeats: fresh in-memory database, load, checkpoint,
// a fixed number of pipelined TPC-B transactions from one session, then
// DB.Crash while the last window of commits is still in flight.
// Crash discards every log byte not yet flushed, which killing the
// process would not; recovery must bring back every commit acknowledged
// with a nil error, and each in-flight one wholly or not at all.
//
// DB.Crash exists only for in-memory devices, so this is the one
// workload on one; its cycles are short because with no checkpointer
// nothing truncates the log, and an in-memory log is memory.
func runCrashRecover(r *run) error {
	accounts := r.scaled(crashAccounts, tpcbBranches*10)
	txns := r.scaled(crashTxns, 200)
	opts := aether.Options{SegmentSize: 8 << 20}

	err := r.cycles(func(n int, counted bool) (c cycle, err error) {
		start := time.Now()
		d, err := openTPCB(opts, accounts)
		if err != nil {
			return c, err
		}
		c.setupS = time.Since(start).Seconds()
		defer func() { d.db.Close() }()

		cli := newTPCBClient(r, n, 0, accounts, txns, pipelineDepth)
		s := d.db.Session()
		before := takeSnapshot(d.db)
		for i := 0; i < txns; i++ {
			cli.submit(d, s, true)
		}
		c.charge(before, takeSnapshot(d.db))

		cli.crashing.Store(true)
		start = time.Now()
		err = d.db.Crash()
		c.recoverS = []float64{time.Since(start).Seconds()}
		s.Close()
		if err != nil {
			return c, err
		}
		// A commit still in flight at the crash did not fail: it was cut
		// off, and an ack arriving after the crash began is not counted.
		cl := []*tpcbClient{cli}
		c.tally(cl, false)
		if err := d.bind(d.db.LookupTable); err != nil {
			return c, err
		}
		if r.cfg.sabotage == sabotageDropAck && n == 1 {
			if err := sabotageDropHistory(d, cl); err != nil {
				return c, err
			}
		}
		return c, tpcbVerify(r, d, cl)
	})
	if err != nil {
		return err
	}
	r.reportSpans(0, 0)
	return nil
}
