package main

import (
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"aether"
)

const (
	scanRows       = 200_000 // ≈ 2 500 pages of 100-byte rows
	scanCachePages = 256     // about a tenth of the table
	scanPrefetch   = 32
	scanRange      = 2_000 // rows per Tx.Scan call
	scanPasses     = 25    // full-table passes per cycle: about two seconds' worth
	scanTable      = "rows"
)

func scanOptions(dir string, pool int) aether.Options {
	return aether.Options{LogPath: dir, SegmentSize: 8 << 20, CachePages: pool, PrefetchDepth: scanPrefetch}
}

// openScanTable opens (or reopens) the read-only database and rebuilds
// its index; a bounded pool faults the pages through read-ahead.
func openScanTable(opts aether.Options) (*aether.DB, *aether.Table, error) {
	db, err := aether.Open(opts)
	if err != nil {
		return nil, nil, fmt.Errorf("open: %w", err)
	}
	t, err := db.CreateTable(scanTable)
	if err == nil {
		err = db.RebuildAfterRecovery()
	}
	if err != nil {
		db.Close()
		return nil, nil, err
	}
	return db, t, nil
}

// loadScanTable writes the table with an unbounded pool, checkpoints
// and closes it. It returns the log bytes the load wrote.
func loadScanTable(dir string, rows int) (int64, error) {
	opts := scanOptions(dir, 0)
	opts.PrefetchDepth = 0
	db, err := aether.Open(opts)
	if err != nil {
		return 0, fmt.Errorf("open: %w", err)
	}
	defer db.Close()
	t, err := db.CreateTable(scanTable)
	if err != nil {
		return 0, err
	}
	s := db.Session()
	defer s.Close()
	l := loader{s: s}
	for k := uint64(1); k <= uint64(rows); k++ {
		if err := l.insert(t, k, tatpRow(k, 0)); err != nil {
			return 0, err
		}
	}
	if err := l.flush(); err != nil {
		return 0, err
	}
	if err := db.Checkpoint(); err != nil {
		return 0, err
	}
	logBytes := db.Stats().LogBytes
	return logBytes, db.Close()
}

// scanAll walks the whole table in scanRange-row Tx.Scan calls, one
// transaction each, checking that every range returns exactly its keys
// in order. drop, if non-zero, is a key the callback pretends it never
// saw (the smoke test's corrupted result).
func scanAll(r *run, s *aether.Session, t *aether.Table, rows int, tr *tracer, pass uint32, drop uint64) (int64, error) {
	var delivered int64
	for from := uint64(1); from <= uint64(rows); from += scanRange {
		to := min(from+scanRange-1, uint64(rows))
		next := from
		tx := s.Begin()
		sp := tr.start(pass<<12|uint32(from/scanRange), spanScanChunk)
		err := tx.Scan(t, from, to, func(key uint64, row []byte) bool {
			if key == drop {
				return true
			}
			if key != next {
				r.violate("scan [%d,%d] returned key %d, expected %d", from, to, key, next)
				return false
			}
			if msg := tatpCheckRow(key, row); msg != "" {
				r.violate("scan row %d: %s", key, msg)
			}
			next++
			return true
		})
		tr.end(sp)
		if err == nil {
			err = tx.Commit()
		} else {
			_ = tx.Abort() // the scan error is what is reported
		}
		if err != nil {
			return delivered, fmt.Errorf("scan [%d,%d]: %w", from, to, err)
		}
		if next != to+1 {
			r.violate("scan [%d,%d] delivered %d rows, expected %d", from, to, next-from, to-from+1)
		}
		delivered += int64(next - from)
	}
	return delivered, nil
}

// runScanCold is the read-only workload: a table ten times the pool,
// client 0 scanning it end to end scanPasses times while client 1 reads
// random rows until the scanner is done.
func runScanCold(r *run) error {
	rows := r.scaled(scanRows, 2*scanRange)
	pool := r.scaled(scanCachePages, 32)

	err := r.cycles(func(n int, counted bool) (c cycle, err error) {
		dir, err := r.newDir()
		if err != nil {
			return c, err
		}
		defer os.RemoveAll(dir)
		opts := scanOptions(dir, pool)
		start := time.Now()
		loadBytes, err := loadScanTable(dir, rows)
		if err != nil {
			return c, err
		}
		db, table, err := openScanTable(opts)
		if err != nil {
			return c, err
		}
		c.setupS = time.Since(start).Seconds()
		defer func() { db.Close() }()

		tracers := make([]*tracer, clients)
		if counted {
			tracers = r.tracers
		}
		var drop uint64
		if r.cfg.sabotage == sabotageDropRow && n == 1 {
			drop = uint64(rows / 2)
		}
		var scanned int64
		var scanErr error
		var scanDone atomic.Bool
		before := takeSnapshot(db)
		eachClient(clients, func(i int) {
			s := db.Session()
			defer s.Close()
			if i == 0 {
				defer scanDone.Store(true)
				for pass := 1; pass <= scanPasses && scanErr == nil; pass++ {
					var got int64
					got, scanErr = scanAll(r, s, table, rows, tracers[0], uint32(n*scanPasses+pass), drop)
					scanned += got
				}
				return
			}
			rng, tr := r.rng(n*clients+i), tracers[i]
			for id := uint32(n) << 24; !scanDone.Load(); id++ {
				key := uint64(rng.Intn(rows) + 1)
				c.attempted++
				start := time.Now()
				sp := tr.start(id, spanBegin)
				tx := s.Begin()
				tr.end(sp)
				sp = tr.start(id, spanRead)
				row, rerr := tx.Read(table, key)
				tr.end(sp)
				if rerr == nil {
					sp = tr.start(id, spanAckWait)
					rerr = tx.Commit()
					tr.end(sp)
				} else {
					_ = tx.Abort() // already failed
				}
				if rerr != nil {
					c.failed++
					r.violate("read of %d: %v", key, rerr)
					continue
				}
				c.latMs = append(c.latMs, float64(time.Since(start))/1e6)
				if msg := tatpCheckRow(key, row); msg != "" {
					r.violate("read of %d: %s", key, msg)
				}
			}
		})
		c.charge(before, takeSnapshot(db))
		if scanErr != nil {
			return c, scanErr
		}
		c.acked, c.rows = int64(len(c.latMs)), scanned
		c.attempted += scanPasses
		// The scanner allocates too, so the bytes are charged per row either
		// client was handed: per read alone, the figure would move with how
		// many reads fit beside a pass. Nothing is logged while this
		// workload runs; the load is all the logging it ever does, charged
		// per row loaded.
		c.allocOver = c.acked + scanned
		c.logBytes, c.logTxns = loadBytes, int64(rows)
		c.liveLogMiB = segmentFilesMiB(dir)

		err = c.restart(db, func() (*aether.DB, error) {
			reopened, t, err := openScanTable(opts)
			if err == nil {
				db, table = reopened, t
			}
			return reopened, err
		})
		if err != nil {
			return c, err
		}
		s := db.Session()
		defer s.Close()
		got, err := scanAll(r, s, table, rows, nil, 0, 0)
		if err != nil {
			return c, err
		}
		if got != int64(rows) {
			r.violate("table holds %d rows after restart, loaded %d", got, rows)
		}
		return c, nil
	})
	if err != nil {
		return err
	}
	r.reportSpans(0, spans(spanScanChunk)) // latency is client 1's reads
	return nil
}
