package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"aether"
	"aether/internal/core"
	"aether/internal/lockmgr"
	"aether/internal/logbuf"
	"aether/internal/logdev"
	"aether/internal/logrec"
	"aether/internal/lsn"
	"aether/internal/recovery"
	"aether/internal/storage"
	"aether/internal/txn"
	"aether/internal/wire"
)

// The layer probes call each layer's exported functions directly, a
// fixed number of times, with inputs shaped like the workloads': TPC-B's
// 100-byte rows, and the ~32 KiB flush group the pipelined workload
// produces. They do not depend on the workload or the seed, so their
// counts repeat exactly and their times differ only by noise; every
// traced run carries them so that one result is self-contained.

const (
	probeGroupBytes = 32 << 10 // bytes one group-commit flush carries on tpcb_pipelined
	probePages      = 2048     // pages in the storage probes' database file; the pool is an eighth
	probeTxns       = 17_000   // ≈ 16 MiB of TPC-B log
)

// perCall times fn in batches of per calls and returns the median
// batch's time per call, in nanoseconds. Batching keeps the clock's own
// ~30 ns out of calls that take little more than that.
func perCall(batches, per int, fn func()) float64 {
	ns := make([]float64, batches)
	for b := range ns {
		start := time.Now()
		for i := 0; i < per; i++ {
			fn()
		}
		ns[b] = float64(time.Since(start)) / float64(per)
	}
	return median(ns)
}

// each times every call of fn on its own and returns the times in µs.
func each(n int, fn func(i int) error) ([]float64, error) {
	us := make([]float64, n)
	for i := range us {
		start := time.Now()
		if err := fn(i); err != nil {
			return nil, err
		}
		us[i] = float64(time.Since(start)) / 1e3
	}
	return us, nil
}

// allocsPerCall counts heap allocations per call of fn.
func allocsPerCall(n int, fn func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

// tpcbUpdateRecord is the log record one TPC-B balance update writes:
// an OpSet carrying the 100-byte before and after images.
func tpcbUpdateRecord() *logrec.Record {
	before, after := tpcbRow(7, 100, 0), tpcbRow(7, 250, 0)
	return logrec.NewUpdate(42, lsn.LSN(4096), storage.MakePageID(3, 17),
		logrec.UpdatePayload{Op: logrec.OpSet, Slot: 5, Before: before, After: after})
}

func (r *run) runProbes() error {
	for _, probe := range []func() error{
		r.probeWire, r.probeLockmgr, r.probeLogrec, r.probeLogbuf, r.probeCore,
		r.probeLogdev, r.probeTxnAndRecovery, r.probeStorage,
	} {
		// Collect what the workload, or the probe before, left behind:
		// a probe should not pay for marking someone else's heap.
		runtime.GC()
		if err := probe(); err != nil {
			return err
		}
	}
	return nil
}

func (r *run) probeWire() error {
	req := &wire.Request{ID: 99, Op: wire.OpUpdate, Table: 1, Key: 12345, Row: tatpRow(12345, 3)}
	var frame []byte
	encode := func() { frame = wire.AppendRequest(frame[:0], req) }
	r.set("wire.encode_req_ns", perCall(200, 256, encode))
	r.set("wire.encode_allocs", allocsPerCall(10_000, encode))
	var derr error
	r.set("wire.decode_req_ns", perCall(200, 256, func() {
		if _, err := wire.DecodeRequest(frame[4:]); err != nil {
			derr = err
		}
	}))
	if derr != nil {
		return fmt.Errorf("wire decode: %w", derr)
	}

	// Ping: a round trip through the client, the socket and the server's
	// connection goroutine with no engine work behind it.
	db, err := aether.Open(aether.Options{})
	if err != nil {
		return err
	}
	defer db.Close()
	_, addr, stop, err := serveWire(db)
	if err != nil {
		return err
	}
	defer stop() // a probe's server holds nothing whose drain could fail usefully
	conn, err := wire.Dial(addr, wire.ClientOptions{})
	if err != nil {
		return err
	}
	defer conn.Close()
	sess, err := conn.Session()
	if err != nil {
		return err
	}
	defer sess.Close()
	us, err := each(3000, func(int) error { return sess.Ping() })
	if err != nil {
		return fmt.Errorf("wire ping: %w", err)
	}
	r.setTiming("wire.ping_rtt_us", summarize(us))
	return nil
}

// probeLockmgr takes the locks one TPC-B transaction takes — table IX
// and row X on four tables — uncontended, through an agent cache as the
// engine does, and releases them.
func (r *run) probeLockmgr() error {
	m := lockmgr.New(lockmgr.Config{SLI: true})
	cache := lockmgr.NewAgentCache(0)
	rng := rand.New(rand.NewSource(1))
	var lerr error
	id := uint64(0)
	ns := perCall(200, 64, func() {
		id++
		l := m.NewLocker(id, cache)
		for space := uint32(1); space <= 4; space++ {
			if err := l.Acquire(lockmgr.TableKey(space), lockmgr.ModeIX); err != nil {
				lerr = err
			}
			if err := l.Acquire(lockmgr.RowKey(space, uint64(rng.Intn(100_000)+1)), lockmgr.ModeX); err != nil {
				lerr = err
			}
		}
		l.ReleaseAll()
	})
	if lerr != nil {
		return fmt.Errorf("lockmgr probe: %w", lerr)
	}
	r.set("lockmgr.txn_locks_ns", ns)
	st := m.Stats()
	r.set("lockmgr.sli_hit_frac", ratio(float64(st.SLIHits.Load()), float64(st.Acquires.Load())))
	return nil
}

func (r *run) probeLogrec() error {
	rec := tpcbUpdateRecord()
	buf := make([]byte, rec.EncodedSize())
	var eerr error
	encode := func() {
		if err := rec.EncodeInto(buf); err != nil {
			eerr = err
		}
	}
	r.set("logrec.encode_ns", perCall(200, 256, encode))
	r.set("logrec.encode_allocs", allocsPerCall(10_000, encode))
	r.set("logrec.decode_ns", perCall(200, 256, func() {
		if _, _, err := logrec.Decode(buf); err != nil {
			eerr = err
		}
	}))
	if eerr != nil {
		return fmt.Errorf("logrec probe: %w", eerr)
	}
	return nil
}

// probeLogbuf inserts the TPC-B update record into the hybrid (CD)
// buffer the engine uses, from one and from two goroutines. The ring is
// large enough to take every insert without wrapping, so no reader has
// to compete with the inserters for the box's two cores; the figure is
// the median of several fresh rings.
func (r *run) probeLogbuf() error {
	rec, err := tpcbUpdateRecord().Encode()
	if err != nil {
		return err
	}
	const (
		inserts = 100_000 // per goroutine: 2 × 100 000 × ~270 B stays under the ring size
		rings   = 5
	)
	for _, threads := range []int{1, 2} {
		var ns []float64
		for ring := 0; ring < rings; ring++ {
			buf, err := logbuf.New(logbuf.Config{Variant: logbuf.VariantCD, Size: 1 << 26})
			if err != nil {
				return err
			}
			var wg sync.WaitGroup
			errs := make([]error, threads)
			start := time.Now()
			for t := 0; t < threads; t++ {
				wg.Add(1)
				go func(t int) {
					defer wg.Done()
					ins := buf.NewInserter()
					for i := 0; i < inserts; i++ {
						if _, err := ins.Insert(rec); err != nil {
							errs[t] = err
							return
						}
					}
				}(t)
			}
			wg.Wait()
			ns = append(ns, float64(time.Since(start))/inserts)
			for _, err := range errs {
				if err != nil {
					return fmt.Errorf("logbuf probe: %w", err)
				}
			}
		}
		r.set(fmt.Sprintf("logbuf.insert_ns_%dt", threads), median(ns))
	}
	return nil
}

// probeCore appends through a LogManager on a zero-latency device.
// durable_wake_us is one record appended and waited for with nothing
// else in flight: with no device time to wait for, what is left is the
// flush daemon noticing the work and waking the waiter.
func (r *run) probeCore() error {
	lm, err := core.New(core.Config{
		Buffer: logbuf.Config{Variant: logbuf.VariantCD, Size: 1 << 23},
		Device: logdev.NewMem(logdev.ProfileMemory),
	})
	if err != nil {
		return err
	}
	defer lm.Close()
	app := lm.NewAppender()
	rec := tpcbUpdateRecord()
	var aerr error
	r.set("core.append_ns", perCall(200, 256, func() {
		if _, _, err := app.Append(rec); err != nil {
			aerr = err
		}
	}))
	if aerr != nil {
		return fmt.Errorf("core append: %w", aerr)
	}
	lm.Flush()
	us, err := each(300, func(int) error {
		_, end, err := app.Append(rec)
		if err != nil {
			return err
		}
		return lm.WaitDurable(end)
	})
	if err != nil {
		return fmt.Errorf("core durable wake: %w", err)
	}
	r.setTiming("core.durable_wake_us", summarize(us))
	return nil
}

// probeLogdev appends one flush group to a file-backed segmented device
// and syncs it, then counts device syncs per flush under a LogManager.
func (r *run) probeLogdev() error {
	dir, err := r.newDir()
	if err != nil {
		return err
	}
	dev, err := logdev.OpenSegmentedDir(dir, 8<<20)
	if err != nil {
		return err
	}
	group := make([]byte, probeGroupBytes)
	us, err := each(300, func(int) error {
		if _, err := dev.Append(group); err != nil {
			return err
		}
		return dev.Sync()
	})
	if cerr := dev.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("logdev probe: %w", err)
	}
	r.setTiming("logdev.seg_append_sync_us", summarize(us))

	if dir, err = r.newDir(); err != nil {
		return err
	}
	if dev, err = logdev.OpenSegmentedDir(dir, 8<<20); err != nil {
		return err
	}
	defer dev.Close()
	lm, err := core.New(core.Config{Buffer: logbuf.Config{Variant: logbuf.VariantCD, Size: 1 << 23}, Device: dev})
	if err != nil {
		return err
	}
	defer lm.Close()
	app, rec := lm.NewAppender(), tpcbUpdateRecord()
	for i := 0; i < 200; i++ {
		_, end, err := app.Append(rec)
		if err == nil {
			err = lm.WaitDurable(end)
		}
		if err != nil {
			return fmt.Errorf("logdev probe: %w", err)
		}
	}
	r.set("logdev.seg_syncs_per_flush", ratio(float64(dev.Stats().Syncs.Load()), float64(lm.Stats().Flushes.Load())))
	return nil
}

// probeTxnAndRecovery runs TPC-B on a txn.Engine over a zero-latency
// in-memory device, acknowledging before durability, so the time per
// transaction is CPU alone; then it replays the log those transactions
// wrote through recovery.Recover.
func (r *run) probeTxnAndRecovery() error {
	dev := logdev.NewMem(logdev.ProfileMemory)
	archive := storage.NewMemArchive()
	eng, _, err := txn.Restart(txn.RestartConfig{
		Device:     dev,
		Archive:    archive,
		LogConfig:  core.Config{Buffer: logbuf.Config{Variant: logbuf.VariantCD, Size: 1 << 23}},
		LockConfig: lockmgr.Config{SLI: true},
	})
	if err != nil {
		return err
	}
	closeEngine := func() error { eng.Close(); return eng.Log().Close() }
	const accounts = 20_000
	txns := r.scaled(probeTxns, 500)
	var tables [4]*txn.Table // branch, teller, account, history
	for i, name := range []string{"branch", "teller", "account", "history"} {
		if tables[i], err = eng.CreateTable(name, nil); err != nil {
			_ = closeEngine()
			return err
		}
	}
	ag := eng.NewAgent()
	err = func() error {
		tx := ag.Begin()
		for i, n := range []int{tpcbBranches, tpcbBranches * tellersPerBranch, accounts} {
			for k := uint64(1); k <= uint64(n); k++ {
				if err := tx.Insert(tables[i], k, tpcbRow(k, 0, 0)); err != nil {
					return err
				}
			}
		}
		if err := tx.Commit(txn.CommitSync, nil); err != nil {
			return err
		}
		if err := eng.Checkpoint(); err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(1))
		start := time.Now()
		for i := 1; i <= txns; i++ {
			branch := rng.Intn(tpcbBranches)
			keys := [3]uint64{uint64(branch + 1), uint64(branch*tellersPerBranch + rng.Intn(tellersPerBranch) + 1),
				uint64(branch*(accounts/tpcbBranches) + rng.Intn(accounts/tpcbBranches) + 1)}
			delta := int64(rng.Intn(1_999_999) - 999_999)
			tx := ag.Begin()
			for t := 2; t >= 0; t-- { // account, teller, branch
				err := tx.Update(tables[t], keys[t], func(row []byte) ([]byte, error) {
					out := append([]byte(nil), row...)
					binary.LittleEndian.PutUint64(out[8:], uint64(rowAmount(row)+delta))
					return out, nil
				})
				if err != nil {
					return err
				}
			}
			if err := tx.Insert(tables[3], uint64(i), tpcbRow(uint64(i), delta, keys[2])); err != nil {
				return err
			}
			if err := tx.Commit(txn.CommitAsync, nil); err != nil {
				return err
			}
		}
		r.set("txn.tpcb_txn_ns", float64(time.Since(start))/float64(txns))
		return nil
	}()
	ag.Close()
	if cerr := closeEngine(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("txn probe: %w", err)
	}

	tail, base, err := logdev.ReadTail(dev)
	if err != nil {
		return err
	}
	store := storage.NewStore()
	if err := store.SetBackend(archive); err != nil {
		return err
	}
	start := time.Now()
	res, err := recovery.Recover(recovery.Options{Log: tail, Base: lsn.LSN(base), Store: store})
	if err != nil {
		return fmt.Errorf("recovery probe: %w", err)
	}
	secs := time.Since(start).Seconds()
	if res.RedoApplied < 4*txns {
		return fmt.Errorf("recovery probe: redid %d updates, the log holds %d", res.RedoApplied, 4*txns)
	}
	r.set("recovery.scanned_mb", float64(res.ScannedBytes)/(1<<20))
	r.set("recovery.replay_mb_per_s", float64(res.ScannedBytes)/(1<<20)/secs)
	r.set("recovery.redo_per_s", float64(res.RedoApplied)/secs)
	return nil
}

// probeStorage builds a probePages-page database file and reads it back
// through each level: the file alone, a bounded pool without read-ahead
// (every access a fault with a clean victim), and a sequential scan with
// read-ahead against a simulated 200 µs device — the scenario ROADMAP
// records as having fallen from 8 045 to 2 334 pages/s.
func (r *run) probeStorage() error {
	dir, err := r.newDir()
	if err != nil {
		return err
	}
	pf, err := storage.OpenPageFile(filepath.Join(dir, "probe-pagefile.db"))
	if err != nil {
		return err
	}
	defer pf.Close()
	pages := r.scaled(probePages, 256)
	pids := make([]uint64, pages)
	images := make([]storage.PageImage, pages)
	for i := range pids {
		pids[i] = storage.MakePageID(1, uint64(i+1))
		p := storage.NewPage(pids[i])
		for slot := 0; p.CanFit(slot, tpcbRowSize); slot++ {
			if err := p.Insert(slot, tpcbRow(uint64(i*100+slot), 0, 0)); err != nil {
				return fmt.Errorf("storage probe: %w", err)
			}
		}
		images[i] = storage.PageImage{PID: pids[i], Img: p.Snapshot()}
	}
	fsyncs := pf.Fsyncs()
	const batch = 100
	ms, err := each(pages/batch, func(i int) error { return pf.PutBatch(images[i*batch : (i+1)*batch]) })
	if err != nil {
		return fmt.Errorf("storage probe: %w", err)
	}
	for i := range ms {
		ms[i] /= 1e3
	}
	r.setTiming("storage.putbatch100_ms", summarize(ms))
	r.set("storage.putbatch100_fsyncs", float64(pf.Fsyncs()-fsyncs)/float64(len(ms)))
	if err := pf.PutBatch(images[len(ms)*batch:]); err != nil {
		return fmt.Errorf("storage probe: %w", err)
	}

	rng := rand.New(rand.NewSource(1))
	us, err := each(3000, func(int) error {
		_, err := pf.Get(pids[rng.Intn(len(pids))])
		return err
	})
	if err != nil {
		return fmt.Errorf("storage probe: %w", err)
	}
	r.setTiming("storage.pagefile_get_us", summarize(us))

	scan := func(depth int) ([]float64, storage.CacheStats, error) {
		st := storage.NewStore()
		if err := st.SetBackend(pf); err != nil {
			return nil, storage.CacheStats{}, err
		}
		st.SetCachePages(int64(pages / 8))
		st.SetPrefetch(depth)
		us, err := each(len(pids), func(i int) error {
			p, err := st.Get(pids[i])
			if err != nil {
				return err
			}
			if p == nil {
				return fmt.Errorf("page %d missing from the database file", pids[i])
			}
			p.Unpin()
			return nil
		})
		return us, st.CacheStats(), err
	}
	us, cs, err := scan(0)
	if err != nil {
		return fmt.Errorf("storage probe: %w", err)
	}
	if cs.Misses != int64(pages) {
		return fmt.Errorf("storage probe: %d of %d accesses faulted; the pool must miss every one", cs.Misses, pages)
	}
	r.setTiming("storage.fault_us", summarize(us))

	pf.SetReadDelay(200 * time.Microsecond)
	start := time.Now()
	_, cs, err = scan(scanPrefetch)
	if err != nil {
		return fmt.Errorf("storage probe: %w", err)
	}
	r.set("storage.seqscan_pages_per_s_rd200us", float64(pages)/time.Since(start).Seconds())
	r.set("storage.seqscan_prefetch_hit_frac_rd200us", ratio(float64(cs.PrefetchHits), float64(cs.PrefetchHits+cs.Misses)))
	return nil
}
