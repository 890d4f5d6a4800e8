package bench

import (
	"bytes"
	"fmt"
	"time"

	"aether"
)

// RestoreConfig parameterizes the point-in-time-restore microbenchmark:
// the same deterministic workload is committed into two databases
// archiving into in-memory object stores — one taking snapshots at a
// fixed byte cadence, one keeping only the archived segments — and
// RestoreTo of the durable end is timed against both. The snapshot side
// restarts from the newest snapshot's page images and replays the log
// after it; the raw side replays the whole history from genesis.
type RestoreConfig struct {
	// Batches x TxnsPerBatch is the committed-transaction count.
	Batches int
	// TxnsPerBatch is the transactions committed per batch.
	TxnsPerBatch int
	// ValueBytes is the row payload size; with the per-record framing it
	// sets how many log bytes the raw side must replay end to end.
	ValueBytes int
	// SegmentSize is the log segment size: the unit the cold store
	// archives, and so restores download.
	SegmentSize int64
	// SnapshotEveryBytes is the snapshot cadence on the snapshot side.
	SnapshotEveryBytes int64
	// Iters is how many timed RestoreTo calls each side gets; the best
	// run is reported (restores share nothing, so min is the honest
	// figure on a noisy host).
	Iters int
}

// RestoreResult reports the restore-latency comparison.
type RestoreResult struct {
	// Txns is the committed-transaction count behind the restore point.
	Txns int
	// LogBytes is the full history length the raw side replayed.
	LogBytes int64
	// RestoreAt is the snapshot side's restore target (its durable end).
	RestoreAt int64
	// Snapshots is how many snapshots the snapshot side had taken.
	Snapshots int64
	// SnapshotMS is the best RestoreTo latency via the newest snapshot.
	SnapshotMS float64
	// RawMS is the best RestoreTo latency via full from-genesis replay.
	RawMS float64
}

// Speedup is raw-replay restore latency over snapshot-based latency.
func (r RestoreResult) Speedup() float64 {
	if r.SnapshotMS <= 0 {
		return 0
	}
	return r.RawMS / r.SnapshotMS
}

// Table renders the comparison as one row per restore path.
func (r RestoreResult) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Restore latency: RestoreTo the durable end of %d txns (%d log bytes; %d snapshots cut)",
			r.Txns, r.LogBytes, r.Snapshots),
		Columns: []string{"path", "best ms", "speedup"},
	}
	t.AddRow("raw replay from genesis", fmt.Sprintf("%.2f", r.RawMS), "1.0x")
	t.AddRow("newest snapshot + tail", fmt.Sprintf("%.2f", r.SnapshotMS), fmt.Sprintf("%.1fx", r.Speedup()))
	return t
}

// quickRestore is the test-scale history: 320 transactions, ~100 KB of
// log, one snapshot. RestoreLatency runs it under Scale.Quick and
// TestRestoreMicrobenchmark holds the 1.2× floor on it.
var quickRestore = RestoreConfig{
	Batches:            16,
	TxnsPerBatch:       20,
	ValueBytes:         128,
	SegmentSize:        8 << 10,
	SnapshotEveryBytes: 16 << 10,
	Iters:              2,
}

// RestoreLatency is the registry's "restore-latency" experiment:
// RunRestore at the scale's history length, as a table.
func RestoreLatency(scale Scale) (*Table, error) {
	cfg := RestoreConfig{} // RunRestore's defaults are the full scale
	if scale.Quick {
		cfg = quickRestore
	}
	res, err := RunRestore(cfg)
	if err != nil {
		return nil, err
	}
	return res.Table(), nil
}

// restoreWorkload commits the deterministic insert/update mix into db
// and returns the expected final committed state (key -> payload).
func restoreWorkload(db *aether.DB, tbl *aether.Table, cfg RestoreConfig) (map[uint64][]byte, error) {
	s := db.Session()
	defer s.Close()
	model := make(map[uint64][]byte, cfg.Batches*cfg.TxnsPerBatch)
	val := func(key uint64, gen int) []byte {
		v := make([]byte, cfg.ValueBytes)
		for i := range v {
			v[i] = byte(key + uint64(gen) + uint64(i))
		}
		return v
	}
	for b := 0; b < cfg.Batches; b++ {
		for i := 0; i < cfg.TxnsPerBatch; i++ {
			key := uint64(b*cfg.TxnsPerBatch + i)
			tx := s.Begin()
			if err := tx.Insert(tbl, key, aether.Row(key, val(key, 0))); err != nil {
				tx.Abort()
				return nil, fmt.Errorf("insert %d: %w", key, err)
			}
			model[key] = val(key, 0)
			// Rewrite an older key now and then, so restored state is a
			// replay result, not just an insert union.
			if old := key - 7; key%5 == 3 && key > 7 {
				if err := tx.Update(tbl, old, func([]byte) ([]byte, error) {
					return aether.Row(old, val(old, 1)), nil
				}); err != nil {
					tx.Abort()
					return nil, fmt.Errorf("update %d: %w", old, err)
				}
				model[old] = val(old, 1)
			}
			if err := tx.Commit(); err != nil {
				return nil, fmt.Errorf("commit %d: %w", key, err)
			}
		}
	}
	return model, nil
}

// quiesceRemote checkpoints and waits until the cloud tier settles:
// no parked segments pending upload and the snapshot count stable
// across consecutive polls — so the timed restores see the final
// object layout, not a daemon mid-pass.
func quiesceRemote(db *aether.DB) (aether.Stats, error) {
	deadline := time.Now().Add(10 * time.Second)
	stable := 0
	last := db.Stats()
	for {
		if err := db.Checkpoint(); err != nil {
			return aether.Stats{}, err
		}
		st := db.Stats()
		if st.LogSegmentsPendingArchive == 0 && st.LogSnapshots == last.LogSnapshots {
			stable++
			if stable >= 3 {
				return st, nil
			}
		} else {
			stable = 0
		}
		last = st
		if time.Now().After(deadline) {
			return aether.Stats{}, fmt.Errorf("cloud tier did not settle: %d segments pending, %d snapshots",
				st.LogSegmentsPendingArchive, st.LogSnapshots)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// timeRestore runs RestoreTo(at) iters times and returns the restored
// state of the first run plus the best latency in milliseconds.
func timeRestore(db *aether.DB, at int64, table string, iters int) (map[uint64][]byte, float64, error) {
	var state map[uint64][]byte
	best := 0.0
	for i := 0; i < iters; i++ {
		t0 := time.Now()
		r, err := db.RestoreTo(at)
		if err != nil {
			return nil, 0, err
		}
		ms := float64(time.Since(t0).Microseconds()) / 1000
		if i == 0 || ms < best {
			best = ms
		}
		if state == nil {
			state = make(map[uint64][]byte)
			err = r.Scan(table, func(key uint64, row []byte) bool {
				state[key] = append([]byte(nil), aether.RowPayload(row)...)
				return true
			})
		}
		if cerr := r.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, 0, err
		}
	}
	return state, best, nil
}

// diffRestored returns a description of the first divergence between
// an expected model and a restored state, or "".
func diffRestored(want, got map[uint64][]byte) string {
	for k, v := range want {
		g, ok := got[k]
		if !ok {
			return fmt.Sprintf("key %d missing", k)
		}
		if !bytes.Equal(v, g) {
			return fmt.Sprintf("key %d value diverged", k)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			return fmt.Sprintf("key %d unexpected", k)
		}
	}
	return ""
}

// RunRestore executes the restore-latency microbenchmark: commit the
// identical workload into a snapshot-cutting database and a raw-only
// one (both archiving into an in-memory cloud),
// then time RestoreTo of the durable end against each. Both restored
// states must equal the workload's committed model — the speedup is
// only meaningful if the fast path restores the same bytes.
func RunRestore(cfg RestoreConfig) (RestoreResult, error) {
	if cfg.Batches <= 0 {
		cfg.Batches = 24
	}
	if cfg.TxnsPerBatch <= 0 {
		cfg.TxnsPerBatch = 25
	}
	if cfg.ValueBytes <= 0 {
		cfg.ValueBytes = 192
	}
	if cfg.SegmentSize <= 0 {
		cfg.SegmentSize = 16 << 10
	}
	if cfg.SnapshotEveryBytes <= 0 {
		cfg.SnapshotEveryBytes = 32 << 10
	}
	if cfg.Iters <= 0 {
		cfg.Iters = 3
	}
	res := RestoreResult{Txns: cfg.Batches * cfg.TxnsPerBatch}

	open := func(snapshotEvery int64) (*aether.DB, *aether.Table, error) {
		db, err := aether.Open(aether.Options{
			SegmentSize:        cfg.SegmentSize,
			RemoteStore:        aether.NewMemObjectStore(),
			SnapshotEveryBytes: snapshotEvery,
			Mode:               aether.CommitSync,
		})
		if err != nil {
			return nil, nil, err
		}
		tbl, err := db.CreateTable("bench")
		if err != nil {
			db.Close()
			return nil, nil, err
		}
		return db, tbl, nil
	}

	dbSnap, tblSnap, err := open(cfg.SnapshotEveryBytes)
	if err != nil {
		return res, fmt.Errorf("bench restore: snapshot side: %w", err)
	}
	defer dbSnap.Close()
	dbRaw, tblRaw, err := open(0)
	if err != nil {
		return res, fmt.Errorf("bench restore: raw side: %w", err)
	}
	defer dbRaw.Close()

	model, err := restoreWorkload(dbSnap, tblSnap, cfg)
	if err != nil {
		return res, fmt.Errorf("bench restore: snapshot side: %w", err)
	}
	modelRaw, err := restoreWorkload(dbRaw, tblRaw, cfg)
	if err != nil {
		return res, fmt.Errorf("bench restore: raw side: %w", err)
	}
	if d := diffRestored(model, modelRaw); d != "" {
		return res, fmt.Errorf("bench restore: workloads diverged before restore: %s", d)
	}

	stSnap, err := quiesceRemote(dbSnap)
	if err != nil {
		return res, fmt.Errorf("bench restore: snapshot side: %w", err)
	}
	if _, err := quiesceRemote(dbRaw); err != nil {
		return res, fmt.Errorf("bench restore: raw side: %w", err)
	}
	if stSnap.LogSnapshots == 0 {
		return res, fmt.Errorf("bench restore: snapshot side cut no snapshots (cadence %d over %d txns) — the comparison is vacuous",
			cfg.SnapshotEveryBytes, res.Txns)
	}
	res.Snapshots = stSnap.LogSnapshots

	res.RestoreAt = dbSnap.RestorePoint()
	atRaw := dbRaw.RestorePoint()
	res.LogBytes = atRaw

	gotSnap, snapMS, err := timeRestore(dbSnap, res.RestoreAt, "bench", cfg.Iters)
	if err != nil {
		return res, fmt.Errorf("bench restore: RestoreTo via snapshot: %w", err)
	}
	res.SnapshotMS = snapMS
	gotRaw, rawMS, err := timeRestore(dbRaw, atRaw, "bench", cfg.Iters)
	if err != nil {
		return res, fmt.Errorf("bench restore: RestoreTo via raw replay: %w", err)
	}
	res.RawMS = rawMS

	if d := diffRestored(model, gotSnap); d != "" {
		return res, fmt.Errorf("bench restore: snapshot-path state diverged from committed model: %s", d)
	}
	if d := diffRestored(model, gotRaw); d != "" {
		return res, fmt.Errorf("bench restore: raw-replay state diverged from committed model: %s", d)
	}
	return res, nil
}
