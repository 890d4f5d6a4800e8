package txn

import (
	"bytes"
	"encoding/binary"
	"testing"

	"aether/internal/core"
	"aether/internal/logbuf"
	"aether/internal/logdev"
	"aether/internal/logrec"
	"aether/internal/lsn"
	"aether/internal/recovery"
)

// smallRing is a 64 KiB ring: its group limit, 8 KiB, is what the
// dirty-page table of about 500 pages takes.
var smallRing = core.Config{Buffer: logbuf.Config{Variant: logbuf.VariantCD, Size: 64 << 10}}

// bigRow is a 2 000-byte row of key k and value v, four to a page, with
// no zero bytes past its value for the log to leave out.
func bigRow(k, v uint64) []byte {
	b := bytes.Repeat([]byte{byte(v) | 1}, 2000)
	binary.LittleEndian.PutUint64(b[0:8], k)
	binary.LittleEndian.PutUint64(b[8:16], v)
	return b
}

// dirtyPages commits keys 1..n of tbl at value v, 200 rows a
// transaction: inserted the first time, updated after that.
func dirtyPages(t *testing.T, ag *Agent, tbl *Table, n, v uint64, insert bool) {
	t.Helper()
	for k := uint64(1); k <= n; {
		tx := ag.Begin()
		for end := min(k+200, n+1); k < end; k++ {
			var err error
			if insert {
				err = tx.Insert(tbl, k, bigRow(k, v))
			} else {
				err = tx.Update(tbl, k, func([]byte) ([]byte, error) { return bigRow(k, v), nil })
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(CommitSync, nil); err != nil {
			t.Fatal(err)
		}
	}
}

// checkpointChunks returns the decoded chunks of the checkpoint begun at
// begin, from lane 0's durable log.
func checkpointChunks(t *testing.T, dev logdev.Device, begin lsn.LSN) []logrec.CheckpointChunk {
	t.Helper()
	data, base, err := logdev.ReadTail(dev)
	if err != nil {
		t.Fatal(err)
	}
	var out []logrec.CheckpointChunk
	it := logrec.NewVerifiedIterator(data, lsn.LSN(base))
	for rec, ok := it.Next(); ok; rec, ok = it.Next() {
		if rec.Kind == logrec.KindCheckpointEnd && lsn.LSN(rec.Aux) == begin {
			c, err := logrec.DecodeCheckpoint(rec.Payload)
			if err != nil {
				t.Fatal(err)
			}
			if rec.EncodedSize() > core.AppenderScratch {
				t.Errorf("chunk %d is a %d-byte record, over the appender's %d-byte encode buffer", c.Index, rec.EncodedSize(), core.AppenderScratch)
			}
			out = append(out, c)
		}
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// crashRestart cuts the power under h's engine, as hardCrashAndRestart
// does, and restarts it with lcfg, returning what recovery found.
func (h *harness) crashRestart(t *testing.T, lcfg core.Config, tables ...string) (map[string]*Table, *recovery.Result) {
	t.Helper()
	h.fs.PowerCut()
	h.eng.Multi().Close()
	h.powerCut(t)
	devs := make([]logdev.Device, len(h.devs))
	for i, d := range h.devs {
		devs[i] = d
	}
	eng, res, err := Restart(RestartConfig{Devices: devs, Archive: h.arch, LogConfig: lcfg, LockConfig: harnessLockConfig})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	t.Cleanup(func() {
		eng.Close()
		eng.Multi().Close()
	})
	h.eng = eng
	out := make(map[string]*Table, len(tables))
	for _, name := range tables {
		tbl, err := eng.CreateTable(name, nil)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = tbl
	}
	if err := eng.RebuildTables(); err != nil {
		t.Fatal(err)
	}
	return out, res
}

// checkValues reads keys 1..n of tbl and wants value want on each but
// the keys of except, which want theirs.
func checkValues(t *testing.T, eng *Engine, tbl *Table, n, want uint64, except map[uint64]uint64) {
	t.Helper()
	ag := eng.NewAgent()
	defer ag.Close()
	tx := ag.Begin()
	for k := uint64(1); k <= n; k++ {
		w := want
		if v, ok := except[k]; ok {
			w = v
		}
		got, err := tx.Read(tbl, k)
		if err != nil {
			t.Fatalf("key %d: %v", k, err)
		}
		if rowValue(got) != w || !bytes.Equal(got, bigRow(k, w)) {
			t.Fatalf("key %d = %d, want %d", k, rowValue(got), w)
		}
	}
	if err := tx.Commit(CommitSync, nil); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointChunksFitSmallRing: under a 64 KiB ring a checkpoint
// whose dirty-page table alone is about 13 KB, over the ring's 8 KiB
// group limit, succeeds: its tables go to lane 0 in several chunks, each
// an end record of the begin's Aux that fits the appender's encode
// buffer, and together they hold the whole ATT and DPT. A crash then
// recovers from that checkpoint, keeps every committed row and undoes
// the transaction in flight it names.
func TestCheckpointChunksFitSmallRing(t *testing.T) {
	const keys = 3200 // 800 pages
	forEachLaneCount(t, func(t *testing.T, n int) {
		h := newHarnessN(t, n, smallRing)
		tt, _ := h.twoTables(t)
		ag := h.eng.NewAgent()
		defer ag.Close()
		dirtyPages(t, ag, tt, keys, 1, true)
		loserAg := h.eng.NewAgent()
		loser := loserAg.Begin()
		if err := loser.Update(tt, 7, func([]byte) ([]byte, error) { return bigRow(7, 9), nil }); err != nil {
			t.Fatal(err)
		}
		if err := h.eng.Checkpoint(); err != nil {
			t.Fatalf("checkpoint of %d dirty pages under a 64 KiB ring: %v", len(h.eng.store.DirtyPages()), err)
		}
		begin := h.eng.lastCkpt.Load().begin
		chunks := checkpointChunks(t, h.devs[0], begin)
		if len(chunks) < 3 {
			t.Fatalf("the checkpoint logged %d chunks, want several", len(chunks))
		}
		att, dpt := 0, 0
		for i, c := range chunks {
			if c.Index != i || c.Count != len(chunks) || c.ActiveTotal != chunks[0].ActiveTotal || c.DirtyTotal != chunks[0].DirtyTotal {
				t.Fatalf("chunk %d of %d reads as chunk %d of %d, totals %d/%d", i, len(chunks), c.Index, c.Count, c.ActiveTotal, c.DirtyTotal)
			}
			att, dpt = att+len(c.ActiveTxns), dpt+len(c.DirtyPages)
		}
		if att != chunks[0].ActiveTotal || att < 1 || dpt != chunks[0].DirtyTotal || dpt < keys/4 {
			t.Fatalf("the chunks carry %d ATT and %d DPT entries, of totals %d and %d; want the loser and every page",
				att, dpt, chunks[0].ActiveTotal, chunks[0].DirtyTotal)
		}

		tables, res := h.crashRestart(t, smallRing, "t", "u")
		if res.CheckpointLSN != begin {
			t.Fatalf("recovery used the checkpoint at %v, want the chunked one at %v", res.CheckpointLSN, begin)
		}
		if len(res.Losers) != 1 || res.Losers[0] != loser.ID() {
			t.Fatalf("losers %v, want [%d]", res.Losers, loser.ID())
		}
		checkValues(t, h.eng, tables["t"], keys, 1, nil)
	})
}

// TestCheckpointCutAfterChunkUsesPrevious: a power cut that leaves a
// checkpoint's begin and all its chunks but the last durable leaves that
// checkpoint unused: recovery starts at the previous one and still
// restores every committed row, the ones committed between the two
// included.
func TestCheckpointCutAfterChunkUsesPrevious(t *testing.T) {
	const keys = 2400 // 600 pages
	forEachLaneCount(t, func(t *testing.T, n int) {
		h := newHarnessN(t, n, smallRing)
		tt, _ := h.twoTables(t)
		ag := h.eng.NewAgent()
		defer ag.Close()
		dirtyPages(t, ag, tt, keys, 1, true)
		if err := h.eng.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		prev := h.eng.lastCkpt.Load().begin
		dirtyPages(t, ag, tt, keys, 2, false)

		// The next checkpoint as Checkpoint logs it, cut before its last
		// chunk.
		e := h.eng
		beginAt, _, _, _, err := e.ckptAp.Append(0, &logrec.Record{Header: logrec.Header{Kind: logrec.KindCheckpointBegin}})
		if err != nil {
			t.Fatal(err)
		}
		payload := logrec.CheckpointPayload{DirtyPages: e.store.DirtyPages()}
		chunks := payload.EncodeChunks(ckptChunk)
		if len(chunks) < 2 {
			t.Fatalf("%d dirty pages make %d chunks, want several", len(payload.DirtyPages), len(chunks))
		}
		for _, c := range chunks[:len(chunks)-1] {
			rec := &logrec.Record{Header: logrec.Header{Kind: logrec.KindCheckpointEnd, Aux: uint64(beginAt)}, Payload: c}
			if _, _, _, _, err := e.ckptAp.Append(0, rec); err != nil {
				t.Fatal(err)
			}
		}
		h.flushAll(t)
		if got := len(checkpointChunks(t, h.devs[0], beginAt)); got != len(chunks)-1 {
			t.Fatalf("%d of the cut checkpoint's chunks are durable, want %d", got, len(chunks)-1)
		}

		tables, res := h.crashRestart(t, smallRing, "t", "u")
		if res.CheckpointLSN != prev {
			t.Fatalf("recovery used the checkpoint at %v, want the previous whole one at %v (the cut one begins at %v)",
				res.CheckpointLSN, prev, beginAt)
		}
		checkValues(t, h.eng, tables["t"], keys, 2, nil)
	})
}
