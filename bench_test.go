package aether_test

// One benchmark per figure of the paper's evaluation (there are no
// numbered tables; every experiment is a figure). Each benchmark runs
// the corresponding experiment from internal/bench and logs the series
// the paper plots. Run with:
//
//	go test -bench=Fig -benchtime=1x            # quick sweeps
//	AETHER_BENCH_FULL=1 go test -bench=Fig -benchtime=1x -timeout 2h
//
// The BenchmarkLogInsert* family are conventional b.N benchmarks of the
// log-buffer variants (throughput in MB/s via b.SetBytes).

import (
	"encoding/binary"
	"math/rand"
	"os"
	"testing"

	"aether"
	"aether/internal/bench"
	"aether/internal/logbuf"
	"aether/internal/logrec"
)

// benchScale selects quick sweeps unless AETHER_BENCH_FULL is set.
func benchScale() bench.Scale {
	return bench.Scale{Quick: os.Getenv("AETHER_BENCH_FULL") == ""}
}

func runFigure(b *testing.B, name string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tbl, err := bench.Figure(name, benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", tbl)
		}
	}
}

// BenchmarkFig2_Breakdown regenerates Figure 2: the machine-utilization
// breakdown of TPC-B as ELR and flush pipelining remove log bottlenecks.
func BenchmarkFig2_Breakdown(b *testing.B) { runFigure(b, "fig2") }

// BenchmarkFig3_ELR regenerates Figure 3: ELR speedup vs access skew
// and log-device latency.
func BenchmarkFig3_ELR(b *testing.B) { runFigure(b, "fig3") }

// BenchmarkFig4_Scheduler regenerates Figure 4: context-switch rate and
// utilization vs client count, baseline vs flush pipelining.
func BenchmarkFig4_Scheduler(b *testing.B) { runFigure(b, "fig4") }

// BenchmarkFig5_TPCB regenerates Figure 5: TPC-B throughput vs clients
// for baseline, async commit and flush pipelining.
func BenchmarkFig5_TPCB(b *testing.B) { runFigure(b, "fig5") }

// BenchmarkFig7_LogContention regenerates Figure 7: the growing
// log-buffer contention share under TATP UpdateLocation.
func BenchmarkFig7_LogContention(b *testing.B) { runFigure(b, "fig7") }

// BenchmarkFig8_ThreadScaling regenerates Figure 8 (left): insert
// throughput vs thread count per buffer variant.
func BenchmarkFig8_ThreadScaling(b *testing.B) { runFigure(b, "fig8left") }

// BenchmarkFig8_RecordSize regenerates Figure 8 (right): bandwidth vs
// record size per variant, including the "CD in L1" series.
func BenchmarkFig8_RecordSize(b *testing.B) { runFigure(b, "fig8right") }

// BenchmarkFig9_Aether regenerates Figure 9: end-to-end TATP
// UpdateLocation throughput as Aether's components stack up.
func BenchmarkFig9_Aether(b *testing.B) { runFigure(b, "fig9") }

// BenchmarkFig11_Skew regenerates Figure 11: CD vs CDME under bimodal
// record sizes.
func BenchmarkFig11_Skew(b *testing.B) { runFigure(b, "fig11") }

// BenchmarkFig12_Slots regenerates Figure 12: consolidation-array slot
// count sensitivity.
func BenchmarkFig12_Slots(b *testing.B) { runFigure(b, "fig12") }

// BenchmarkFig13_LaneDeps regenerates Figure 13: the inter-log
// dependencies TPC-C forms on a real 1-, 2-, 4- and 8-lane log.
func BenchmarkFig13_LaneDeps(b *testing.B) { runFigure(b, "fig13") }

// benchmarkInsert is the conventional-benchmark form of the log-insert
// microbenchmark: every parallel worker inserts b.N/P records.
func benchmarkInsert(b *testing.B, variant logbuf.Variant, recordSize int) {
	buf, err := logbuf.New(logbuf.Config{Variant: variant, Size: 64 << 20})
	if err != nil {
		b.Fatal(err)
	}
	// Null drain.
	stop := make(chan struct{})
	go func() {
		rd := buf.Reader()
		for {
			s, e := rd.Pending()
			if s != e {
				rd.MarkFlushed(e)
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	defer close(stop)

	rec, err := logrec.NewPad(recordSize).Encode()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(recordSize))
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		ins := buf.NewInserter()
		for pb.Next() {
			if _, err := ins.Insert(rec); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

func BenchmarkLogInsert_Baseline_120B(b *testing.B) {
	benchmarkInsert(b, logbuf.VariantBaseline, 120)
}
func BenchmarkLogInsert_C_120B(b *testing.B)    { benchmarkInsert(b, logbuf.VariantC, 120) }
func BenchmarkLogInsert_D_120B(b *testing.B)    { benchmarkInsert(b, logbuf.VariantD, 120) }
func BenchmarkLogInsert_CD_120B(b *testing.B)   { benchmarkInsert(b, logbuf.VariantCD, 120) }
func BenchmarkLogInsert_CDME_120B(b *testing.B) { benchmarkInsert(b, logbuf.VariantCDME, 120) }
func BenchmarkLogInsert_CD_1200B(b *testing.B)  { benchmarkInsert(b, logbuf.VariantCD, 1200) }
func BenchmarkLogInsert_CD_12KB(b *testing.B)   { benchmarkInsert(b, logbuf.VariantCD, 12000) }

// BenchmarkCommitPath measures end-to-end commit latency through the
// public API for each commit protocol.
func BenchmarkCommitPath(b *testing.B) {
	for _, tc := range []struct {
		name string
		mode aether.CommitMode
	}{
		{"sync", aether.CommitSync},
		{"sync-elr", aether.CommitSyncELR},
		{"async", aether.CommitAsync},
		{"pipelined", aether.CommitPipelined},
	} {
		b.Run(tc.name, func(b *testing.B) {
			db, err := aether.Open(aether.Options{Mode: tc.mode})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			tbl, _ := db.CreateTable("t")
			s := db.Session()
			defer s.Close()
			seed := s.Begin()
			if err := seed.Insert(tbl, 1, aether.Row(1, []byte("benchmark-row"))); err != nil {
				b.Fatal(err)
			}
			if err := seed.Commit(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tx := s.Begin()
				if err := tx.Update(tbl, 1, func(r []byte) ([]byte, error) {
					return r, nil
				}); err != nil {
					b.Fatal(err)
				}
				if err := tx.Commit(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationELR shows flush pipelining's dependence on early
// lock release (§6.4): pipelined commits that hold locks until the
// flush throttle hot-row workloads.
func BenchmarkAblationELR(b *testing.B) { runFigure(b, "ablation-elr") }

// BenchmarkAblationGroupCommit sweeps the group-commit flush interval.
func BenchmarkAblationGroupCommit(b *testing.B) { runFigure(b, "ablation-groupcommit") }

// BenchmarkTPCBCommitPath is the commit path's allocation benchmark: one
// TPC-B-shaped transaction per iteration (three 100-byte row updates, one
// 100-byte history insert, commit acknowledged before durability) through
// aether.Session, on a file-backed log opened the way the repository
// benchmark's TPC-B workloads open theirs, so B/op and allocs/op are the
// engine's per-transaction garbage plus the generator's own (one row copy
// per update, the history row, the Tx handle). `make alloc-profile` runs
// it under -memprofile and prints the allocation sites.
func BenchmarkTPCBCommitPath(b *testing.B) {
	const (
		rowSize  = 100
		branches = 10
		tellers  = 100
		accounts = 20_000
	)
	row := func(key uint64, amount int64) []byte {
		r := make([]byte, rowSize)
		binary.LittleEndian.PutUint64(r[0:], key)
		binary.LittleEndian.PutUint64(r[8:], uint64(amount))
		return r
	}
	db, err := aether.Open(aether.Options{
		Mode:                 aether.CommitAsync,
		LogPath:              b.TempDir(),
		SegmentSize:          8 << 20,
		CheckpointEveryBytes: 64 << 20,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	var tables [4]*aether.Table // branch, teller, account, history
	for i, name := range []string{"branch", "teller", "account", "history"} {
		if tables[i], err = db.CreateTable(name); err != nil {
			b.Fatal(err)
		}
	}
	s := db.Session()
	defer s.Close()
	load := s.Begin()
	for i, n := range []int{branches, tellers, accounts} {
		for k := uint64(1); k <= uint64(n); k++ {
			if err := load.Insert(tables[i], k, row(k, 0)); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := load.Commit(); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		branch := rng.Intn(branches)
		keys := [3]uint64{uint64(branch + 1), uint64(branch*(tellers/branches) + rng.Intn(tellers/branches) + 1),
			uint64(branch*(accounts/branches) + rng.Intn(accounts/branches) + 1)}
		delta := int64(rng.Intn(1_999_999) - 999_999)
		add := func(cur []byte) ([]byte, error) {
			out := append([]byte(nil), cur...)
			binary.LittleEndian.PutUint64(out[8:], binary.LittleEndian.Uint64(cur[8:])+uint64(delta))
			return out, nil
		}
		tx := s.Begin()
		for t := 2; t >= 0; t-- { // account, teller, branch
			if err := tx.Update(tables[t], keys[t], add); err != nil {
				b.Fatal(err)
			}
		}
		if err := tx.Insert(tables[3], uint64(i), row(uint64(i), delta)); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReopenTPCB is the restart benchmark: one iteration is what
// the repository benchmark's TPC-B workloads time as recover_s — Open,
// the four CreateTables, RebuildAfterRecovery — over a checkpointed,
// cleanly closed database of the same shape: 100 000 accounts, 100
// tellers, 10 branches and 80 000 history rows whose keys, as there,
// come from two clients' ranges interleaved. The log tail is one
// checkpoint long, so the time is the rebuild's: faulting every page and
// indexing every row (pages/op, keys/op). `make restart-profile` runs it
// under a cpu and an allocation profile and prints where both go.
func BenchmarkReopenTPCB(b *testing.B) {
	const (
		rowSize  = 100
		accounts = 100_000
		history  = 80_000
	)
	row := func(key uint64) []byte {
		r := make([]byte, rowSize)
		binary.LittleEndian.PutUint64(r[0:], key)
		return r
	}
	opts := aether.Options{
		LogPath:              b.TempDir(),
		SegmentSize:          8 << 20,
		CheckpointEveryBytes: 64 << 20,
	}
	names := []string{"branch", "teller", "account", "history"}
	open := func() (*aether.DB, [4]*aether.Table) {
		db, err := aether.Open(opts)
		if err != nil {
			b.Fatal(err)
		}
		var tables [4]*aether.Table
		for i, name := range names {
			if tables[i], err = db.CreateTable(name); err != nil {
				b.Fatal(err)
			}
		}
		return db, tables
	}
	db, tables := open()
	s := db.Session()
	tx, pending := s.Begin(), 0
	insert := func(t *aether.Table, key uint64) {
		if err := tx.Insert(t, key, row(key)); err != nil {
			b.Fatal(err)
		}
		if pending++; pending == 1000 {
			if err := tx.Commit(); err != nil {
				b.Fatal(err)
			}
			tx, pending = s.Begin(), 0
		}
	}
	for i, n := range []int{10, 100, accounts} {
		for k := uint64(1); k <= uint64(n); k++ {
			insert(tables[i], k)
		}
	}
	for seq := uint64(1); seq <= history/2; seq++ {
		insert(tables[3], 1<<40|seq) // client 0
		insert(tables[3], 2<<40|seq) // client 1
	}
	if err := tx.Commit(); err != nil {
		b.Fatal(err)
	}
	s.Close()
	if err := db.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	if err := db.Close(); err != nil {
		b.Fatal(err)
	}

	var pages int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, _ := open()
		if err := db.RebuildAfterRecovery(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		pages += db.Stats().PageMisses
		if err := db.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(pages)/float64(b.N), "pages/op")
	b.ReportMetric(10+100+accounts+history, "keys/op")
}
