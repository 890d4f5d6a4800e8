package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"aether/internal/logbuf"
	"aether/internal/logrec"
)

// MicroConfig parameterizes the log-insert microbenchmark (§6.1): a
// slice of the log manager that only inserts — no flush, no transactions
// — isolating log-buffer behavior exactly as the paper does.
type MicroConfig struct {
	// Variant selects the log-buffer insert algorithm.
	Variant logbuf.Variant
	// Threads is the inserter count.
	Threads int
	// RecordSize is the total encoded record size (≥48).
	RecordSize int
	// Duration of the measured run.
	Duration time.Duration
	// Slots overrides the consolidation array width (0 = default 4).
	Slots int
	// LocalFill enables the "CD in L1" mode (§6.3.2).
	LocalFill bool
	// OutlierEvery inserts an OutlierSize record every N inserts (0 =
	// never) — the Figure 11 bimodal skew.
	OutlierEvery int
	// OutlierSize is the outlier record's encoded size.
	OutlierSize int
	// BufferSize overrides the ring size (0 = 64MiB).
	BufferSize int
}

// MicroResult reports sustained insert bandwidth.
type MicroResult struct {
	// Inserts is the number of records inserted.
	Inserts int64
	// Bytes is the total bytes inserted.
	Bytes int64
	// Elapsed is the measured wall-clock time.
	Elapsed time.Duration
}

// GBps returns sustained bandwidth in gigabytes per second.
func (r MicroResult) GBps() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Bytes) / r.Elapsed.Seconds() / 1e9
}

// InsertsPerSec returns the insert rate.
func (r MicroResult) InsertsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Inserts) / r.Elapsed.Seconds()
}

// String renders the one-line summary experiment tables print.
func (r MicroResult) String() string {
	return fmt.Sprintf("%.3f GB/s (%.2fM inserts/s)", r.GBps(), r.InsertsPerSec()/1e6)
}

// RunMicro executes the microbenchmark: Threads inserters hammer the
// buffer while a drain goroutine discards released bytes (the paper's
// setup inserts without flushing to disk).
func RunMicro(cfg MicroConfig) (MicroResult, error) {
	if cfg.Threads <= 0 {
		cfg.Threads = 1
	}
	if cfg.RecordSize < logrec.MinRecordSize {
		cfg.RecordSize = logrec.MinRecordSize
	}
	if cfg.Duration <= 0 {
		cfg.Duration = time.Second
	}
	size := cfg.BufferSize
	if size == 0 {
		size = 64 << 20
	}
	maxGroup := size / 8
	if cfg.OutlierSize > 0 && cfg.OutlierSize*4 > maxGroup {
		maxGroup = cfg.OutlierSize * 4
		for size < maxGroup*8 {
			size *= 2
		}
	}
	buf, err := logbuf.New(logbuf.Config{
		Variant:   cfg.Variant,
		Size:      size,
		Slots:     cfg.Slots,
		MaxGroup:  maxGroup,
		LocalFill: cfg.LocalFill,
	})
	if err != nil {
		return MicroResult{}, err
	}

	// Pre-encode the records once; inserters reuse the encodings (the
	// paper's microbenchmark measures buffer insertion, not marshalling).
	rec, err := logrec.NewPad(cfg.RecordSize).Encode()
	if err != nil {
		return MicroResult{}, err
	}
	var outlier []byte
	if cfg.OutlierEvery > 0 && cfg.OutlierSize > logrec.MinRecordSize {
		outlier, err = logrec.NewPad(cfg.OutlierSize).Encode()
		if err != nil {
			return MicroResult{}, err
		}
	}

	// Null drain: reclaim released space as fast as possible.
	stopDrain := make(chan struct{})
	var drainWG sync.WaitGroup
	drainWG.Add(1)
	go func() {
		defer drainWG.Done()
		rd := buf.Reader()
		for {
			s, e := rd.Pending()
			if s != e {
				rd.MarkFlushed(e)
			} else {
				select {
				case <-stopDrain:
					return
				default:
				}
			}
		}
	}()

	// The window opens once every inserter stands at the line, and each
	// inserts before it first looks at the clock: on a starved host a
	// run reports little work, never none.
	var stop atomic.Bool
	var inserts, bytes atomic.Int64
	var ready, wg sync.WaitGroup
	var start time.Time
	begin := make(chan struct{})
	for w := 0; w < cfg.Threads; w++ {
		ready.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			ins := buf.NewInserter()
			ready.Done()
			<-begin
			var myInserts, myBytes int64
			n := 0
			for {
				p := rec
				if outlier != nil && cfg.OutlierEvery > 0 && n%cfg.OutlierEvery == cfg.OutlierEvery-1 {
					p = outlier
				}
				if _, err := ins.Insert(p); err != nil {
					panic(fmt.Sprintf("bench: micro insert: %v", err))
				}
				myInserts++
				myBytes += int64(len(p))
				n++
				if stop.Load() || (n&1023 == 0 && time.Since(start) > cfg.Duration) {
					break
				}
			}
			inserts.Add(myInserts)
			bytes.Add(myBytes)
		}()
	}
	ready.Wait()
	start = time.Now()
	close(begin)
	time.Sleep(cfg.Duration)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)
	close(stopDrain)
	drainWG.Wait()

	return MicroResult{
		Inserts: inserts.Load(),
		Bytes:   bytes.Load(),
		Elapsed: elapsed,
	}, nil
}
