package logbuf

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"aether/internal/logrec"
	"aether/internal/lsn"
	"aether/internal/metrics"
)

// drain runs a background goroutine that immediately reclaims released
// bytes (optionally collecting them) until stop is closed. It returns the
// collected stream via the returned function.
func drain(b *Buffer, collect bool) (stop func() []byte) {
	rd := b.Reader()
	done := make(chan struct{})
	var out []byte
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		scratch := make([]byte, b.r.capacity)
		for {
			start, end := rd.Pending()
			if start == end {
				select {
				case <-done:
					// Final sweep.
					start, end = rd.Pending()
					if start != end {
						n := rd.CopyOut(scratch, start, end)
						if collect {
							out = append(out, scratch[:n]...)
						}
						rd.MarkFlushed(end)
					}
					return
				default:
					continue
				}
			}
			n := rd.CopyOut(scratch, start, end)
			if collect {
				out = append(out, scratch[:n]...)
			}
			rd.MarkFlushed(start.Add(n))
		}
	}()
	return func() []byte {
		close(done)
		wg.Wait()
		return out
	}
}

// encodePayloadRecord builds an encoded record whose payload starts with a
// uint64 tag so the test can identify records in the drained stream.
func encodePayloadRecord(tag uint64, size int) []byte {
	if size < logrec.MinRecordSize+8 {
		size = logrec.MinRecordSize + 8
	}
	rec := logrec.NewPad(size)
	binary.LittleEndian.PutUint64(rec.Payload[:8], tag)
	buf, err := rec.Encode()
	if err != nil {
		panic(err)
	}
	return buf
}

func TestVariantString(t *testing.T) {
	if VariantCD.String() != "CD" || VariantBaseline.String() != "baseline" {
		t.Fatal("variant names wrong")
	}
	if Variant(99).String() != "variant(99)" {
		t.Fatal("out-of-range variant name wrong")
	}
}

func TestNewRejectsUnknownVariant(t *testing.T) {
	if _, err := New(Config{Variant: Variant(42)}); err == nil {
		t.Fatal("unknown variant must error")
	}
}

func TestCeilPow2(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 4, 1000: 1024, 4096: 4096}
	for in, want := range cases {
		if got := ceilPow2(in); got != want {
			t.Errorf("ceilPow2(%d)=%d want %d", in, got, want)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}
	cfg.applyDefaults()
	if cfg.Size != 16<<20 || cfg.Slots != 4 || cfg.slotPool() != 32 || cfg.MaxGroup != cfg.Size/8 {
		t.Fatalf("defaults wrong: %+v", cfg)
	}
	cfg2 := Config{Size: 1000, MaxGroup: 1 << 30}
	cfg2.applyDefaults()
	if cfg2.Size != 1024 {
		t.Fatalf("size not rounded: %d", cfg2.Size)
	}
	if cfg2.MaxGroup != 512 {
		t.Fatalf("MaxGroup not clamped: %d", cfg2.MaxGroup)
	}
}

func TestRecordTooLarge(t *testing.T) {
	for _, v := range Variants {
		b, err := New(Config{Variant: v, Size: 1 << 16})
		if err != nil {
			t.Fatal(err)
		}
		ins := b.NewInserter()
		if _, err := ins.Insert(make([]byte, b.cfg.MaxGroup+1)); !errors.Is(err, ErrRecordTooLarge) {
			t.Errorf("%v: got %v, want ErrRecordTooLarge", v, err)
		}
	}
}

// TestSingleThreadedStream checks that sequential inserts produce a
// decodable, in-order stream for every variant.
func TestSingleThreadedStream(t *testing.T) {
	for _, v := range Variants {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			b, err := New(Config{Variant: v, Size: 1 << 16})
			if err != nil {
				t.Fatal(err)
			}
			stop := drain(b, true)
			ins := b.NewInserter()
			var wantLSNs []lsn.LSN
			cursor := lsn.Zero
			for i := 0; i < 200; i++ {
				rec := encodePayloadRecord(uint64(i), 56+i%300)
				got, err := ins.Insert(rec)
				if err != nil {
					t.Fatal(err)
				}
				if got != cursor {
					t.Fatalf("insert %d: LSN %v, want %v", i, got, cursor)
				}
				wantLSNs = append(wantLSNs, got)
				cursor = cursor.Add(len(rec))
			}
			stream := stop()
			it := logrec.NewIterator(stream, 0)
			var n int
			for {
				rec, ok := it.Next()
				if !ok {
					break
				}
				if rec.LSN != wantLSNs[n] {
					t.Fatalf("record %d at %v, want %v", n, rec.LSN, wantLSNs[n])
				}
				if tag := binary.LittleEndian.Uint64(rec.Payload[:8]); tag != uint64(n) {
					t.Fatalf("record %d has tag %d", n, tag)
				}
				n++
			}
			if it.Err() != nil {
				t.Fatalf("stream gap: %v", it.Err())
			}
			if n != 200 {
				t.Fatalf("decoded %d records, want 200", n)
			}
		})
	}
}

// TestConcurrentNoGapsNoOverlap is the core invariant test: many
// goroutines insert concurrently through a small ring (forcing wraparound
// and space waits); the drained stream must contain every record exactly
// once, and records must be intact.
func TestConcurrentNoGapsNoOverlap(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test: tens of seconds of contention; run without -short")
	}
	const (
		workers = 16
		perW    = 300
	)
	for _, v := range Variants {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			t.Parallel()
			b, err := New(Config{Variant: v, Size: 1 << 15}) // small: force wrap + space waits
			if err != nil {
				t.Fatal(err)
			}
			stop := drain(b, true)

			lsnsCh := make(chan map[lsn.LSN]uint64, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					ins := b.NewInserter()
					mine := make(map[lsn.LSN]uint64, perW)
					for i := 0; i < perW; i++ {
						tag := uint64(w)<<32 | uint64(i)
						size := 56 + (w*131+i*17)%400
						rec := encodePayloadRecord(tag, size)
						at, err := ins.Insert(rec)
						if err != nil {
							t.Errorf("insert: %v", err)
							return
						}
						mine[at] = tag
					}
					lsnsCh <- mine
				}(w)
			}
			wg.Wait()
			close(lsnsCh)
			want := make(map[lsn.LSN]uint64)
			for m := range lsnsCh {
				for k, tag := range m {
					if _, dup := want[k]; dup {
						t.Fatalf("two records claim LSN %v", k)
					}
					want[k] = tag
				}
			}

			stream := stop()
			it := logrec.NewIterator(stream, 0)
			seen := 0
			for {
				rec, ok := it.Next()
				if !ok {
					break
				}
				tag := binary.LittleEndian.Uint64(rec.Payload[:8])
				wantTag, present := want[rec.LSN]
				if !present {
					t.Fatalf("decoded record at unclaimed LSN %v", rec.LSN)
				}
				if tag != wantTag {
					t.Fatalf("LSN %v: tag %x, want %x", rec.LSN, tag, wantTag)
				}
				delete(want, rec.LSN)
				seen++
			}
			if it.Err() != nil {
				t.Fatalf("stream gap: %v", it.Err())
			}
			if seen != workers*perW {
				t.Fatalf("decoded %d records, want %d (missing %d)",
					seen, workers*perW, len(want))
			}
		})
	}
}

// TestSkewedSizes stresses every release path with a strongly bimodal
// size distribution (the Fig. 11 scenario).
func TestSkewedSizes(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test: bimodal-size soak; run without -short")
	}
	for _, v := range Variants {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			t.Parallel()
			b, err := New(Config{Variant: v, Size: 1 << 18, MaxGroup: 1 << 16})
			if err != nil {
				t.Fatal(err)
			}
			stop := drain(b, true)
			var wg sync.WaitGroup
			const workers = 12
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					ins := b.NewInserter()
					for i := 0; i < 150; i++ {
						size := 56
						if (w*150+i)%60 == 0 {
							size = 16 << 10 // outlier
						}
						if _, err := ins.Insert(encodePayloadRecord(uint64(w*1000+i), size)); err != nil {
							t.Errorf("insert: %v", err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			stream := stop()
			it := logrec.NewIterator(stream, 0)
			n := 0
			for {
				_, ok := it.Next()
				if !ok {
					break
				}
				n++
			}
			if it.Err() != nil {
				t.Fatalf("gap: %v", it.Err())
			}
			if n != workers*150 {
				t.Fatalf("decoded %d, want %d", n, workers*150)
			}
		})
	}
}

// TestReaderWatermarks verifies Pending/MarkFlushed bookkeeping.
func TestReaderWatermarks(t *testing.T) {
	b, err := New(Config{Variant: VariantBaseline, Size: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	ins := b.NewInserter()
	rd := b.Reader()
	rec := encodePayloadRecord(1, 64)
	if _, err := ins.Insert(rec); err != nil {
		t.Fatal(err)
	}
	start, end := rd.Pending()
	if start != 0 || end != lsn.LSN(len(rec)) {
		t.Fatalf("pending [%v,%v), want [0,%d)", start, end, len(rec))
	}
	dst := make([]byte, len(rec))
	if n := rd.CopyOut(dst, start, end); n != len(rec) {
		t.Fatalf("CopyOut: %d", n)
	}
	if !bytes.Equal(dst, rec) {
		t.Fatal("CopyOut bytes differ")
	}
	rd.MarkFlushed(end)
	if s, e := rd.Pending(); s != e {
		t.Fatalf("pending after flush: [%v,%v)", s, e)
	}
	if rd.Flushed() != end || rd.Released() != end {
		t.Fatal("watermarks wrong")
	}
}

func TestMarkFlushedBeyondReleasedPanics(t *testing.T) {
	b, _ := New(Config{Variant: VariantBaseline, Size: 1 << 12})
	defer func() {
		if recover() == nil {
			t.Fatal("MarkFlushed beyond released must panic")
		}
	}()
	b.Reader().MarkFlushed(999)
}

// TestWraparound inserts far more bytes than the ring holds so every
// physical offset is reused many times.
func TestWraparound(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test: every variant through repeated ring wraps; run without -short")
	}
	for _, v := range Variants {
		b, err := New(Config{Variant: v, Size: 1 << 12})
		if err != nil {
			t.Fatal(err)
		}
		stop := drain(b, true)
		ins := b.NewInserter()
		total := 0
		for i := 0; i < 500; i++ {
			rec := encodePayloadRecord(uint64(i), 56+(i%5)*100)
			if _, err := ins.Insert(rec); err != nil {
				t.Fatalf("%v: %v", v, err)
			}
			total += len(rec)
		}
		stream := stop()
		if len(stream) != total {
			t.Fatalf("%v: drained %d bytes, want %d", v, len(stream), total)
		}
		it := logrec.NewIterator(stream, 0)
		n := 0
		for {
			rec, ok := it.Next()
			if !ok {
				break
			}
			if tag := binary.LittleEndian.Uint64(rec.Payload[:8]); tag != uint64(n) {
				t.Fatalf("%v: record %d has tag %d", v, n, tag)
			}
			n++
		}
		if n != 500 || it.Err() != nil {
			t.Fatalf("%v: n=%d err=%v", v, n, it.Err())
		}
	}
}

// TestBreakdownProbe ensures the optional probe records log work.
func TestBreakdownProbe(t *testing.T) {
	var bd metrics.Breakdown
	b, err := New(Config{Variant: VariantCD, Size: 1 << 14, Breakdown: &bd})
	if err != nil {
		t.Fatal(err)
	}
	stop := drain(b, false)
	ins := b.NewInserter()
	for i := 0; i < 100; i++ {
		if _, err := ins.Insert(encodePayloadRecord(uint64(i), 256)); err != nil {
			t.Fatal(err)
		}
	}
	stop()
	if bd.Get(metrics.PhaseLogWork) <= 0 {
		t.Fatal("probe recorded no log work")
	}
}

// TestSpaceWaitChargedOnce fills a 4 KiB ring with no reader draining it,
// starts an insert that must wait for space, and frees the ring 50 ms
// later. The log work and contention charged for that insert must not
// exceed its wall time, and the wait must be charged as contention.
func TestSpaceWaitChargedOnce(t *testing.T) {
	for _, v := range Variants {
		t.Run(v.String(), func(t *testing.T) {
			var bd metrics.Breakdown
			b, err := New(Config{Variant: v, Size: 4096, MaxGroup: 512, Breakdown: &bd})
			if err != nil {
				t.Fatal(err)
			}
			ins := b.NewInserter()
			rec := encodePayloadRecord(1, 256)
			for i := 0; i < 4096/256; i++ {
				if _, err := ins.Insert(rec); err != nil {
					t.Fatal(err)
				}
			}
			work0, cont0 := bd.Get(metrics.PhaseLogWork), bd.Get(metrics.PhaseLogContention)
			type result struct {
				wall time.Duration
				err  error
			}
			done := make(chan result, 1)
			go func() {
				t0 := time.Now()
				_, err := ins.Insert(rec)
				done <- result{time.Since(t0), err}
			}()
			time.Sleep(50 * time.Millisecond)
			rd := b.Reader()
			_, end := rd.Pending()
			rd.MarkFlushed(end)
			res := <-done
			if res.err != nil {
				t.Fatal(res.err)
			}
			work := bd.Get(metrics.PhaseLogWork) - work0
			cont := bd.Get(metrics.PhaseLogContention) - cont0
			if work+cont > res.wall {
				t.Fatalf("charged work %v + contention %v to an insert that took %v", work, cont, res.wall)
			}
			if cont < res.wall/2 {
				t.Fatalf("space wait of %v charged only %v as contention (work %v)", res.wall, cont, work)
			}
		})
	}
}

// TestLocalFill checks the "CD in L1" mode still hands out correct LSNs
// and advances watermarks.
func TestLocalFill(t *testing.T) {
	for _, v := range Variants {
		b, err := New(Config{Variant: v, Size: 1 << 14, LocalFill: true})
		if err != nil {
			t.Fatal(err)
		}
		stop := drain(b, false)
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ins := b.NewInserter()
				for i := 0; i < 200; i++ {
					if _, err := ins.Insert(make([]byte, 120)); err != nil {
						t.Errorf("%v: %v", v, err)
						return
					}
				}
			}()
		}
		wg.Wait()
		stop()
		if got := b.Reader().Released(); got != lsn.LSN(4*200*120) {
			t.Fatalf("%v: released %v, want %d", v, got, 4*200*120)
		}
	}
}

// TestInserterIndependence verifies multiple inserters from one buffer
// interleave correctly on a single goroutine.
func TestInserterIndependence(t *testing.T) {
	b, _ := New(Config{Variant: VariantCDME, Size: 1 << 14})
	stop := drain(b, false)
	a, c := b.NewInserter(), b.NewInserter()
	var last lsn.LSN
	for i := 0; i < 50; i++ {
		l1, err := a.Insert(encodePayloadRecord(1, 64))
		if err != nil {
			t.Fatal(err)
		}
		l2, err := c.Insert(encodePayloadRecord(2, 64))
		if err != nil {
			t.Fatal(err)
		}
		if l2 <= l1 || (i > 0 && l1 <= last) {
			t.Fatalf("LSNs not increasing: %v %v %v", last, l1, l2)
		}
		last = l2
	}
	stop()
}

func TestCapacityAndMaxRecord(t *testing.T) {
	b, _ := New(Config{Variant: VariantCD, Size: 1 << 16})
	if b.r.capacity != 1<<16 {
		t.Fatalf("capacity %d", b.r.capacity)
	}
	if b.cfg.MaxGroup != 1<<13 {
		t.Fatalf("max record %d", b.cfg.MaxGroup)
	}
	if b.design != designs[VariantCD] {
		t.Fatal("variant wrong")
	}
}

func ExampleNew() {
	b, err := New(Config{Variant: VariantCD, Size: 1 << 20})
	if err != nil {
		panic(err)
	}
	ins := b.NewInserter()
	rec, _ := logrec.NewCommit(1, lsn.Undefined).Encode()
	at, _ := ins.Insert(rec)
	fmt.Println(at)
	// Output: LSN(0)
}

// TestBackpressure verifies inserters block (rather than overwrite) when
// the ring is full and resume when the reader drains it.
func TestBackpressure(t *testing.T) {
	for _, v := range []Variant{VariantBaseline, VariantCD, VariantCDME} {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			b, err := New(Config{Variant: v, Size: 4096, MaxGroup: 512})
			if err != nil {
				t.Fatal(err)
			}
			ins := b.NewInserter()
			rec := encodePayloadRecord(1, 256)
			// Fill the ring with NO reader draining.
			for i := 0; i < 4096/256; i++ {
				if _, err := ins.Insert(rec); err != nil {
					t.Fatal(err)
				}
			}
			// The next insert must block.
			done := make(chan lsn.LSN, 1)
			go func() {
				at, err := ins.Insert(rec)
				if err != nil {
					t.Errorf("blocked insert failed: %v", err)
				}
				done <- at
			}()
			select {
			case at := <-done:
				t.Fatalf("insert did not block on a full ring (got %v)", at)
			case <-time.After(50 * time.Millisecond):
			}
			// Drain one record's worth: the blocked insert completes.
			rd := b.Reader()
			start, end := rd.Pending()
			if end.Sub(start) == 0 {
				t.Fatal("nothing pending on a full ring")
			}
			scratch := make([]byte, 4096)
			rd.CopyOut(scratch, start, end)
			rd.MarkFlushed(end)
			select {
			case <-done:
			case <-time.After(2 * time.Second):
				t.Fatal("insert stayed blocked after drain")
			}
		})
	}
}
