package logbuf

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"aether/internal/logrec"
	"aether/internal/lsn"
	"aether/internal/metrics"
)

// copyOut copies the ring bytes [start, end) into dst, the way a flush
// daemon that staged its batch would, and returns how many it copied.
func copyOut(rd *Reader, dst []byte, start, end lsn.LSN) int {
	a, b := rd.Spans(start, end)
	n := copy(dst, a)
	return n + copy(dst[n:], b)
}

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
						n := copyOut(rd, scratch, start, end)
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
			n := copyOut(rd, scratch, start, end)
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
// uint64 tag, so the test can identify records in the drained stream,
// and goes on with bytes that differ from record to record, so a torn or
// overlapping insert shows in checkStream's byte comparison.
func encodePayloadRecord(tag uint64, size int) []byte {
	if size < logrec.MinRecordSize+8 {
		size = logrec.MinRecordSize + 8
	}
	rec := logrec.NewPad(size)
	binary.LittleEndian.PutUint64(rec.Payload[:8], tag)
	for i := 8; i < len(rec.Payload); i++ {
		rec.Payload[i] = byte(tag*31 + uint64(i))
	}
	buf, err := rec.Encode()
	if err != nil {
		panic(err)
	}
	return buf
}

// checkStream checks that the drained stream is exactly the inserted
// records, each at the address its insert returned: they tile the stream
// with no gap and no overlap, and every byte of each is the byte
// inserted. The stream is raw — nothing seals it — so the byte
// comparison is what catches a torn or overlapping insert.
func checkStream(t *testing.T, stream []byte, inserted map[lsn.LSN][]byte) {
	t.Helper()
	at := make([]lsn.LSN, 0, len(inserted))
	for l := range inserted {
		at = append(at, l)
	}
	slices.Sort(at)
	off := 0
	for _, l := range at {
		rec := inserted[l]
		if l != lsn.LSN(off) {
			t.Fatalf("the record inserted at %v follows stream bytes up to %d: a gap or an overlap", l, off)
		}
		if off+len(rec) > len(stream) {
			t.Fatalf("the %d-byte record inserted at %v runs past the %d-byte stream", len(rec), l, len(stream))
		}
		if !bytes.Equal(stream[off:off+len(rec)], rec) {
			t.Fatalf("the stream's bytes at %v differ from the %d-byte record inserted there", l, len(rec))
		}
		if n := logrec.PeekLen(stream[off:]); n != len(rec) {
			t.Fatalf("the record at %v frames %d bytes, want %d", l, n, len(rec))
		}
		off += len(rec)
	}
	if off != len(stream) {
		t.Fatalf("the stream holds %d bytes past the last inserted record", len(stream)-off)
	}
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
	if cfg.Size != 1<<20 || cfg.Slots != 4 || cfg.slotPool() != 32 || cfg.MaxGroup != cfg.Size/8 {
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
			inserted := make(map[lsn.LSN][]byte)
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
				inserted[got] = rec
				cursor = cursor.Add(len(rec))
			}
			checkStream(t, stop(), inserted)
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

			lsnsCh := make(chan map[lsn.LSN][]byte, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					ins := b.NewInserter()
					mine := make(map[lsn.LSN][]byte, perW)
					for i := 0; i < perW; i++ {
						tag := uint64(w)<<32 | uint64(i)
						size := 56 + (w*131+i*17)%400
						rec := encodePayloadRecord(tag, size)
						at, err := ins.Insert(rec)
						if err != nil {
							t.Errorf("insert: %v", err)
							return
						}
						mine[at] = rec
					}
					lsnsCh <- mine
				}(w)
			}
			wg.Wait()
			close(lsnsCh)
			want := make(map[lsn.LSN][]byte)
			for m := range lsnsCh {
				for k, rec := range m {
					if _, dup := want[k]; dup {
						t.Fatalf("two records claim LSN %v", k)
					}
					want[k] = rec
				}
			}
			if len(want) != workers*perW {
				t.Fatalf("%d inserts returned, want %d", len(want), workers*perW)
			}
			checkStream(t, stop(), want)
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
			var mu sync.Mutex
			inserted := make(map[lsn.LSN][]byte)
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
						rec := encodePayloadRecord(uint64(w*1000+i), size)
						at, err := ins.Insert(rec)
						if err != nil {
							t.Errorf("insert: %v", err)
							return
						}
						mu.Lock()
						inserted[at] = rec
						mu.Unlock()
					}
				}(w)
			}
			wg.Wait()
			if len(inserted) != workers*150 {
				t.Fatalf("%d distinct insert addresses, want %d", len(inserted), workers*150)
			}
			checkStream(t, stop(), inserted)
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
	if n := copyOut(rd, dst, start, end); n != len(rec) {
		t.Fatalf("Spans hold %d bytes, want %d", n, len(rec))
	}
	if !bytes.Equal(dst, rec) {
		t.Fatal("Spans bytes differ")
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
		inserted := make(map[lsn.LSN][]byte)
		total := 0
		for i := 0; i < 500; i++ {
			rec := encodePayloadRecord(uint64(i), 56+(i%5)*100)
			at, err := ins.Insert(rec)
			if err != nil {
				t.Fatalf("%v: %v", v, err)
			}
			if at != lsn.LSN(total) {
				t.Fatalf("%v: insert %d at %v, want %d", v, i, at, total)
			}
			inserted[at] = rec
			total += len(rec)
		}
		checkStream(t, stop(), inserted)
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

// TestSpaceWaitChargedOnce fills a 4 KiB ring (all but the reader's
// room) with no reader draining it,
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
			for i := 0; i < (4096-ReaderRoom)/256; i++ {
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
	rec, _ := logrec.NewCommit(1).Encode()
	at, _ := ins.Insert(rec)
	fmt.Println(at)
	// Output: LSN(0)
}

// TestBackpressure verifies inserters block (rather than overwrite) when
// the ring is full and resume when the reader drains it — and that the
// ring keeps ReaderRoom bytes for the reader's own insert, which goes in
// on a ring full to everyone else, while another insert waits for space,
// without waiting itself: a flush daemon that must seal a batch before it
// can free space never waits for space only it can free.
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
			// Fill the ring, but for the reader's room, with NO reader
			// draining.
			for i := 0; i < (4096-ReaderRoom)/256; i++ {
				if _, err := ins.Insert(rec); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := ins.Insert(encodePayloadRecord(1, (4096-ReaderRoom)%256)); err != nil {
				t.Fatal(err)
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
			rd := b.Reader()
			room := make([]byte, ReaderRoom)
			room[0] = ReaderRoom - 1 // a well-formed frame, for the stream's sake
			empty := func(lsn.LSN) bool { return false }
			seal := func(at lsn.LSN) []byte { return room }
			if at, err := rd.Inserter().InsertAt(ReaderRoom, empty, seal); err != nil || at != lsn.LSN(4096-ReaderRoom) {
				t.Fatalf("the reader's insert into its room: at %v, %v", at, err)
			}
			if _, end := rd.Pending(); end != 4096 {
				t.Fatalf("released %v after the reader's insert, want the full ring", end)
			}
			// Drain one record's worth: the blocked insert completes.
			start, end := rd.Pending()
			if end.Sub(start) == 0 {
				t.Fatal("nothing pending on a full ring")
			}
			scratch := make([]byte, 4096)
			copyOut(rd, scratch, start, end)
			rd.MarkFlushed(end)
			select {
			case <-done:
			case <-time.After(2 * time.Second):
				t.Fatal("insert stayed blocked after drain")
			}
		})
	}
}

// TestWaitingInsertKeepsItsPlace: an insert that waits for ring space
// keeps its place. A later, smaller insert that would fit in space freed
// meanwhile waits behind it, so a stream of small records cannot take,
// piece by piece, the space a large one waits for.
func TestWaitingInsertKeepsItsPlace(t *testing.T) {
	for _, v := range Variants {
		t.Run(v.String(), func(t *testing.T) {
			b, err := New(Config{Variant: v, Size: 4096, MaxGroup: 2048})
			if err != nil {
				t.Fatal(err)
			}
			ins := b.NewInserter()
			for i := 0; i < (4096-ReaderRoom)/256; i++ {
				if _, err := ins.Insert(encodePayloadRecord(1, 256)); err != nil {
					t.Fatal(err)
				}
			}
			insert := func(size int) <-chan lsn.LSN {
				done := make(chan lsn.LSN, 1)
				go func() {
					at, err := b.NewInserter().Insert(encodePayloadRecord(2, size))
					if err != nil {
						t.Error(err)
					}
					done <- at
				}()
				return done
			}
			large := insert(1024)
			deadline := time.Now().Add(5 * time.Second)
			for !b.waiting.Load() {
				if time.Now().After(deadline) {
					t.Fatal("the large insert never waited for space")
				}
				time.Sleep(time.Millisecond)
			}
			small := insert(64)
			rd := b.Reader()
			rd.MarkFlushed(256) // room for the small record, not the large
			select {
			case at := <-small:
				t.Fatalf("a small insert went in at %v ahead of a large one waiting for space", at)
			case <-time.After(50 * time.Millisecond):
			}
			_, end := rd.Pending()
			rd.MarkFlushed(end)
			if l, s := <-large, <-small; s < l {
				t.Fatalf("the small insert went in at %v, before the large one waiting ahead of it (%v)", s, l)
			}
		})
	}
}
