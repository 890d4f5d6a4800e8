package logbuf

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aether/internal/lsn"
)

// TestCDStallDiagnostic hunts for a wedged buffer under every variant:
// 16 inserters of 120-byte records against a reader that frees space as
// fast as it can. If neither the release frontier nor the flush watermark
// moves for 100 ms, it reports where the LSN cursor stands and, under a
// consolidating variant, the state of every live and pooled slot.
func TestCDStallDiagnostic(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test: multi-second stall hunt; run without -short")
	}
	for _, v := range Variants {
		t.Run(v.String(), func(t *testing.T) { huntStall(t, v) })
	}
}

// huntStall runs one variant for four 100 ms windows, so the five
// variants together take two seconds.
func huntStall(t *testing.T, v Variant) {
	b, err := New(Config{Variant: v, Size: 1 << 22})
	if err != nil {
		t.Fatal(err)
	}
	rd := b.Reader()
	// The reader outlives the inserters: one waiting for ring space when
	// the inserters are told to stop gets it only from the reader.
	stop, stopDrain := make(chan struct{}), make(chan struct{})
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for {
			s, e := rd.Pending()
			if s != e {
				rd.MarkFlushed(e)
			}
			select {
			case <-stopDrain:
				return
			default:
			}
		}
	}()
	rec := make([]byte, 120)
	var inserts atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ins := b.NewInserter()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := ins.Insert(rec); err != nil {
					t.Error(err)
					return
				}
				inserts.Add(1)
			}
		}()
	}
	var last [2]lsn.LSN
	for i := 0; i < 4; i++ {
		time.Sleep(100 * time.Millisecond)
		cur := [2]lsn.LSN{rd.Released(), rd.Flushed()}
		if cur == last {
			// A wedged inserter never returns: leave the goroutines behind.
			next := "unknown (mutex held)"
			if b.mu.TryLock() {
				next = b.next.String()
				b.mu.Unlock()
			}
			var states []int64
			poolStates := map[int64]int{}
			if b.arr != nil {
				for j := range b.arr.slots {
					states = append(states, b.arr.slots[j].Load().state.Load())
				}
				for _, s := range b.arr.pool {
					poolStates[normState(s.state.Load())]++
				}
			}
			t.Fatalf("STALL: released=%v flushed=%v next=%s inserts=%d arrayStates=%v poolHist=%v",
				cur[0], cur[1], next, inserts.Load(), states, poolStates)
		}
		last = cur
	}
	close(stop)
	wg.Wait()
	close(stopDrain)
	<-drained
	t.Logf("no stall; inserts=%d released=%v rate=%.0f inserts/sec",
		inserts.Load(), rd.Released(), float64(inserts.Load())/0.4)
}

func normState(s int64) int64 {
	switch {
	case s == slotFree:
		return -100
	case s == slotPending:
		return -200
	case s == slotDone:
		return -300
	case s >= slotReady:
		return 1
	default:
		return -1 // copying
	}
}
