package core

import (
	"sync"
	"testing"
	"time"

	"aether/internal/logbuf"
	"aether/internal/logdev"
	"aether/internal/logrec"
	"aether/internal/lsn"
)

// checkSealed reads the device's durable stream and checks that its
// seals vouch for every byte of it: every harden ended at a seal's end.
func checkSealed(t *testing.T, dev logdev.Device) {
	t.Helper()
	data, base, err := logdev.ReadTail(dev)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := logrec.Verify(data, lsn.LSN(base)); n != len(data) || err != nil {
		t.Fatalf("the seals vouch for %d of the %d durable bytes from %d: %v", n, len(data), base, err)
	}
}

// TestSealPassAllocations: a daemon pass that seals — inserts the seal,
// finishes its CRC in the copy it hardens, and books it — allocates
// nothing, so a workload of one flush per commit pays nothing per commit
// for its seals.
func TestSealPassAllocations(t *testing.T) {
	dev := logdev.NewMem(logdev.ProfileMemory)
	lm, err := newLane(Config{Buffer: logbuf.Config{Variant: logbuf.VariantCD, Size: 1 << 18}, Device: dev})
	if err != nil {
		t.Fatal(err)
	}
	ap := lm.NewAppender()
	rec := logrec.NewUpdate(42, 4096, 77, logrec.UpdatePayload{
		Op: logrec.OpSet, Slot: 5, Off: 8, X: []byte{1, 2, 3, 4, 5, 6, 7, 8},
	})
	pass := func() {
		if _, _, err := ap.Append(rec); err != nil {
			t.Fatal(err)
		}
		lm.Flush()
		lm.flushOnce(false)
	}
	const runs = 2_000
	for i := 0; i < runs; i++ {
		pass()
	}
	if got := testing.AllocsPerRun(runs, pass); got != 0 {
		t.Fatalf("%.0f allocations per sealing pass, budget 0", got)
	}
	// Every pass appended rec alone, so every seal closes a batch of one
	// rec: the bytes past the records' are seals of that one size.
	st := lm.Stats()
	sealBytes := st.InsertBytes.Load() - st.Inserts.Load()*int64(rec.EncodedSize())
	seals := sealBytes / int64(logrec.SealSize(rec.EncodedSize()))
	if flushes := st.Flushes.Load(); sealBytes%int64(logrec.SealSize(rec.EncodedSize())) != 0 || seals != flushes || seals < 2*runs {
		t.Fatalf("%d seal bytes (%d seals) over %d flushes, want one seal a flush", sealBytes, seals, flushes)
	}
	if lm.Durable() != lsn.LSN(dev.DurableSize()) || lm.Durable() <= lm.AppendEnd() {
		t.Fatalf("durable %v (device %d), append end %v: the last flush did not end at a seal", lm.Durable(), dev.DurableSize(), lm.AppendEnd())
	}
	checkSealed(t, dev)
	go lm.daemon()
	if err := lm.Close(); err != nil {
		t.Fatal(err)
	}
}

// gatedDev is a device whose Sync waits for its gate to open.
type gatedDev struct {
	logdev.Device
	gate chan struct{}
}

func (d *gatedDev) Sync() error {
	<-d.gate
	return d.Device.Sync()
}

// TestClampedPassHardensToSeal: on two lanes a record whose page was
// last updated on the other lane, which has not hardened it, clamps its
// lane's flushes at the record; the append sealed what precedes it, so a
// clamped pass hardens exactly to that seal — the newest at or below the
// clamp — and, once the other lane hardens, the rest, again to a seal.
func TestClampedPassHardensToSeal(t *testing.T) {
	gated := &gatedDev{Device: logdev.NewMem(logdev.ProfileMemory), gate: make(chan struct{})}
	free := logdev.NewMem(logdev.ProfileMemory)
	ml := newTestMulti(t, []logdev.Device{gated, free})
	release := sync.OnceFunc(func() { close(gated.gate) })
	t.Cleanup(release)                                         // before the log closes, whatever fails first
	if _, _, _, err := ml.Append(0, mlUpdate(7)); err != nil { // lane 0 keeps page 7's update
		t.Fatal(err)
	}
	if _, _, _, err := ml.Append(1, mlUpdate(9)); err != nil {
		t.Fatal(err)
	}
	at, _, _, err := ml.Append(1, mlUpdate(7)) // an edge onto lane 0
	if err != nil {
		t.Fatal(err)
	}
	if ml.EdgesEnforced() != 1 {
		t.Fatalf("%d edges enforced, want 1", ml.EdgesEnforced())
	}
	_, end, _, err := ml.Append(1, logrec.NewCommit(1))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- ml.Part(1).WaitDurable(end) }()
	// Lane 1's pass is clamped at the edge record, which starts where
	// the seal its append inserted ends: it hardens that far.
	waitFor(t, 5*time.Second, func() bool { return ml.Part(1).Durable() == at })
	if got := free.DurableSize(); got != int64(at) {
		t.Fatalf("lane 1's device is durable to %d, want the edge seal's end %v", got, at)
	}
	checkSealed(t, free)
	select {
	case err := <-done:
		t.Fatalf("the clamped commit returned early: %v", err)
	default:
	}
	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if ml.DepStalls(1) == 0 {
		t.Fatal("lane 1 was never clamped")
	}
	if d := ml.Part(1).Durable(); d <= end {
		t.Fatalf("lane 1 durable %v, want past the commit's end %v by its seal", d, end)
	}
	checkSealed(t, free)
	checkSealed(t, gated)
}

// TestTruncateCutsAtSealEnd: Truncate rounds its horizon down to a
// hardened seal's end, so the tail it leaves starts a batch its seal
// vouches for, and the seals it may cut at are a bounded list however
// many flushes there were.
func TestTruncateCutsAtSealEnd(t *testing.T) {
	dev := logdev.NewMem(logdev.ProfileMemory)
	lm := newTestLM(t, logbuf.VariantCD, dev)
	ap := lm.NewAppender()
	var mid lsn.LSN
	for i := 0; i < 1000; i++ {
		at, end, err := ap.Append(logrec.NewPad(40 + i%60))
		if err != nil {
			t.Fatal(err)
		}
		if _, end, err = ap.Append(logrec.NewCommit(uint64(i + 1))); err != nil {
			t.Fatal(err)
		}
		if err := lm.WaitDurable(end); err != nil {
			t.Fatal(err)
		}
		if i == 700 {
			mid = at.Add(3) // inside a record
		}
	}
	lm.mu.Lock()
	kept := len(lm.ends.seals)
	lm.mu.Unlock()
	if kept > maxSealEnds {
		t.Fatalf("%d flushes left %d seals to cut at, bound %d", lm.Stats().Flushes.Load(), kept, maxSealEnds)
	}
	if _, err := lm.Truncate(mid); err != nil {
		t.Fatal(err)
	}
	base := lsn.LSN(dev.Base())
	if base == 0 || base > mid {
		t.Fatalf("Truncate(%v) left the base at %v, want a seal end at or below it", mid, base)
	}
	checkSealed(t, dev)
}

// TestFullRingStillSeals: with the ring full to everyone but the flush
// daemon — an append waits for space — a flush must still seal what it
// hardens, in the room the ring keeps for the daemon: it never waits for
// space only its own flush can free.
func TestFullRingStillSeals(t *testing.T) {
	dev := logdev.NewMem(logdev.ProfileMemory)
	lm, err := New(Config{
		Buffer:        logbuf.Config{Variant: logbuf.VariantCD, Size: 4096, MaxGroup: 512},
		Device:        dev,
		FlushInterval: time.Hour,
		FlushTxns:     1 << 20,
		FlushBytes:    1 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lm.Close()
	ap := lm.NewAppender()
	// 30 × 128 + 240 bytes leave the ring exactly the daemon's room; the
	// next append waits for space.
	sizes := append(make([]int, 30), 240, 128)
	for i := range sizes[:30] {
		sizes[i] = 128
	}
	filled := make(chan lsn.LSN)
	go func() {
		var end lsn.LSN
		for _, size := range sizes {
			var err error
			if _, end, err = ap.Append(logrec.NewPad(size)); err != nil {
				t.Error(err)
			}
		}
		filled <- end
	}()
	waitFor(t, 5*time.Second, func() bool { return lm.rd.Released() == 4096-logbuf.ReaderRoom })
	select {
	case <-filled:
		t.Fatal("an append went into the daemon's room")
	case <-time.After(20 * time.Millisecond):
	}
	lm.Flush()
	var end lsn.LSN
	select {
	case end = <-filled:
	case <-time.After(5 * time.Second):
		t.Fatal("the appends past a full ring never resumed: the daemon could not seal")
	}
	if err := lm.WaitDurable(end); err != nil {
		t.Fatal(err)
	}
	checkSealed(t, dev)
}

// newGatedPair opens two lanes with 4 KiB rings whose daemons run only
// when woken; lane 0's device hardens nothing until the returned release
// runs (the test's cleanup runs it too, before the log closes).
func newGatedPair(t *testing.T) (ml *MultiLog, free logdev.Device, release func()) {
	t.Helper()
	gated := &gatedDev{Device: logdev.NewMem(logdev.ProfileMemory), gate: make(chan struct{})}
	free = logdev.NewMem(logdev.ProfileMemory)
	ml, err := NewMultiLog(Config{
		Buffer:        logbuf.Config{Variant: logbuf.VariantCD, Size: 4096, MaxGroup: 512},
		FlushTxns:     1 << 20,
		FlushBytes:    1 << 30,
		FlushInterval: time.Hour,
	}, []logdev.Device{gated, free}, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ml.Close() })
	release = sync.OnceFunc(func() { close(gated.gate) })
	t.Cleanup(release)
	if _, _, _, err := ml.Append(0, mlUpdate(7)); err != nil { // lane 0 keeps page 7's update
		t.Fatal(err)
	}
	return ml, free, release
}

// fillRing appends pads to lm until its ring has exactly free bytes left.
func fillRing(t *testing.T, lm *LogManager, free int) {
	t.Helper()
	ap := lm.NewAppender()
	total := lm.cfg.Buffer.Size - free - int(lm.rd.Released().Sub(lm.rd.Flushed()))
	for total > 0 {
		size := min(total, 120)
		if rest := total - size; rest > 0 && rest < logrec.MinRecordSize {
			size--
		}
		if _, _, err := ap.Append(logrec.NewPad(size)); err != nil {
			t.Fatal(err)
		}
		total -= size
	}
}

// hardens waits for lm to harden through end, or fails the test.
func hardens(t *testing.T, lm *LogManager, end lsn.LSN) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- lm.WaitDurable(end) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("the lane never hardened through %v: durable %v", end, lm.Durable())
	}
}

// TestClampedLaneSealsInFullRing: a lane clamped on an edge whose target
// has not hardened fills its ring while its daemon keeps passing. Each
// pass seals before it is clamped, so the seal of a pass that hardens
// nothing lies in the room the ring keeps for the daemon; the next pass
// finds nothing new to seal rather than wait for that room, which only
// its own flush could free. Once the target hardens, so does every byte
// of the clamped lane.
func TestClampedLaneSealsInFullRing(t *testing.T) {
	ml, free, release := newGatedPair(t)
	if _, _, _, err := ml.Append(1, mlUpdate(7)); err != nil { // an edge onto lane 0
		t.Fatal(err)
	}
	lane := ml.Part(1)
	fillRing(t, lane, logbuf.ReaderRoom)
	appended := make(chan lsn.LSN, 1)
	go func() {
		_, end, _, err := ml.Append(1, logrec.NewCommit(1))
		if err != nil {
			t.Error(err)
		}
		appended <- end
	}()
	for i := 0; i < 3; i++ { // the first clamped pass seals into the daemon's room
		p := lane.passes.Load()
		lane.Flush()
		waitFor(t, 5*time.Second, func() bool { return lane.passes.Load() > p })
	}
	select {
	case end := <-appended:
		t.Fatalf("an append ending at %v went in while the lane was clamped on a full ring", end)
	case <-time.After(20 * time.Millisecond):
	}
	release()
	var end lsn.LSN
	select {
	case end = <-appended:
	case <-time.After(5 * time.Second):
		t.Fatal("the append past the full ring never went in: the clamped lane stopped flushing")
	}
	hardens(t, lane, end)
	hardens(t, ml.Part(0), ml.Part(0).AppendEnd())
	checkSealed(t, free)
}

// TestHeldLaneHardensDaemonSeal: an append that needs an edge holds its
// lane's flushes at the lane's append end while it seals what precedes
// it. With the ring full, that seal waits for space; the daemon seals
// the same records in its own room, at the hold, and must harden through
// that seal — it holds no record — or the append waits forever.
func TestHeldLaneHardensDaemonSeal(t *testing.T) {
	ml, free, release := newGatedPair(t)
	lane := ml.Part(1)
	fillRing(t, lane, logbuf.ReaderRoom)
	type result struct {
		end lsn.LSN
		err error
	}
	appended := make(chan result, 1)
	go func() {
		_, end, _, err := ml.Append(1, mlUpdate(7)) // an edge onto lane 0
		appended <- result{end, err}
	}()
	waitFor(t, 5*time.Second, func() bool {
		ml.depMu.Lock()
		defer ml.depMu.Unlock()
		return ml.parts[1].holdActive
	})
	lane.Flush()
	var r result
	select {
	case r = <-appended:
	case <-time.After(5 * time.Second):
		t.Fatal("the held append never went in: the daemon could not harden its seal at the hold")
	}
	if r.err != nil {
		t.Fatal(r.err)
	}
	if ml.EdgesEnforced() != 1 {
		t.Fatalf("%d edges enforced, want 1", ml.EdgesEnforced())
	}
	release()
	hardens(t, lane, r.end)
	checkSealed(t, free)
}

// TestSealEndsFollowLiveLog: the seals Truncate may cut at are spaced by
// the live log of now. After a long stretch of live log (a transaction
// held the horizon back) is cut away, a steady run of checkpoints, each
// with a horizon 64 KiB behind the log's end, keeps the live log within
// a few percent of that 64 KiB, not near the spacing the long stretch
// left.
func TestSealEndsFollowLiveLog(t *testing.T) {
	e := newSealEnds(0, 0)
	var end lsn.LSN
	grow := func(n, step int) {
		for i := 0; i < n; i++ {
			end = end.Add(step)
			e.add(sealMark{at: end.Add(-8), end: end})
		}
	}
	grow(1<<16, 1<<14) // 1 GiB of live log in 16 KiB batches
	for i := 0; i < 100; i++ {
		grow(1<<8, 1<<10) // 256 KiB in 1 KiB batches, then a checkpoint
		base := e.floor(end.Add(-64 << 10))
		if live := end.Sub(base); i > 1 && live > 72<<10 {
			t.Fatalf("checkpoint %d: %d bytes live after a cut 64 KiB behind the end", i, live)
		}
	}
	if len(e.seals) > maxSealEnds {
		t.Fatalf("%d seals kept, bound %d", len(e.seals), maxSealEnds)
	}
}
