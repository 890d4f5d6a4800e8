package core

import (
	"testing"

	"aether/internal/logbuf"
	"aether/internal/logdev"
	"aether/internal/logrec"
	"aether/internal/lsn"
)

// TestRestartContinuesLSNSpace verifies the log resumes at the device's
// durable size after a restart, keeping LSNs stable log addresses.
func TestRestartContinuesLSNSpace(t *testing.T) {
	dev := logdev.NewMem(logdev.ProfileMemory)

	lm1, err := New(Config{
		Buffer: logbuf.Config{Variant: logbuf.VariantCD, Size: 1 << 16},
		Device: dev,
	})
	if err != nil {
		t.Fatal(err)
	}
	ap := lm1.NewAppender()
	var end lsn.LSN
	for i := 0; i < 20; i++ {
		_, e, err := ap.Append(logrec.NewCommit(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		end = e
	}
	if err := lm1.WaitDurable(end); err != nil {
		t.Fatal(err)
	}
	lm1.Close()

	// The durable size is past the last record by the seal that closes
	// it.
	base := lsn.LSN(dev.DurableSize())
	if base < end || base > end.Add(logrec.MaxSealSize) {
		t.Fatalf("durable size %v: not the last end %v and its seal", base, end)
	}

	// Restart with the correct base: first insert lands exactly at base.
	lm2, err := New(Config{
		Buffer: logbuf.Config{Variant: logbuf.VariantCD, Size: 1 << 16, Base: base},
		Device: dev,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lm2.Close()
	at, end2, err := lm2.NewAppender().Append(logrec.NewCommit(99))
	if err != nil {
		t.Fatal(err)
	}
	if at != base {
		t.Fatalf("first post-restart insert at %v, want %v", at, base)
	}
	if err := lm2.WaitDurable(end2); err != nil {
		t.Fatal(err)
	}

	// The device now holds one contiguous decodable stream.
	data, _, err := logdev.ReadTail(dev)
	if err != nil {
		t.Fatal(err)
	}
	it := logrec.NewIterator(data, 0)
	n := 0
	for {
		if _, ok := it.Next(); !ok {
			break
		}
		n++
	}
	if it.Err() != nil || n != 21 {
		t.Fatalf("stream across restart: n=%d err=%v", n, it.Err())
	}
}

// TestRestartBaseMismatchRejected ensures the constructor catches a base
// that disagrees with the device (a recovery bug would corrupt LSNs).
func TestRestartBaseMismatchRejected(t *testing.T) {
	dev := logdev.NewMem(logdev.ProfileMemory)
	dev.Append([]byte("0123456789"))
	dev.Sync()
	_, err := New(Config{
		Buffer: logbuf.Config{Variant: logbuf.VariantCD, Size: 1 << 16, Base: 4},
		Device: dev,
	})
	if err == nil {
		t.Fatal("mismatched base accepted")
	}
}
