package lockmgr

import (
	"errors"
	"testing"
	"time"
	"unsafe"
)

// checkTable asserts the shape of every partition's index: each head sits
// in the bucket its hash names, is reachable once, counts once, and the
// heads never outnumber the buckets. It returns the heads linked in all.
func checkTable(t *testing.T, m *Manager) int {
	t.Helper()
	total := 0
	for i := range m.parts {
		p := &m.parts[i]
		p.mu.Lock()
		n := 0
		for b, h := range p.buckets {
			for ; h != nil; h = h.next {
				if h.hash != h.key.hash()>>partitionBits || int(h.hash&uint64(len(p.buckets)-1)) != b {
					t.Fatalf("partition %d: %v in bucket %d of %d", i, h.key, b, len(p.buckets))
				}
				if q, _ := m.part(h.key); q != p {
					t.Fatalf("%v linked in partition %d", h.key, i)
				}
				n++
			}
		}
		if n != p.heads || p.heads > len(p.buckets) {
			t.Fatalf("partition %d: %d heads linked, count %d, %d buckets", i, n, p.heads, len(p.buckets))
		}
		p.mu.Unlock()
		total += n
	}
	return total
}

// TestLockTableGrowsAndEmpties: a 20 000-row transaction grows the
// partitions' bucket arrays past their initial size, every lock it holds
// is found where it was linked, and releasing them leaves no head behind.
// Another transaction holds IX on the table, so the rows never escalate;
// its head is the one left until it releases too.
func TestLockTableGrowsAndEmpties(t *testing.T) {
	m := New(Config{SLI: true})
	other := m.NewLocker(99, nil)
	if err := other.Acquire(TableKey(1), ModeIX); err != nil {
		t.Fatal(err)
	}
	l := m.NewLocker(1, NewAgentCache(0))
	const rows = 20_000
	for k := uint64(1); k <= rows; k++ {
		if err := l.Acquire(RowKey(1, k), ModeX); err != nil {
			t.Fatal(err)
		}
	}
	if got := checkTable(t, m); got != rows+1 {
		t.Fatalf("%d heads linked, want %d", got, rows+1)
	}
	grown := 0
	for i := range m.parts {
		if len(m.parts[i].buckets) > initialBuckets {
			grown++
		}
	}
	if grown == 0 {
		t.Fatal("no partition grew its buckets")
	}
	for k := uint64(1); k <= rows; k++ {
		if got := m.HeldModes(RowKey(1, k)); len(got) != 1 || got[0] != ModeX {
			t.Fatalf("row %d: grants %v", k, got)
		}
	}
	l.ReleaseAll()
	if got := checkTable(t, m); got != 1 {
		t.Fatalf("%d heads linked after release, want the other transaction's", got)
	}
	other.ReleaseAll()
	if got := checkTable(t, m); got != 0 {
		t.Fatalf("%d heads linked after release", got)
	}
	for i := range m.parts {
		for _, h := range m.parts[i].freeHeads {
			if h.next != nil {
				t.Fatalf("free head %v still linked", h.key)
			}
		}
	}
}

// collidingKeys returns n row keys of space 1 that share a partition and
// a bucket of an initial-size array.
func collidingKeys(n int) []Key {
	var keys []Key
	var want uint64
	for obj := uint64(1); len(keys) < n; obj++ {
		k := RowKey(1, obj)
		slot := k.hash() & (initialBuckets<<partitionBits - 1)
		if len(keys) == 0 {
			want = slot
		}
		if slot == want {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestLockTableBucketCollisions: keys chained in one bucket keep their
// own grants and queues, and unlinking one from the head, middle or tail
// of the chain leaves the others in place.
func TestLockTableBucketCollisions(t *testing.T) {
	m := New(Config{DeadlockTimeout: 20 * time.Millisecond})
	keys := collidingKeys(4)
	lockers := make([]*Locker, len(keys))
	for i, k := range keys {
		lockers[i] = m.NewLocker(uint64(i+1), nil)
		if err := lockers[i].Acquire(k, ModeX); err != nil {
			t.Fatal(err)
		}
	}
	p, _ := m.part(keys[0])
	if p.heads != len(keys) || len(p.buckets) != initialBuckets {
		t.Fatalf("partition holds %d heads in %d buckets", p.heads, len(p.buckets))
	}
	// Another transaction conflicts with each key's holder, not with its
	// neighbours in the chain.
	other := m.NewLocker(99, nil)
	for _, k := range keys {
		if err := other.Acquire(k, ModeS); !errors.Is(err, ErrLockTimeout) {
			t.Fatalf("S on %v under X: %v, want a timeout", k, err)
		}
	}
	// The chain is in reverse insertion order: release from its middle,
	// its head, and then the rest.
	for _, i := range []int{1, 3, 0, 2} {
		lockers[i].ReleaseAll()
		if got := m.HeldModes(keys[i]); len(got) != 0 {
			t.Fatalf("%v still granted %v", keys[i], got)
		}
		for j, k := range keys {
			if lockers[j].HeldCount() == 0 {
				continue
			}
			if got := m.HeldModes(k); len(got) != 1 || got[0] != ModeX {
				t.Fatalf("after releasing %v: %v grants %v", keys[i], k, got)
			}
		}
		checkTable(t, m)
	}
	if p.heads != 0 {
		t.Fatalf("%d heads left", p.heads)
	}
	if err := other.Acquire(keys[2], ModeS); err != nil {
		t.Fatal(err)
	}
	other.ReleaseAll()
}

// TestPartitionFillsCacheLines: partitions sit in one array, so each must
// span whole cache lines for no two latches to share one.
func TestPartitionFillsCacheLines(t *testing.T) {
	if size := unsafe.Sizeof(partition{}); size%64 != 0 {
		t.Fatalf("partition is %d bytes, not a multiple of 64", size)
	}
}
