package storage

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func TestBTreeBasics(t *testing.T) {
	bt := NewBTree()
	if _, ok := bt.Get(5); ok {
		t.Fatal("empty tree Get")
	}
	if !bt.Put(5, 50) {
		t.Fatal("first Put should insert")
	}
	if bt.Put(5, 51) {
		t.Fatal("second Put should overwrite")
	}
	v, ok := bt.Get(5)
	if !ok || v != 51 {
		t.Fatalf("Get: %d %v", v, ok)
	}
	if bt.Len() != 1 {
		t.Fatalf("Len: %d", bt.Len())
	}
	if !bt.Delete(5) || bt.Delete(5) {
		t.Fatal("Delete semantics wrong")
	}
	if bt.Len() != 0 {
		t.Fatalf("Len after delete: %d", bt.Len())
	}
}

func TestBTreeManyKeysSplits(t *testing.T) {
	bt := NewBTree()
	const n = 100000
	for i := 0; i < n; i++ {
		k := uint64(i*2 + 1)
		bt.Put(k, k*10)
	}
	if bt.Len() != n {
		t.Fatalf("Len: %d", bt.Len())
	}
	for i := 0; i < n; i++ {
		k := uint64(i*2 + 1)
		v, ok := bt.Get(k)
		if !ok || v != k*10 {
			t.Fatalf("Get(%d): %d %v", k, v, ok)
		}
		if _, ok := bt.Get(k + 1); ok {
			t.Fatalf("Get(%d) should miss", k+1)
		}
	}
}

func TestBTreeRandomOrderInsert(t *testing.T) {
	bt := NewBTree()
	rng := rand.New(rand.NewSource(42))
	keys := rng.Perm(50000)
	for _, k := range keys {
		bt.Put(uint64(k), uint64(k)+7)
	}
	for _, k := range keys {
		v, ok := bt.Get(uint64(k))
		if !ok || v != uint64(k)+7 {
			t.Fatalf("Get(%d): %d %v", k, v, ok)
		}
	}
}

func TestBTreeScan(t *testing.T) {
	bt := NewBTree()
	for i := 10; i <= 100; i += 10 {
		bt.Put(uint64(i), uint64(i))
	}
	var got []uint64
	bt.Scan(25, 75, func(k, v uint64) bool {
		got = append(got, k)
		return true
	})
	want := []uint64{30, 40, 50, 60, 70}
	if len(got) != len(want) {
		t.Fatalf("scan got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scan got %v", got)
		}
	}
	// Early termination.
	n := 0
	bt.Scan(0, 1000, func(k, v uint64) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatalf("early stop: %d", n)
	}
}

func TestBTreeScanOrdered(t *testing.T) {
	bt := NewBTree()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		bt.Put(rng.Uint64()%100000, 1)
	}
	var prev uint64
	first := true
	bt.Scan(0, ^uint64(0), func(k, v uint64) bool {
		if !first && k <= prev {
			t.Fatalf("scan out of order: %d after %d", k, prev)
		}
		prev, first = k, false
		return true
	})
}

func TestBTreeMin(t *testing.T) {
	bt := NewBTree()
	if _, ok := bt.Min(); ok {
		t.Fatal("empty Min")
	}
	for _, k := range []uint64{500, 100, 900, 50, 700} {
		bt.Put(k, k)
	}
	if m, ok := bt.Min(); !ok || m != 50 {
		t.Fatalf("Min: %d %v", m, ok)
	}
	bt.Delete(50)
	if m, ok := bt.Min(); !ok || m != 100 {
		t.Fatalf("Min after delete: %d %v", m, ok)
	}
}

func TestBTreeDeleteHeavy(t *testing.T) {
	bt := NewBTree()
	const n = 30000
	for i := 0; i < n; i++ {
		bt.Put(uint64(i), uint64(i))
	}
	// Delete a pseudo-random half.
	for i := 0; i < n; i++ {
		if i%3 != 0 {
			if !bt.Delete(uint64(i)) {
				t.Fatalf("Delete(%d) missed", i)
			}
		}
	}
	for i := 0; i < n; i++ {
		_, ok := bt.Get(uint64(i))
		if want := i%3 == 0; ok != want {
			t.Fatalf("Get(%d)=%v want %v", i, ok, want)
		}
	}
}

// Property: against a reference map, random Put/Delete/Get agree.
func TestQuickBTreeMatchesMap(t *testing.T) {
	type op struct {
		Kind byte
		Key  uint16 // small key space to force collisions
		Val  uint64
	}
	f := func(ops []op) bool {
		bt := NewBTree()
		ref := map[uint64]uint64{}
		for _, o := range ops {
			k := uint64(o.Key % 512)
			switch o.Kind % 3 {
			case 0:
				_, had := ref[k]
				if bt.Put(k, o.Val) != !had {
					return false
				}
				ref[k] = o.Val
			case 1:
				_, had := ref[k]
				if bt.Delete(k) != had {
					return false
				}
				delete(ref, k)
			case 2:
				v, ok := bt.Get(k)
				rv, rok := ref[k]
				if ok != rok || (ok && v != rv) {
					return false
				}
			}
		}
		if bt.Len() != len(ref) {
			return false
		}
		// Full scan equals sorted reference.
		var keys []uint64
		bt.Scan(0, ^uint64(0), func(k, v uint64) bool {
			keys = append(keys, k)
			if ref[k] != v {
				keys = nil
				return false
			}
			return true
		})
		if len(keys) != len(ref) {
			return false
		}
		sorted := sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] })
		return sorted
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBTreeConcurrentReaders(t *testing.T) {
	bt := NewBTree()
	for i := 0; i < 10000; i++ {
		bt.Put(uint64(i), uint64(i)*3)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 20000; i++ {
				k := rng.Uint64() % 10000
				v, ok := bt.Get(k)
				if !ok || v != k*3 {
					t.Errorf("Get(%d): %d %v", k, v, ok)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestBTreeConcurrentMixed(t *testing.T) {
	bt := NewBTree()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint64(w) * 1_000_000
			for i := uint64(0); i < 5000; i++ {
				bt.Put(base+i, i)
			}
			for i := uint64(0); i < 5000; i++ {
				if v, ok := bt.Get(base + i); !ok || v != i {
					t.Errorf("worker %d key %d: %d %v", w, i, v, ok)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if bt.Len() != 8*5000 {
		t.Fatalf("Len: %d", bt.Len())
	}
}

// btreeDump lists a tree's contents by scanning it.
func btreeDump(bt *BTree) []BTreeEntry {
	var out []BTreeEntry
	bt.Scan(0, ^uint64(0), func(k, v uint64) bool {
		out = append(out, BTreeEntry{k, v})
		return true
	})
	return out
}

// sameTree checks that built answers Scan, Get, Len and Min exactly as
// ref does, probing every key of ref and the gaps next to them.
func sameTree(t *testing.T, built, ref *BTree) bool {
	t.Helper()
	want, got := btreeDump(ref), btreeDump(built)
	if len(got) != len(want) || built.Len() != ref.Len() {
		t.Errorf("built tree holds %d keys (Len %d), reference %d (Len %d)", len(got), built.Len(), len(want), ref.Len())
		return false
	}
	for i, e := range want {
		if got[i] != e {
			t.Errorf("scan position %d: built %v, reference %v", i, got[i], e)
			return false
		}
		for _, k := range []uint64{e.Key - 1, e.Key, e.Key + 1} {
			bv, bok := built.Get(k)
			rv, rok := ref.Get(k)
			if bv != rv || bok != rok {
				t.Errorf("Get(%d): built %d,%v reference %d,%v", k, bv, bok, rv, rok)
				return false
			}
		}
	}
	bm, bok := built.Min()
	rm, rok := ref.Min()
	if bm != rm || bok != rok {
		t.Errorf("Min: built %d,%v reference %d,%v", bm, bok, rm, rok)
		return false
	}
	return true
}

// TestBTreeBulkBuildEqualsPuts: Build leaves the tree a Put of each
// entry, in input order, would have — for random keys with duplicates
// (the later one wins), ascending and descending input, and two
// interleaved ascending runs, the shape TPC-B's history table has with
// two clients — and the built tree then takes Puts and Deletes like any
// other: in particular an insert into a packed leaf, whose key slice was
// cut from an array it shares with its neighbours, must not write over
// theirs.
func TestBTreeBulkBuildEqualsPuts(t *testing.T) {
	check := func(entries []BTreeEntry, churn []uint32) bool {
		ref, built := NewBTree(), NewBTree()
		built.Put(1<<62, 1) // Build replaces what the tree held
		for _, e := range entries {
			ref.Put(e.Key, e.Value)
		}
		built.Build(append([]BTreeEntry(nil), entries...))
		if !sameTree(t, built, ref) {
			return false
		}
		// Keep both trees working: new keys next to old ones (splitting
		// the packed leaves), overwrites, deletes.
		for i, c := range churn {
			k := uint64(c)
			if len(entries) > 0 {
				k = entries[int(c)%len(entries)].Key + uint64(i%3) - 1
			}
			if i%4 == 3 {
				if built.Delete(k) != ref.Delete(k) {
					t.Errorf("Delete(%d) disagrees", k)
					return false
				}
				continue
			}
			if built.Put(k, uint64(i)) != ref.Put(k, uint64(i)) {
				t.Errorf("Put(%d) disagrees", k)
				return false
			}
		}
		return sameTree(t, built, ref)
	}
	shapes := map[string]func(keys []uint16) []BTreeEntry{
		"random with duplicates": func(keys []uint16) []BTreeEntry {
			out := make([]BTreeEntry, len(keys))
			for i, k := range keys {
				out[i] = BTreeEntry{uint64(k % 2048), uint64(i)}
			}
			return out
		},
		"ascending": func(keys []uint16) []BTreeEntry {
			out := make([]BTreeEntry, len(keys))
			for i := range keys {
				out[i] = BTreeEntry{uint64(3 * i), uint64(i)}
			}
			return out
		},
		"descending": func(keys []uint16) []BTreeEntry {
			out := make([]BTreeEntry, len(keys))
			for i := range keys {
				out[i] = BTreeEntry{uint64(3 * (len(keys) - i)), uint64(i)}
			}
			return out
		},
		"two interleaved ascending runs": func(keys []uint16) []BTreeEntry {
			out := make([]BTreeEntry, len(keys))
			var next [2]uint64
			for i, k := range keys {
				c := uint64(k % 2)
				next[c]++
				out[i] = BTreeEntry{(c+1)<<40 | next[c], uint64(i)}
			}
			return out
		},
	}
	for name, shape := range shapes {
		shape := shape
		t.Run(name, func(t *testing.T) {
			f := func(keys []uint16, churn []uint32) bool { return check(shape(keys), churn) }
			// Sizes up to several thousand keys: many leaves, two levels
			// of internal nodes above them.
			if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(19))}); err != nil {
				t.Fatal(err)
			}
			big := make([]uint16, 70_000)
			rng := rand.New(rand.NewSource(23))
			for i := range big {
				big[i] = uint16(rng.Intn(1 << 16))
			}
			churn := make([]uint32, 4_000)
			for i := range churn {
				churn[i] = rng.Uint32()
			}
			if !check(shape(big), churn) {
				t.Fatal("70 000-entry build disagrees with the Put loop")
			}
		})
	}
	// The shared-array hazard, stated directly: fill leaf 0 past its
	// clipped capacity and leaf 1's first key must still be there.
	var entries []BTreeEntry
	for i := 0; i < 3*btreeOrder; i++ {
		entries = append(entries, BTreeEntry{uint64(10 * (i + 1)), uint64(i)})
	}
	bt := NewBTree()
	bt.Build(entries)
	bt.Put(5, 99) // lands in the packed leaf 0, which must reallocate
	for i, e := range entries {
		if v, ok := bt.Get(e.Key); !ok || v != e.Value {
			t.Fatalf("after a Put into the first leaf, entry %d (key %d) reads %d,%v", i, e.Key, v, ok)
		}
	}
}

// TestBTreeAppendAllocation: TPC-B's history index takes its keys as
// interleaved ascending ranges, one per client. Each key lands just after
// the key its range inserted last; a full leaf splits right there, so the
// leaves a range leaves behind are full, and every node is born with room
// for the one key too many it holds before a split, so no insert regrows
// a slice. What a Put allocates is then its share of the new nodes: about
// 20 bytes for a 16-byte entry, where middle splits and regrown slices
// cost 59.
func TestBTreeAppendAllocation(t *testing.T) {
	const (
		puts     = 10_000
		maxBytes = 24 // per Put
	)
	bt := NewBTree()
	var next [2]uint64
	put := func(i int) {
		c := i % 2
		next[c]++
		bt.Put(uint64(c+1)<<40|next[c], uint64(i))
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < puts; i++ {
		put(i)
	}
	runtime.ReadMemStats(&after)
	per := float64(after.TotalAlloc-before.TotalAlloc) / puts
	leaves := 0
	n := bt.root
	for !n.leaf {
		n = n.children[0]
	}
	for ; n != nil; n = n.next {
		leaves++
	}
	t.Logf("%.1f bytes allocated per Put, %d leaves for %d keys", per, leaves, bt.Len())
	if per > maxBytes {
		t.Errorf("%.1f bytes allocated per Put of an ascending range, budget %d", per, maxBytes)
	}
	if want := puts/btreeOrder + 2; leaves > want {
		t.Errorf("%d leaves for %d keys in two ascending ranges, want at most %d: split leaves are left part empty", leaves, puts, want)
	}
}

// TestBTreeAscendingInternalNodesFull: an ascending load splits every
// level where the run goes on, not in the middle, so the inner levels
// are packed as the leaves are: after 100 000 ascending Puts into an
// empty tree, every node but the rightmost on each level is full.
func TestBTreeAscendingInternalNodesFull(t *testing.T) {
	const puts = 100_000
	bt := NewBTree()
	for k := uint64(1); k <= puts; k++ {
		bt.Put(k, k)
	}
	levels := 0
	for level := []*btreeNode{bt.root}; len(level) > 0 && !level[0].leaf; levels++ {
		var below []*btreeNode
		for i, n := range level {
			if i < len(level)-1 && len(n.keys) != btreeOrder {
				t.Errorf("level %d node %d of %d holds %d keys, want %d", levels, i, len(level), len(n.keys), btreeOrder)
			}
			below = append(below, n.children...)
		}
		level = below
	}
	if levels < 2 {
		t.Fatalf("%d internal levels; the load must split internal nodes", levels)
	}
	for k := uint64(1); k <= puts; k += 997 {
		if v, ok := bt.Get(k); !ok || v != k {
			t.Fatalf("Get(%d) = %d,%v", k, v, ok)
		}
	}
}
