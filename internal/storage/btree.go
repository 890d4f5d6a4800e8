package storage

import (
	"cmp"
	"slices"
	"sync"
)

// BTree is an in-memory B+Tree mapping uint64 keys to uint64 values
// (typically packed RIDs). It serves as the tables' primary index.
//
// The tree is a *volatile secondary structure*: it is not logged and is
// rebuilt from the (logged) heap contents during restart. This is the
// one deliberate simplification versus ARIES index logging (ARIES/IM);
// it leaves recovery correctness intact because the heap is the source
// of truth, and it is a common design for memory-resident engines.
// DESIGN.md records the substitution.
//
// Concurrency: a tree-level RWMutex. Reads (the vast majority in the
// TATP/TPC-B mixes) proceed in parallel; structure modifications are
// exclusive. The workloads' contention lives in the lock manager and the
// log, which is where the paper's experiments need it.
type BTree struct {
	mu   sync.RWMutex
	root *btreeNode
	size int
}

// btreeOrder is the maximum number of keys per node.
const btreeOrder = 64

type btreeNode struct {
	leaf bool
	// lastIns is where the node's latest insert landed — a leaf's key,
	// an internal node's separator: an insert just after it continues an
	// ascending run.
	lastIns  int32
	keys     []uint64
	children []*btreeNode // internal nodes: len(keys)+1
	values   []uint64     // leaves: len(keys)
	next     *btreeNode   // leaf chain for scans
}

// newLeaf and newInternal make a node with room for the one key more
// than btreeOrder it holds just before it splits, so no insert into it
// regrows a slice.
func newLeaf() *btreeNode {
	return &btreeNode{leaf: true, keys: make([]uint64, 0, btreeOrder+1), values: make([]uint64, 0, btreeOrder+1)}
}

func newInternal() *btreeNode {
	return &btreeNode{keys: make([]uint64, 0, btreeOrder+1), children: make([]*btreeNode, 0, btreeOrder+2)}
}

// NewBTree returns an empty tree.
func NewBTree() *BTree {
	return &BTree{root: newLeaf()}
}

// BTreeEntry is one key→value pair handed to BTree.Build.
type BTreeEntry struct {
	// Key is the index key.
	Key uint64
	// Value is what the key maps to (typically a packed RID).
	Value uint64
}

// Build replaces the tree's contents with entries, leaving the tree that
// a Put of each entry, in order, into an empty tree would have produced
// — a later entry of the same key wins — but built bottom-up in one
// pass: no descent, no split, no lock per key. This is the restart path
// (the index is rebuilt from the heap). entries is sorted in place
// (stably), and only if it is not already ascending, which a heap walked
// in page order usually is.
//
// Leaves are packed full and cut from two shared arrays, each with its
// capacity clipped to its length: a later Put into one reallocates that
// leaf's slices rather than write over its neighbour's keys.
func (t *BTree) Build(entries []BTreeEntry) {
	byKey := func(a, b BTreeEntry) int { return cmp.Compare(a.Key, b.Key) }
	if !slices.IsSortedFunc(entries, byKey) {
		slices.SortStableFunc(entries, byKey)
	}
	keys := make([]uint64, 0, len(entries))
	values := make([]uint64, 0, len(entries))
	for i, e := range entries {
		if i+1 < len(entries) && entries[i+1].Key == e.Key {
			continue // a later entry of this key follows
		}
		keys = append(keys, e.Key)
		values = append(values, e.Value)
	}

	// level is the nodes of the level being built, left to right; firsts
	// holds the smallest key under each, which is the separator its
	// parent files it under.
	var level []*btreeNode
	var firsts []uint64
	for lo := 0; lo < len(keys); lo += btreeOrder {
		hi := min(lo+btreeOrder, len(keys))
		leaf := &btreeNode{leaf: true, keys: keys[lo:hi:hi], values: values[lo:hi:hi]}
		if len(level) > 0 {
			level[len(level)-1].next = leaf
		}
		level = append(level, leaf)
		firsts = append(firsts, keys[lo])
	}
	if len(level) == 0 {
		level = []*btreeNode{{leaf: true}}
	}
	for len(level) > 1 {
		var up []*btreeNode
		var upFirsts []uint64
		for lo := 0; lo < len(level); lo += btreeOrder + 1 {
			hi := min(lo+btreeOrder+1, len(level))
			up = append(up, &btreeNode{
				keys:     slices.Clone(firsts[lo+1 : hi]),
				children: slices.Clone(level[lo:hi]),
			})
			upFirsts = append(upFirsts, firsts[lo])
		}
		level, firsts = up, upFirsts
	}
	t.mu.Lock()
	t.root, t.size = level[0], len(keys)
	t.mu.Unlock()
}

// Len returns the number of keys.
func (t *BTree) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.size
}

// Get returns the value for key.
func (t *BTree) Get(key uint64) (uint64, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := t.root
	for !n.leaf {
		n = n.children[childIndex(n.keys, key)]
	}
	i, ok := leafIndex(n.keys, key)
	if !ok {
		return 0, false
	}
	return n.values[i], true
}

// childIndex returns which child to descend into: the first key strictly
// greater than target determines the boundary.
func childIndex(keys []uint64, key uint64) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if key < keys[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// leafIndex finds key in a leaf's sorted keys.
func leafIndex(keys []uint64, key uint64) (int, bool) {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if keys[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(keys) && keys[lo] == key
}

// Put inserts or overwrites key→value. It reports whether the key was
// newly inserted.
func (t *BTree) Put(key, value uint64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	inserted, split, sepKey, right := t.insert(t.root, key, value)
	if split {
		newRoot := newInternal()
		newRoot.keys = append(newRoot.keys, sepKey)
		newRoot.children = append(newRoot.children, t.root, right)
		t.root = newRoot
	}
	if inserted {
		t.size++
	}
	return inserted
}

// insert descends recursively; on child split it absorbs the separator.
func (t *BTree) insert(n *btreeNode, key, value uint64) (inserted, split bool, sepKey uint64, right *btreeNode) {
	if n.leaf {
		i, ok := leafIndex(n.keys, key)
		if ok {
			n.values[i] = value
			return false, false, 0, nil
		}
		if len(n.keys) == btreeOrder && (i == btreeOrder || i == int(n.lastIns)+1) {
			r := n.splitRun(i, key, value)
			return true, true, r.keys[0], r
		}
		n.keys = append(n.keys, 0)
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = key
		n.values = append(n.values, 0)
		copy(n.values[i+1:], n.values[i:])
		n.values[i] = value
		n.lastIns = int32(i)
		if len(n.keys) > btreeOrder {
			sep, r := n.splitLeaf()
			return true, true, sep, r
		}
		return true, false, 0, nil
	}
	ci := childIndex(n.keys, key)
	inserted, childSplit, childSep, childRight := t.insert(n.children[ci], key, value)
	if !childSplit {
		return inserted, false, 0, nil
	}
	if len(n.keys) == btreeOrder && (ci == btreeOrder || ci == int(n.lastIns)+1) {
		sep, r := n.splitInternalRun(ci, childSep, childRight)
		return inserted, true, sep, r
	}
	n.keys = append(n.keys, 0)
	copy(n.keys[ci+1:], n.keys[ci:])
	n.keys[ci] = childSep
	n.children = append(n.children, nil)
	copy(n.children[ci+2:], n.children[ci+1:])
	n.children[ci+1] = childRight
	n.lastIns = int32(ci)
	if len(n.keys) > btreeOrder {
		sep, r := n.splitInternal()
		return inserted, true, sep, r
	}
	return inserted, false, 0, nil
}

// splitRun splits a full leaf where key lands as the next key of an
// ascending run — past its last key, or just after the key inserted last
// (the history index's keys are one such run per client, interleaved).
// The leaf keeps what lies below key, and key; the new right leaf takes
// the rest, or key alone past the last key. So the run goes on filling
// one leaf, and every leaf it leaves behind is full rather than half
// full, as a split in the middle would leave it.
func (n *btreeNode) splitRun(i int, key, value uint64) (right *btreeNode) {
	right = newLeaf()
	right.next, n.next = n.next, right
	if i == len(n.keys) {
		right.keys = append(right.keys, key)
		right.values = append(right.values, value)
		return right
	}
	right.keys = append(right.keys, n.keys[i:]...)
	right.values = append(right.values, n.values[i:]...)
	n.keys = append(n.keys[:i], key)
	n.values = append(n.values[:i], value)
	n.lastIns = int32(i)
	return right
}

func (n *btreeNode) splitLeaf() (sep uint64, right *btreeNode) {
	mid := len(n.keys) / 2
	right = newLeaf()
	right.keys = append(right.keys, n.keys[mid:]...)
	right.values = append(right.values, n.values[mid:]...)
	right.next = n.next
	n.keys = n.keys[:mid]
	n.values = n.values[:mid]
	n.next = right
	return right.keys[0], right
}

// splitInternalRun is splitRun one level up: a full internal node whose
// child at ci split, where the child's separator sep and new right
// sibling r continue an ascending run of separators. The node keeps what
// lies below sep, and sep with r; the new right node takes the rest, or
// r alone past the last separator, and the separator that parts them
// goes up. So every internal node an ascending load leaves behind is
// full, as every leaf is.
func (n *btreeNode) splitInternalRun(ci int, sep uint64, r *btreeNode) (up uint64, right *btreeNode) {
	right = newInternal()
	if ci == len(n.keys) {
		right.children = append(right.children, r)
		return sep, right
	}
	up = n.keys[ci]
	right.keys = append(right.keys, n.keys[ci+1:]...)
	right.children = append(right.children, n.children[ci+1:]...)
	n.keys = append(n.keys[:ci], sep)
	n.children = append(n.children[:ci+1], r)
	n.lastIns = int32(ci)
	return up, right
}

func (n *btreeNode) splitInternal() (sep uint64, right *btreeNode) {
	mid := len(n.keys) / 2
	sep = n.keys[mid]
	right = newInternal()
	right.keys = append(right.keys, n.keys[mid+1:]...)
	right.children = append(right.children, n.children[mid+1:]...)
	n.keys = n.keys[:mid]
	n.children = n.children[:mid+1]
	return sep, right
}

// Delete removes key, reporting whether it was present. Underflowed
// nodes are not rebalanced (deletes are rare in the workloads; lookups
// stay correct, and the tree is rebuilt at restart anyway).
func (t *BTree) Delete(key uint64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.root
	for !n.leaf {
		n = n.children[childIndex(n.keys, key)]
	}
	i, ok := leafIndex(n.keys, key)
	if !ok {
		return false
	}
	n.keys = append(n.keys[:i], n.keys[i+1:]...)
	n.values = append(n.values[:i], n.values[i+1:]...)
	t.size--
	return true
}

// Scan walks keys in [from, to] in order, calling fn until it returns
// false or the range ends.
func (t *BTree) Scan(from, to uint64, fn func(key, value uint64) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := t.root
	for !n.leaf {
		n = n.children[childIndex(n.keys, from)]
	}
	for n != nil {
		for i, k := range n.keys {
			if k < from {
				continue
			}
			if k > to {
				return
			}
			if !fn(k, n.values[i]) {
				return
			}
		}
		n = n.next
	}
}

// Min returns the smallest key, or false if empty.
func (t *BTree) Min() (uint64, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := t.root
	for !n.leaf {
		n = n.children[0]
	}
	for n != nil {
		if len(n.keys) > 0 {
			return n.keys[0], true
		}
		n = n.next
	}
	return 0, false
}
