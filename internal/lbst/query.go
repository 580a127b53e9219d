package lbst

import (
	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/llxscx"
)

// This file implements the ordered queries of Section 5.5 of the paper -
// Successor and Predecessor - and the Min/Max spine walks, once for every
// leaf-oriented BST in the repository, whatever its key and value types.
//
// Both queries perform an ordinary BST search using LLX to read child
// pointers; if the leaf reached already answers the query it is returned
// directly (it was linearized while on the search path), otherwise the
// neighbouring leaf is located and a VLX over the connecting path validates
// that the two leaves were adjacent in the tree at a single point in time.
// Min and Max walk to the outermost leaf with LLXs and validate the whole
// spine with one VLX, so no "smallest possible key" sentinel value is ever
// needed - which is what lets the queries work for arbitrary key types.
//
// Each exported query pins the epoch for its duration, so nodes reached by
// the traversal cannot be recycled underneath it.

// pathBufCap is the capacity of the stack buffer each ordered query reuses
// for its validation path across retries and descent steps. It comfortably
// covers the height of a balanced tree with millions of keys; a deeper walk
// (possible only in the unbalanced EBST) falls back to append's heap growth
// instead of failing. Each query function allocates the buffer once on its
// own frame, so steady-state queries generate no garbage per retry.
const pathBufCap = 48

// readLeaf returns leaf l's key and value. Under -tags reclaimcheck it
// asserts that l's generation is still g0, the one read before the caller's
// validation: the reclamation layer must never recycle memory a pinned
// reader can still reach (the grace-period argument in DESIGN.md).
func readLeaf[K, V any](l *Node[K, V], g0 uint64) (K, V) {
	k, v := l.K, l.val.Load()
	if epoch.PoisonCheck && l.gen != g0 {
		panic("lbst: node recycled under a pinned reader (reclaimcheck)")
	}
	return k, v
}

// Successor returns the smallest key strictly greater than key, with its
// value; ok is false if no such key exists.
func (t *Tree[K, V]) Successor(key K) (k K, v V, ok bool) {
	g := epoch.Pin()
	k, v, ok = t.successor(key)
	epoch.Unpin(g)
	return k, v, ok
}

// successor is Successor without the pin.
func (t *Tree[K, V]) successor(key K) (k K, v V, ok bool) {
	var buf [pathBufCap]llxscx.Linked[Node[K, V]]
	path := buf[:0]
	// Every retry means an LLX or the VLX lost to a concurrent update on the
	// connecting path; back off (bounded, randomized, growing with the retry
	// count) before re-walking so queries make progress under heavy update
	// load instead of re-validating a path that keeps changing.
retry:
	for attempt := 0; ; attempt++ {
		core.BackoffWait(attempt)
		path = path[:0]
		var lkLastLeft llxscx.Linked[Node[K, V]]
		haveLastLeft := false

		l := t.entry
		for !l.Leaf {
			lk, st := llxscx.LLX(l)
			if st != llxscx.Snapshot {
				continue retry
			}
			if t.keyLess(key, l) {
				lkLastLeft = lk
				haveLastLeft = true
				path = path[:0]
				path = append(path, lk)
				l = lk.Child(0)
			} else {
				path = append(path, lk)
				l = lk.Child(1)
			}
			if l == nil {
				continue retry
			}
		}
		// The search for key always turns left at the sentinels, so lastLeft
		// exists; if it is the entry node itself the dictionary is empty.
		if !haveLastLeft || lkLastLeft.Node() == t.entry {
			return k, v, false
		}
		if t.keyLess(key, l) {
			// The leaf reached holds a key strictly greater than key, so it
			// is the successor (linearized while it was on the search path).
			if l.Inf {
				return k, v, false
			}
			k, v = readLeaf(l, l.gen)
			return k, v, true
		}
		// Otherwise the successor is the leftmost leaf of lastLeft's right
		// subtree. Walk down to it with LLXs and validate the whole
		// connecting path with a VLX.
		succ := lkLastLeft.Child(1)
		if succ == nil {
			continue retry
		}
		for !succ.Leaf {
			lk, st := llxscx.LLX(succ)
			if st != llxscx.Snapshot {
				continue retry
			}
			path = append(path, lk)
			succ = lk.Child(0)
			if succ == nil {
				continue retry
			}
		}
		g0 := succ.gen
		if !llxscx.VLX(path) {
			continue retry
		}
		if succ.Inf {
			return k, v, false
		}
		k, v = readLeaf(succ, g0)
		return k, v, true
	}
}

// Predecessor returns the largest key strictly smaller than key, with its
// value; ok is false if no such key exists.
func (t *Tree[K, V]) Predecessor(key K) (k K, v V, ok bool) {
	g := epoch.Pin()
	defer epoch.Unpin(g)
	var buf [pathBufCap]llxscx.Linked[Node[K, V]]
	path := buf[:0]
retry:
	for attempt := 0; ; attempt++ {
		core.BackoffWait(attempt)
		path = path[:0]
		var lkLastRight llxscx.Linked[Node[K, V]]
		haveLastRight := false

		l := t.entry
		for !l.Leaf {
			lk, st := llxscx.LLX(l)
			if st != llxscx.Snapshot {
				continue retry
			}
			if t.keyLess(key, l) {
				path = append(path, lk)
				l = lk.Child(0)
			} else {
				lkLastRight = lk
				haveLastRight = true
				path = path[:0]
				path = append(path, lk)
				l = lk.Child(1)
			}
			if l == nil {
				continue retry
			}
		}
		if !l.Inf && t.less(l.K, key) {
			// The leaf reached holds a key strictly smaller than key, so it
			// is the predecessor.
			k, v = readLeaf(l, l.gen)
			return k, v, true
		}
		if !haveLastRight {
			// The search never turned right: every key in the dictionary is
			// greater than or equal to key.
			return k, v, false
		}
		// The predecessor is the rightmost leaf of lastRight's left subtree.
		pred := lkLastRight.Child(0)
		if pred == nil {
			continue retry
		}
		for !pred.Leaf {
			lk, st := llxscx.LLX(pred)
			if st != llxscx.Snapshot {
				continue retry
			}
			path = append(path, lk)
			pred = lk.Child(1)
			if pred == nil {
				continue retry
			}
		}
		g0 := pred.gen
		if !llxscx.VLX(path) {
			continue retry
		}
		if pred.Inf {
			return k, v, false
		}
		k, v = readLeaf(pred, g0)
		return k, v, true
	}
}

// rangeScanLoop calls fn for every key in [lo, hi] in ascending order, using
// a point probe for lo followed by repeated Successor queries. It returns
// the number of keys visited. If fn returns false the scan stops early. The
// scan is not atomic as a whole: each step is individually linearizable.
// It costs O(span·log n); the trees scan through scan (snapshot.go), which
// walks one snapshot instead and uses this loop only under -tags noepoch.
func (t *Tree[K, V]) rangeScanLoop(lo, hi K, fn func(k K, v V) bool) int {
	count := 0
	// The first key in range is lo itself if present, else lo's successor;
	// no "lo - 1" arithmetic, so the scan works for any key type.
	k, v, ok := t.findLeaf(lo)
	if !ok {
		k, v, ok = t.successor(lo)
	}
	for ok && !t.less(hi, k) {
		count++
		if !fn(k, v) {
			return count
		}
		k, v, ok = t.successor(k)
	}
	return count
}

// ascendLoop calls fn for every key in ascending order, using Min followed
// by repeated Successor queries, and returns the number of keys visited. If
// fn returns false the scan stops early. Each step is individually
// linearizable. Like rangeScanLoop it is the -tags noepoch fallback.
func (t *Tree[K, V]) ascendLoop(fn func(k K, v V) bool) int {
	count := 0
	k, v, ok := t.Min()
	for ok {
		count++
		if !fn(k, v) {
			return count
		}
		k, v, ok = t.successor(k)
	}
	return count
}

// Min returns the smallest key in the dictionary and its value, or ok=false
// if the dictionary is empty. It walks to the leftmost leaf with LLXs and
// validates the spine with a VLX, so the result is linearizable.
func (t *Tree[K, V]) Min() (k K, v V, ok bool) {
	g := epoch.Pin()
	defer epoch.Unpin(g)
	var buf [pathBufCap]llxscx.Linked[Node[K, V]]
	path := buf[:0]
retry:
	for attempt := 0; ; attempt++ {
		core.BackoffWait(attempt)
		path = path[:0]
		l := t.entry
		for !l.Leaf {
			lk, st := llxscx.LLX(l)
			if st != llxscx.Snapshot {
				continue retry
			}
			path = append(path, lk)
			l = lk.Child(0)
			if l == nil {
				continue retry
			}
		}
		g0 := l.gen
		if !llxscx.VLX(path) {
			continue retry
		}
		if l.Inf {
			// The leftmost leaf is the sentinel leaf: the dictionary is empty.
			return k, v, false
		}
		k, v = readLeaf(l, g0)
		return k, v, true
	}
}

// Max returns the largest key in the dictionary and its value, or ok=false
// if the dictionary is empty. The rightmost spine of the entry structure
// ends at a sentinel leaf, so Max walks to the rightmost leaf of the tree
// proper (the left subtree below the top sentinel), which contains no
// sentinels. Like Min it validates the whole spine with a VLX.
func (t *Tree[K, V]) Max() (k K, v V, ok bool) {
	g := epoch.Pin()
	defer epoch.Unpin(g)
	var buf [pathBufCap]llxscx.Linked[Node[K, V]]
	path := buf[:0]
retry:
	for attempt := 0; ; attempt++ {
		core.BackoffWait(attempt)
		path = path[:0]
		lkE, st := llxscx.LLX(t.entry)
		if st != llxscx.Snapshot {
			continue retry
		}
		path = append(path, lkE)
		top := lkE.Child(0)
		if top == nil {
			continue retry
		}
		if top.Leaf {
			// Figure 10(a): the dictionary is empty.
			if !llxscx.VLX(path) {
				continue retry
			}
			return k, v, false
		}
		lkTop, st := llxscx.LLX(top)
		if st != llxscx.Snapshot {
			continue retry
		}
		path = append(path, lkTop)
		l := lkTop.Child(0)
		if l == nil {
			continue retry
		}
		for !l.Leaf {
			lk, st := llxscx.LLX(l)
			if st != llxscx.Snapshot {
				continue retry
			}
			path = append(path, lk)
			l = lk.Child(1)
			if l == nil {
				continue retry
			}
		}
		g0 := l.gen
		if !llxscx.VLX(path) {
			continue retry
		}
		if l.Inf {
			continue retry
		}
		k, v = readLeaf(l, g0)
		return k, v, true
	}
}

// findLeaf performs a plain-read search for key and reports its value if a
// leaf holding exactly key is reached.
func (t *Tree[K, V]) findLeaf(key K) (k K, v V, ok bool) {
	_, _, l := t.searchFn(t, key)
	if t.isKey(key, l) {
		return l.K, l.val.Load(), true
	}
	return k, v, false
}
