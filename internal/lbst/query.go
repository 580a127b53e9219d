package lbst

import (
	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/llxscx"
)

// This file implements the ordered queries of Section 5.5 of the paper -
// Successor and Predecessor - generically, so that every leaf-oriented BST
// in the repository (the engine's own trees and the chromatic tree, whose
// update path stays hand-unrolled) shares one implementation, whatever its
// key and value types.
//
// Both queries perform an ordinary BST search using LLX to read child
// pointers; if the leaf reached already answers the query it is returned
// directly (it was linearized while on the search path), otherwise the
// neighbouring leaf is located and a VLX over the connecting path validates
// that the two leaves were adjacent in the tree at a single point in time.
// Min and Max walk to the outermost leaf with LLXs and validate the whole
// spine with one VLX, so no "smallest possible key" sentinel value is ever
// needed - which is what lets the queries work for arbitrary key types.

// View is the read-only shape a leaf-oriented BST node must expose to share
// the engine's traversal helpers. The node type remains free to lay out its
// fields however it likes (the chromatic tree keeps its weight field; the
// engine's Node carries the policy decoration).
type View[N, K, V any] interface {
	llxscx.DataRecord[N]
	// Key returns the routing key (internal nodes) or dictionary key
	// (leaves); ignored for sentinels.
	Key() K
	// Value returns the associated value (leaves only).
	Value() V
	// IsLeaf reports whether the node is a leaf.
	IsLeaf() bool
	// IsSentinel reports whether the node's key reads as +infinity.
	IsSentinel() bool
}

func viewLess[P View[N, K, V], N, K, V any](less func(K, K) bool, key K, n P) bool {
	return n.IsSentinel() || less(key, n.Key())
}

// genOf reads n's reclamation generation for the poisoning assertions.
// Compiled out unless -tags reclaimcheck; the type assertion tolerates node
// types without a generation counter.
func genOf[P View[N, K, V], N, K, V any](n P) uint64 {
	if !epoch.PoisonCheck {
		return 0
	}
	if gn, ok := any(n).(interface{ Gen() uint64 }); ok {
		return gn.Gen()
	}
	return 0
}

// assertGen panics if a node's generation changed while the (pinned) query
// held it: the reclamation layer recycled memory a reader could still reach,
// which the grace-period argument in DESIGN.md says must never happen.
func assertGen[P View[N, K, V], N, K, V any](n P, g0 uint64) {
	if epoch.PoisonCheck && genOf[P, N, K, V](n) != g0 {
		panic("lbst: node recycled under a pinned reader (reclaimcheck)")
	}
}

// pathBufCap is the capacity of the stack buffer each ordered query reuses
// for its validation path across retries and descent steps. It comfortably
// covers the height of a balanced tree with millions of keys; a deeper walk
// (possible only in the unbalanced EBST) falls back to append's heap growth
// instead of failing. Each query function allocates the buffer once on its
// own frame, so steady-state queries generate no garbage per retry.
const pathBufCap = 48

// Successor returns the smallest key strictly greater than key together
// with its value, or ok=false if no such key exists. entry must be the
// sentinel entry point of the tree and less its key comparator.
func Successor[P View[N, K, V], N, K, V any](entry P, less func(K, K) bool, key K) (k K, v V, ok bool) {
	var buf [pathBufCap]llxscx.Linked[N]
	path := buf[:0]
	// Every retry means an LLX or the VLX lost to a concurrent update on the
	// connecting path; back off (bounded, randomized, growing with the retry
	// count) before re-walking so queries make progress under heavy update
	// load instead of re-validating a path that keeps changing.
retry:
	for attempt := 0; ; attempt++ {
		core.BackoffWait(attempt)
		path = path[:0]
		var lkLastLeft llxscx.Linked[N]
		haveLastLeft := false

		var nilNode P
		l := entry
		for !l.IsLeaf() {
			lk, st := llxscx.LLX(l)
			if st != llxscx.Snapshot {
				continue retry
			}
			if viewLess(less, key, l) {
				lkLastLeft = lk
				haveLastLeft = true
				path = path[:0]
				path = append(path, lk)
				l = lk.Child(0)
			} else {
				path = append(path, lk)
				l = lk.Child(1)
			}
			if l == nilNode {
				continue retry
			}
		}
		// The search for key always turns left at the sentinels, so lastLeft
		// exists; if it is the entry node itself the dictionary is empty.
		if !haveLastLeft || lkLastLeft.Node() == (*N)(entry) {
			return k, v, false
		}
		if viewLess(less, key, l) {
			// The leaf reached holds a key strictly greater than key, so it
			// is the successor (linearized while it was on the search path).
			if l.IsSentinel() {
				return k, v, false
			}
			g0 := genOf[P, N, K, V](l)
			k, v = l.Key(), l.Value()
			assertGen(l, g0)
			return k, v, true
		}
		// Otherwise the successor is the leftmost leaf of lastLeft's right
		// subtree. Walk down to it with LLXs and validate the whole
		// connecting path with a VLX.
		succ := P(lkLastLeft.Child(1))
		if succ == nilNode {
			continue retry
		}
		for !succ.IsLeaf() {
			lk, st := llxscx.LLX(succ)
			if st != llxscx.Snapshot {
				continue retry
			}
			path = append(path, lk)
			succ = lk.Child(0)
			if succ == nilNode {
				continue retry
			}
		}
		g0 := genOf[P, N, K, V](succ)
		if !llxscx.VLX(path) {
			continue retry
		}
		if succ.IsSentinel() {
			return k, v, false
		}
		k, v = succ.Key(), succ.Value()
		assertGen(succ, g0)
		return k, v, true
	}
}

// Predecessor returns the largest key strictly smaller than key together
// with its value, or ok=false if no such key exists. entry must be the
// sentinel entry point of the tree and less its key comparator.
func Predecessor[P View[N, K, V], N, K, V any](entry P, less func(K, K) bool, key K) (k K, v V, ok bool) {
	var buf [pathBufCap]llxscx.Linked[N]
	path := buf[:0]
retry:
	for attempt := 0; ; attempt++ {
		core.BackoffWait(attempt)
		path = path[:0]
		var lkLastRight llxscx.Linked[N]
		haveLastRight := false

		var nilNode P
		l := entry
		for !l.IsLeaf() {
			lk, st := llxscx.LLX(l)
			if st != llxscx.Snapshot {
				continue retry
			}
			if viewLess(less, key, l) {
				path = append(path, lk)
				l = lk.Child(0)
			} else {
				lkLastRight = lk
				haveLastRight = true
				path = path[:0]
				path = append(path, lk)
				l = lk.Child(1)
			}
			if l == nilNode {
				continue retry
			}
		}
		if !l.IsSentinel() && less(l.Key(), key) {
			// The leaf reached holds a key strictly smaller than key, so it
			// is the predecessor.
			g0 := genOf[P, N, K, V](l)
			k, v = l.Key(), l.Value()
			assertGen(l, g0)
			return k, v, true
		}
		if !haveLastRight {
			// The search never turned right: every key in the dictionary is
			// greater than or equal to key.
			return k, v, false
		}
		// The predecessor is the rightmost leaf of lastRight's left subtree.
		pred := P(lkLastRight.Child(0))
		if pred == nilNode {
			continue retry
		}
		for !pred.IsLeaf() {
			lk, st := llxscx.LLX(pred)
			if st != llxscx.Snapshot {
				continue retry
			}
			path = append(path, lk)
			pred = lk.Child(1)
			if pred == nilNode {
				continue retry
			}
		}
		g0 := genOf[P, N, K, V](pred)
		if !llxscx.VLX(path) {
			continue retry
		}
		if pred.IsSentinel() {
			return k, v, false
		}
		k, v = pred.Key(), pred.Value()
		assertGen(pred, g0)
		return k, v, true
	}
}

// RangeScan calls fn for every key in [lo, hi] in ascending order, using a
// point probe for lo followed by repeated Successor queries. It returns the
// number of keys visited. If fn returns false the scan stops early. The
// scan is not atomic as a whole: each step is individually linearizable.
// It costs O(span·log n); the trees scan through Scan, which walks one
// snapshot instead and uses this loop only under -tags noepoch.
func RangeScan[P View[N, K, V], N, K, V any](entry P, less func(K, K) bool, lo, hi K, fn func(k K, v V) bool) int {
	count := 0
	// The first key in range is lo itself if present, else lo's successor;
	// no "lo - 1" arithmetic, so the scan works for any key type.
	k, v, ok := findLeaf(entry, less, lo)
	if !ok {
		k, v, ok = Successor(entry, less, lo)
	}
	for ok && !less(hi, k) {
		count++
		if !fn(k, v) {
			return count
		}
		k, v, ok = Successor(entry, less, k)
	}
	return count
}

// Ascend calls fn for every key in the dictionary in ascending order, using
// Min followed by repeated Successor queries. It returns the number of keys
// visited. If fn returns false the scan stops early. Each step is
// individually linearizable. Like RangeScan it is Scan's -tags noepoch
// fallback.
func Ascend[P View[N, K, V], N, K, V any](entry P, less func(K, K) bool, fn func(k K, v V) bool) int {
	count := 0
	k, v, ok := Min[P, N, K, V](entry)
	for ok {
		count++
		if !fn(k, v) {
			return count
		}
		k, v, ok = Successor(entry, less, k)
	}
	return count
}

// Min returns the smallest key in the dictionary and its value, or ok=false
// if the dictionary is empty. It walks to the leftmost leaf with LLXs and
// validates the spine with a VLX, so the result is linearizable. Because K
// and V only appear in the constraint and results, call sites must
// instantiate the type parameters explicitly.
func Min[P View[N, K, V], N, K, V any](entry P) (k K, v V, ok bool) {
	var buf [pathBufCap]llxscx.Linked[N]
	path := buf[:0]
retry:
	for attempt := 0; ; attempt++ {
		core.BackoffWait(attempt)
		path = path[:0]
		var nilNode P
		l := entry
		for !l.IsLeaf() {
			lk, st := llxscx.LLX(l)
			if st != llxscx.Snapshot {
				continue retry
			}
			path = append(path, lk)
			l = lk.Child(0)
			if l == nilNode {
				continue retry
			}
		}
		g0 := genOf[P, N, K, V](l)
		if !llxscx.VLX(path) {
			continue retry
		}
		if l.IsSentinel() {
			// The leftmost leaf is the sentinel leaf: the dictionary is empty.
			return k, v, false
		}
		k, v = l.Key(), l.Value()
		assertGen(l, g0)
		return k, v, true
	}
}

// Max returns the largest key in the dictionary and its value, or ok=false
// if the dictionary is empty. The rightmost spine of the entry structure
// ends at a sentinel leaf, so Max walks to the rightmost leaf of the tree
// proper (the left subtree below the top sentinel), which contains no
// sentinels. Like Min it validates the whole spine with a VLX and requires
// explicit instantiation.
func Max[P View[N, K, V], N, K, V any](entry P) (k K, v V, ok bool) {
	var buf [pathBufCap]llxscx.Linked[N]
	path := buf[:0]
retry:
	for attempt := 0; ; attempt++ {
		core.BackoffWait(attempt)
		path = path[:0]
		var nilNode P
		lkE, st := llxscx.LLX(entry)
		if st != llxscx.Snapshot {
			continue retry
		}
		path = append(path, lkE)
		top := P(lkE.Child(0))
		if top == nilNode {
			continue retry
		}
		if top.IsLeaf() {
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
		l := P(lkTop.Child(0))
		if l == nilNode {
			continue retry
		}
		for !l.IsLeaf() {
			lk, st := llxscx.LLX(l)
			if st != llxscx.Snapshot {
				continue retry
			}
			path = append(path, lk)
			l = lk.Child(1)
			if l == nilNode {
				continue retry
			}
		}
		g0 := genOf[P, N, K, V](l)
		if !llxscx.VLX(path) {
			continue retry
		}
		if l.IsSentinel() {
			continue retry
		}
		k, v = l.Key(), l.Value()
		assertGen(l, g0)
		return k, v, true
	}
}

// findLeaf performs a plain-read search for key and reports its value if a
// leaf holding exactly key is reached.
func findLeaf[P View[N, K, V], N, K, V any](entry P, less func(K, K) bool, key K) (k K, v V, ok bool) {
	var nilNode P
	l := entry
	for !l.IsLeaf() {
		var next P
		if viewLess(less, key, l) {
			next = P(l.Mutable(0).Load())
		} else {
			next = P(l.Mutable(1).Load())
		}
		if next == nilNode {
			return k, v, false
		}
		l = next
	}
	if !l.IsSentinel() && !less(key, l.Key()) && !less(l.Key(), key) {
		return l.Key(), l.Value(), true
	}
	return k, v, false
}
