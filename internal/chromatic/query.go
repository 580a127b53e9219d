package chromatic

import (
	"repro/internal/dict"
	"repro/internal/epoch"
	"repro/internal/lbst"
)

// The ordered queries of Section 5.5 of the paper - Successor, Predecessor
// and the derived scans - are implemented once, generically, by the shared
// leaf-oriented BST engine (internal/lbst): an LLX-read BST search followed,
// when the neighbouring leaf must be located, by a VLX over the connecting
// path that validates the two leaves were adjacent in the tree at a single
// point in time. The chromatic tree's node type satisfies lbst.View, so
// these methods are thin wrappers; only the update path (chromatic.go,
// rebalance.go) stays hand-unrolled, exactly as the paper's pseudocode does.
//
// Each point-query wrapper pins the epoch for the duration of the query so
// that nodes reached by the traversal cannot be recycled underneath it.
// RangeScan and Ascend instead go through lbst.Scan, the shared atomic scan:
// capture an O(1) snapshot, walk it in order, release it.

// Successor returns the smallest key strictly greater than key together with
// its value, or ok=false if no such key exists.
func (t *Tree[K, V]) Successor(key K) (k K, v V, ok bool) {
	g := epoch.Pin()
	k, v, ok = lbst.Successor(t.entry, t.less, key)
	epoch.Unpin(g)
	return k, v, ok
}

// Predecessor returns the largest key strictly smaller than key together
// with its value, or ok=false if no such key exists.
func (t *Tree[K, V]) Predecessor(key K) (k K, v V, ok bool) {
	g := epoch.Pin()
	k, v, ok = lbst.Predecessor(t.entry, t.less, key)
	epoch.Unpin(g)
	return k, v, ok
}

// RangeScan calls fn for every key in [lo, hi] in ascending order and
// returns the number of keys visited. If fn returns false the scan stops
// early. The scan is atomic: it walks one O(1) snapshot of the tree (see
// lbst.Scan), so it reports exactly the keys in range at a single instant, in
// O(log n + span) with no retries. Under -tags noepoch it degrades to a
// Successor loop whose steps are each linearizable but not the scan as a
// whole.
func (t *Tree[K, V]) RangeScan(lo, hi K, fn func(k K, v V) bool) int {
	return lbst.Scan[*node[K, V], node[K, V], K, V](t.entry, t.less, &t.gver, &t.snapLive, &t.fastWriters, true, lo, hi, fn)
}

// Ascend calls fn for every key in the dictionary in ascending order and
// returns the number of keys visited. If fn returns false the scan stops
// early. Like RangeScan it is atomic, and per-step linearizable under
// -tags noepoch.
func (t *Tree[K, V]) Ascend(fn func(k K, v V) bool) int {
	var zero K
	return lbst.Scan[*node[K, V], node[K, V], K, V](t.entry, t.less, &t.gver, &t.snapLive, &t.fastWriters, false, zero, zero, fn)
}

// Snapshot captures the tree's current state in O(1) and returns its frozen
// view: scans over the view walk the captured version with plain reads —
// no VLX validation, no retries — and stay unchanged under arbitrary
// concurrent updates until Release. Holding a view parks reclamation of the
// nodes it can reach and disables this tree's in-place overwrite fast path;
// release views promptly. See internal/lbst/snapshot.go and DESIGN.md
// ("Versioned snapshots") for the protocol and its safety argument.
func (t *Tree[K, V]) Snapshot() dict.SnapshotView[K, V] {
	return lbst.CaptureSnap[*node[K, V], node[K, V], K, V](t.entry, t.less, &t.gver, &t.snapLive, &t.fastWriters)
}

// Min returns the smallest key in the dictionary and its value, or ok=false
// if the dictionary is empty.
func (t *Tree[K, V]) Min() (k K, v V, ok bool) {
	g := epoch.Pin()
	k, v, ok = lbst.Min[*node[K, V], node[K, V], K, V](t.entry)
	epoch.Unpin(g)
	return k, v, ok
}

// Max returns the largest key in the dictionary and its value, or ok=false
// if the dictionary is empty. (Sentinel keys are treated as +infinity and
// are never returned.)
func (t *Tree[K, V]) Max() (k K, v V, ok bool) {
	g := epoch.Pin()
	k, v, ok = lbst.Max[*node[K, V], node[K, V], K, V](t.entry)
	epoch.Unpin(g)
	return k, v, ok
}
