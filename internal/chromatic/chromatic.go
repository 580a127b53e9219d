// Package chromatic implements the non-blocking chromatic tree of Brown,
// Ellen and Ruppert, "A General Technique for Non-blocking Trees"
// (PPoPP 2014), Section 5 and Appendix C.
//
// A chromatic tree is a leaf-oriented binary search tree that relaxes the
// balance conditions of a red-black tree: node colours are replaced by
// non-negative integer weights (0 = red, 1 = black, >1 = overweight) and the
// red-black properties may be violated transiently. Dictionary keys are
// stored only in leaves; internal nodes carry routing keys. Insertions and
// deletions are decoupled from rebalancing: each is a small localized update
// that follows the tree update template (LLX on a handful of nodes followed
// by one SCX), and a separate set of 22 localized rebalancing steps (Boyar,
// Fagerberg and Larsen) restores balance. Every operation is non-blocking
// and linearizable, and the height of the tree is O(c + log n) where c is
// the number of insertions and deletions in progress.
//
// The tree runs on the shared leaf-oriented BST engine (internal/lbst), as
// the paper's Section 5 promises a new template-based tree can: the engine
// owns the node, its pooled reclamation, the searches, the insertion and
// deletion updates, the in-place overwrite, the cleanup loop, the ordered
// queries and the versioned snapshots. This package supplies only the
// chromatic policy - weights as the node decoration (policy below), the
// rebalancing steps (rebalance.go) and the red-black invariant checkers
// (invariants.go) - plus the per-kind update counters of Stats.
//
// Tree is generic over the key and value types - only the search routine
// compares keys, exactly as the paper's template promises. NewOrdered builds
// a tree over any cmp.Ordered key type, NewLess accepts an arbitrary
// comparator (see dict.Less for the contract), and New keeps the historical
// int64 instantiation. The Chromatic6 variant of the paper — which postpones
// rebalancing until more than six violations accumulate on a search path —
// is obtained with WithAllowedViolations(6) or NewChromatic6.
package chromatic

import (
	"cmp"
	"strconv"
	"sync/atomic"

	"repro/internal/dict"
	"repro/internal/lbst"
)

// Stats counts the number of successful updates of each kind performed on a
// tree. It is intended for tests and experiments; counts are monotone and
// only approximately ordered with respect to concurrent operations.
type Stats struct {
	Insert1, Insert2, Delete          atomic.Int64
	BLK, RB1, RB2, PUSH, W7           atomic.Int64
	W1, W2, W3, W4, W5, W6            atomic.Int64
	MirrorRB1, MirrorRB2, MirrorPUSH  atomic.Int64
	MirrorW1, MirrorW2, MirrorW3      atomic.Int64
	MirrorW4, MirrorW5, MirrorW6      atomic.Int64
	MirrorW7                          atomic.Int64
	RebalanceAttempts, RebalanceFails atomic.Int64
}

// RebalanceTotal returns the total number of successful rebalancing steps.
func (s *Stats) RebalanceTotal() int64 {
	return s.BLK.Load() + s.RB1.Load() + s.RB2.Load() + s.PUSH.Load() + s.W7.Load() +
		s.W1.Load() + s.W2.Load() + s.W3.Load() + s.W4.Load() + s.W5.Load() + s.W6.Load() +
		s.MirrorRB1.Load() + s.MirrorRB2.Load() + s.MirrorPUSH.Load() + s.MirrorW7.Load() +
		s.MirrorW1.Load() + s.MirrorW2.Load() + s.MirrorW3.Load() + s.MirrorW4.Load() +
		s.MirrorW5.Load() + s.MirrorW6.Load()
}

// policy is the chromatic balancing policy for the lbst engine: a node's
// decoration is its weight. eng is the engine tree it balances, wired after
// construction; the rebalancing steps draw their fresh nodes and SCX
// descriptors from its pools.
type policy[K, V any] struct {
	// allowed is the number of violations tolerated on a search path before
	// an update that created a violation triggers rebalancing: 0 reproduces
	// the paper's Chromatic, 6 its Chromatic6.
	allowed int
	stats   *Stats
	eng     *lbst.Tree[K, V]
}

// Name implements lbst.Policy.
func (pol *policy[K, V]) Name() string {
	if pol.allowed == 0 {
		return "Chromatic"
	}
	return "Chromatic" + strconv.Itoa(pol.allowed)
}

// AllowedViolations implements lbst.Tolerant (Section 5.6 of the paper).
func (pol *policy[K, V]) AllowedViolations() int { return pol.allowed }

// LeafDeco implements lbst.Policy: fresh leaves and the sentinels are black.
func (pol *policy[K, V]) LeafDeco() int32 { return 1 }

// InternalDeco implements lbst.Policy (the Insert1 step of Figure 11): the
// new internal node absorbs one unit of the replaced leaf's weight, so
// weighted path lengths are unchanged, except that a node placed directly
// below a sentinel (in particular the chromatic root) always gets weight
// one, which keeps every violation strictly below the root.
func (pol *policy[K, V]) InternalDeco(p, l *lbst.Node[K, V]) int32 {
	if p.Inf {
		return 1
	}
	return l.Deco - 1
}

// PromotedDeco implements lbst.Policy (the Delete step of Figure 11): the
// promoted sibling absorbs its parent's weight so weighted path lengths are
// preserved, except directly below a sentinel, where it gets weight one.
func (pol *policy[K, V]) PromotedDeco(gp, p, s *lbst.Node[K, V]) int32 {
	if gp.Inf {
		return 1
	}
	return p.Deco + s.Deco
}

// CreatesViolation implements lbst.Policy. An insertion creates a violation
// when its new internal node is red below a red parent; a deletion when the
// promoted sibling ends up overweight.
func (pol *policy[K, V]) CreatesViolation(parent, oldChild, newChild *lbst.Node[K, V]) bool {
	if oldChild.Leaf {
		return parent.Deco == 0 && newChild.Deco == 0
	}
	return newChild.Deco > 1
}

// Violation implements lbst.Policy: n is overweight, or n and its parent
// are both red. Nodes directly below a sentinel always have weight one, so
// no violation sits there; the guard also keeps the window handed to
// Rebalance (which needs n's great-grandparent) complete.
func (pol *policy[K, V]) Violation(parent, n *lbst.Node[K, V]) bool {
	return !parent.Inf && (n.Deco > 1 || (parent.Deco == 0 && n.Deco == 0))
}

// Tree is a non-blocking chromatic tree implementing an ordered dictionary
// with keys ordered by a comparator. It is safe for concurrent use by any
// number of goroutines. The zero value is not usable; call New, NewOrdered
// or NewLess. Every dictionary, ordered-query and snapshot operation is the
// embedded engine's; the update methods below only add the Stats counts.
type Tree[K, V any] struct {
	*lbst.Tree[K, V]
	stats Stats
}

// config collects the option-controlled settings, so one Option type serves
// every key/value instantiation of Tree.
type config struct {
	allowed int
}

// Option configures a Tree at construction time.
type Option func(*config)

// WithAllowedViolations sets the number of violations tolerated on a search
// path before rebalancing is triggered (Section 5.6 of the paper). k = 0 is
// the plain chromatic tree; k = 6 is the paper's Chromatic6 variant.
func WithAllowedViolations(k int) Option {
	if k < 0 {
		k = 0
	}
	return func(c *config) { c.allowed = k }
}

// newTree builds a Tree whose engine build constructs around the chromatic
// policy.
func newTree[K, V any](opts []Option, build func(lbst.Policy[K, V]) *lbst.Tree[K, V]) *Tree[K, V] {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	t := &Tree[K, V]{}
	pol := &policy[K, V]{allowed: cfg.allowed, stats: &t.stats}
	t.Tree = build(pol)
	pol.eng = t.Tree
	return t
}

// NewLess returns an empty chromatic tree whose keys are ordered by less.
func NewLess[K, V any](less func(a, b K) bool, opts ...Option) *Tree[K, V] {
	return newTree(opts, func(pol lbst.Policy[K, V]) *lbst.Tree[K, V] { return lbst.New(less, pol) })
}

// NewOrdered returns an empty chromatic tree over a naturally ordered key
// type. It behaves exactly like NewLess with cmp.Less, but the engine
// installs a search routine specialized to the native `<` operator,
// removing the indirect comparator call per node on the read path.
func NewOrdered[K cmp.Ordered, V any](opts ...Option) *Tree[K, V] {
	return newTree(opts, lbst.NewOrdered[K, V])
}

// New returns an empty chromatic tree with int64 keys and values, the
// instantiation the benchmark registry and the paper's figures use.
func New(opts ...Option) *Tree[int64, int64] {
	return NewOrdered[int64, int64](opts...)
}

// NewChromatic6 returns an empty int64-keyed chromatic tree configured as
// the paper's Chromatic6 variant (rebalancing deferred until a search path
// carries more than six violations).
func NewChromatic6() *Tree[int64, int64] { return New(WithAllowedViolations(6)) }

// Stats returns the tree's operation counters.
func (t *Tree[K, V]) Stats() *Stats { return &t.stats }

// countInsert records a completed insertion: the paper's Insert1 (a fresh
// key, one SCX) or Insert2 (an overwrite of a present key).
func (t *Tree[K, V]) countInsert(existed bool) {
	if existed {
		t.stats.Insert2.Add(1)
	} else {
		t.stats.Insert1.Add(1)
	}
}

// Insert associates value with key and returns the previously associated
// value (with true) if key was already present; see lbst.Tree.Insert for
// the update and the in-place overwrite protocol.
func (t *Tree[K, V]) Insert(key K, value V) (V, bool) {
	old, existed := t.Tree.Insert(key, value)
	t.countInsert(existed)
	return old, existed
}

// InsertBounded is Insert under a per-operation budget (dict.Budget); a
// budget failure is effect-free and counts nothing.
func (t *Tree[K, V]) InsertBounded(key K, value V, budget dict.Budget) (V, bool, error) {
	old, existed, err := t.Tree.InsertBounded(key, value, budget)
	if err == nil {
		t.countInsert(existed)
	}
	return old, existed, err
}

// LoadOrStore returns the value already associated with key (loaded=true),
// or inserts value and returns it (loaded=false); see
// lbst.Tree.LoadOrStore.
func (t *Tree[K, V]) LoadOrStore(key K, value V) (actual V, loaded bool) {
	actual, loaded = t.Tree.LoadOrStore(key, value)
	if !loaded {
		t.stats.Insert1.Add(1)
	}
	return actual, loaded
}

// Delete removes key and returns the value that was associated with it (with
// true), or the zero value and false if key was not present.
func (t *Tree[K, V]) Delete(key K) (V, bool) {
	old, existed := t.Tree.Delete(key)
	if existed {
		t.stats.Delete.Add(1)
	}
	return old, existed
}

// DeleteBounded is Delete under a per-operation budget; a budget failure is
// effect-free and counts nothing.
func (t *Tree[K, V]) DeleteBounded(key K, budget dict.Budget) (V, bool, error) {
	old, existed, err := t.Tree.DeleteBounded(key, budget)
	if existed {
		t.stats.Delete.Add(1)
	}
	return old, existed, err
}
