package llxscx

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/epoch"
)

// The tests in this file drive SCXP, the pooled entry point every tree
// uses; llxscx_fixed_test.go covers SCXFixed, its unpooled fallback.

// tnode is a minimal binary Data-record used to exercise the primitives
// directly, independent of any particular tree algorithm.
type tnode struct {
	rec   Record[tnode]
	key   int64
	left  atomic.Pointer[tnode]
	right atomic.Pointer[tnode]
}

func (n *tnode) LLXRecord() *Record[tnode] { return &n.rec }
func (n *tnode) NumMutable() int           { return 2 }
func (n *tnode) Mutable(i int) *atomic.Pointer[tnode] {
	if i == 0 {
		return &n.left
	}
	return &n.right
}

func newTNode(key int64, left, right *tnode) *tnode {
	n := &tnode{key: key}
	n.left.Store(left)
	n.right.Store(right)
	return n
}

// scxp stages slices of evidence in stack arrays, as the trees do, and runs
// one pooled SCX under the caller's pinned guard g.
func scxp(g *epoch.Guard, pool *Pool[tnode], v []Linked[tnode], fin []*tnode, fld *atomic.Pointer[tnode], old, new *tnode) bool {
	var va [MaxV]Linked[tnode]
	var fa [MaxV]*tnode
	nv, nf := copy(va[:], v), copy(fa[:], fin)
	return SCXP(g, pool, &va, nv, &fa, nf, fld, old, new)
}

func TestLLXSnapshotOfQuiescentRecord(t *testing.T) {
	l, r := newTNode(1, nil, nil), newTNode(3, nil, nil)
	root := newTNode(2, l, r)
	lk, st := LLX(root)
	if st != Snapshot {
		t.Fatalf("LLX status = %v, want Snapshot", st)
	}
	if lk.Node() != root {
		t.Fatalf("Linked.Node = %p, want %p", lk.Node(), root)
	}
	if lk.NumChildren() != 2 {
		t.Fatalf("NumChildren = %d, want 2", lk.NumChildren())
	}
	if lk.Child(0) != l || lk.Child(1) != r {
		t.Fatalf("snapshot children = %p,%p want %p,%p", lk.Child(0), lk.Child(1), l, r)
	}
	if !lk.Valid() {
		t.Fatal("Linked.Valid() = false, want true")
	}
}

func TestZeroLinkedIsInvalid(t *testing.T) {
	var lk Linked[tnode]
	if lk.Valid() {
		t.Fatal("zero Linked should not be valid")
	}
}

func TestSCXSwingsChildPointerAndFinalizes(t *testing.T) {
	g, pool := epoch.Pin(), NewPool[tnode]()
	defer epoch.Unpin(g)
	oldLeaf := newTNode(1, nil, nil)
	sibling := newTNode(3, nil, nil)
	root := newTNode(2, oldLeaf, sibling)

	lkRoot, st := LLX(root)
	if st != Snapshot {
		t.Fatalf("LLX(root) = %v", st)
	}
	lkLeaf, st := LLX(oldLeaf)
	if st != Snapshot {
		t.Fatalf("LLX(oldLeaf) = %v", st)
	}

	repl := newTNode(10, nil, nil)
	ok := scxp(g, pool, []Linked[tnode]{lkRoot, lkLeaf}, []*tnode{oldLeaf}, &root.left, oldLeaf, repl)
	if !ok {
		t.Fatal("SCXP failed on uncontended update")
	}
	if got := root.left.Load(); got != repl {
		t.Fatalf("root.left = %p, want %p", got, repl)
	}
	if !oldLeaf.rec.Marked() {
		t.Fatal("finalized record not marked")
	}
	if _, st := LLX(oldLeaf); st != Finalized {
		t.Fatalf("LLX on finalized record = %v, want Finalized", st)
	}
	// The replacement and untouched sibling remain usable.
	if _, st := LLX(repl); st != Snapshot {
		t.Fatalf("LLX(repl) = %v, want Snapshot", st)
	}
	if _, st := LLX(sibling); st != Snapshot {
		t.Fatalf("LLX(sibling) = %v, want Snapshot", st)
	}
}

func TestSCXFailsIfRecordChangedSinceLinkedLLX(t *testing.T) {
	g, pool := epoch.Pin(), NewPool[tnode]()
	defer epoch.Unpin(g)
	a := newTNode(1, nil, nil)
	b := newTNode(3, nil, nil)
	root := newTNode(2, a, b)

	lkRoot, _ := LLX(root)
	lkA, _ := LLX(a)

	// A competing update changes root.left first.
	lkRoot2, _ := LLX(root)
	lkA2, _ := LLX(a)
	winner := newTNode(7, nil, nil)
	if !scxp(g, pool, []Linked[tnode]{lkRoot2, lkA2}, []*tnode{a}, &root.left, a, winner) {
		t.Fatal("first SCX should succeed")
	}

	loser := newTNode(8, nil, nil)
	if scxp(g, pool, []Linked[tnode]{lkRoot, lkA}, []*tnode{a}, &root.left, a, loser) {
		t.Fatal("second SCX should fail: root changed since its linked LLX")
	}
	if got := root.left.Load(); got != winner {
		t.Fatalf("root.left = %p, want winner %p", got, winner)
	}
}

func TestVLXDetectsChange(t *testing.T) {
	g, pool := epoch.Pin(), NewPool[tnode]()
	defer epoch.Unpin(g)
	a := newTNode(1, nil, nil)
	b := newTNode(3, nil, nil)
	root := newTNode(2, a, b)

	lkRoot, _ := LLX(root)
	lkA, _ := LLX(a)
	if !VLX([]Linked[tnode]{lkRoot, lkA}) {
		t.Fatal("VLX on unchanged records should succeed")
	}

	// Change root via an SCX, then the old evidence must fail to validate.
	lkRoot2, _ := LLX(root)
	lkA2, _ := LLX(a)
	if !scxp(g, pool, []Linked[tnode]{lkRoot2, lkA2}, []*tnode{a}, &root.left, a, newTNode(9, nil, nil)) {
		t.Fatal("SCX should succeed")
	}
	if VLX([]Linked[tnode]{lkRoot, lkA}) {
		t.Fatal("VLX should fail after root was modified")
	}
}

func TestStatusString(t *testing.T) {
	cases := map[Status]string{Snapshot: "Snapshot", Fail: "Fail", Finalized: "Finalized", Status(42): "Unknown"}
	for st, want := range cases {
		if st.String() != want {
			t.Errorf("Status(%d).String() = %q, want %q", int(st), st.String(), want)
		}
	}
}

// TestConcurrentSCXOnSharedParent hammers a single parent node with many
// goroutines each trying to replace the same child. Exactly the successful
// SCXs must be reflected in the final chain, and every replaced node must be
// finalized.
func TestConcurrentSCXOnSharedParent(t *testing.T) {
	root := newTNode(0, newTNode(1, nil, nil), nil)
	pool := NewPool[tnode]()
	const goroutines = 8
	const attempts = 2000

	var successes atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < attempts; i++ {
				// One pinned region per attempt, LLXs included, exactly as a
				// tree operation holds it.
				g := epoch.Pin()
				lkRoot, st := LLX(root)
				if st != Snapshot {
					epoch.Unpin(g)
					continue
				}
				child := lkRoot.Child(0)
				if child == nil {
					epoch.Unpin(g)
					t.Errorf("child unexpectedly nil")
					return
				}
				lkChild, st := LLX(child)
				if st != Snapshot {
					epoch.Unpin(g)
					continue
				}
				repl := newTNode(int64(id*attempts+i+1000), nil, nil)
				ok := scxp(g, pool, []Linked[tnode]{lkRoot, lkChild}, []*tnode{child}, &root.left, child, repl)
				epoch.Unpin(g)
				if ok {
					successes.Add(1)
					if !child.rec.Marked() {
						t.Errorf("replaced child not finalized")
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if successes.Load() == 0 {
		t.Fatal("no SCX succeeded under contention; progress property violated")
	}
	// The surviving child must not be finalized.
	if cur := root.left.Load(); cur.rec.Marked() {
		t.Fatal("current child of root is finalized but still in the structure")
	}
}

// TestLLXFailOrFinalizedUnderConcurrentFreeze checks that LLX never returns a
// stale snapshot of a record that a committed SCX has already replaced: after
// the SCX commits, LLX on the removed record must return Finalized.
func TestLLXFinalizedAfterRemoval(t *testing.T) {
	g, pool := epoch.Pin(), NewPool[tnode]()
	defer epoch.Unpin(g)
	child := newTNode(1, nil, nil)
	root := newTNode(2, child, nil)
	lkRoot, _ := LLX(root)
	lkChild, _ := LLX(child)
	if !scxp(g, pool, []Linked[tnode]{lkRoot, lkChild}, []*tnode{child}, &root.left, child, newTNode(5, nil, nil)) {
		t.Fatal("SCX failed")
	}
	for i := 0; i < 10; i++ {
		if _, st := LLX(child); st != Finalized {
			t.Fatalf("LLX on removed record = %v, want Finalized", st)
		}
	}
}

func BenchmarkLLX(b *testing.B) {
	root := newTNode(2, newTNode(1, nil, nil), newTNode(3, nil, nil))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, st := LLX(root); st != Snapshot {
			b.Fatal("unexpected LLX failure")
		}
	}
}

// BenchmarkSCXUncontended times one pooled SCXP with its two LLXs, the
// descriptor coming from (and returning to) the pool.
func BenchmarkSCXUncontended(b *testing.B) {
	root := newTNode(2, newTNode(1, nil, nil), nil)
	pool := NewPool[tnode]()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := epoch.Pin()
		lkRoot, _ := LLX(root)
		child := lkRoot.Child(0)
		lkChild, _ := LLX(child)
		repl := newTNode(int64(i), nil, nil)
		if !scxp(g, pool, []Linked[tnode]{lkRoot, lkChild}, []*tnode{child}, &root.left, child, repl) {
			b.Fatal("uncontended SCXP failed")
		}
		epoch.Unpin(g)
	}
}
