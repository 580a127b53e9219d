package llxscx

// Tests for the unpooled SCXFixed entry point (SCXP's fallback when epoch
// reclamation is compiled out) and for VLXFixed. They mirror the SCXP tests
// in llxscx_test.go, and assert that the slice VLX and VLXFixed agree.

import (
	"sync"
	"sync/atomic"
	"testing"
)

// fixedV stages linked LLX evidence the way hot paths do: in a stack array.
func fixedV(lks ...Linked[tnode]) ([MaxV]Linked[tnode], int) {
	var v [MaxV]Linked[tnode]
	return v, copy(v[:], lks)
}

func fixedR(rs ...*tnode) ([MaxV]*tnode, int) {
	var r [MaxV]*tnode
	return r, copy(r[:], rs)
}

func TestSCXFixedSwingsChildPointerAndFinalizes(t *testing.T) {
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
	v, nv := fixedV(lkRoot, lkLeaf)
	r, nr := fixedR(oldLeaf)
	if !SCXFixed(&v, nv, &r, nr, &root.left, oldLeaf, repl) {
		t.Fatal("SCXFixed failed on uncontended update")
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
	if _, st := LLX(repl); st != Snapshot {
		t.Fatalf("LLX(repl) = %v, want Snapshot", st)
	}
	if _, st := LLX(sibling); st != Snapshot {
		t.Fatalf("LLX(sibling) = %v, want Snapshot", st)
	}
}

func TestSCXFixedFailsIfRecordChangedSinceLinkedLLX(t *testing.T) {
	a := newTNode(1, nil, nil)
	b := newTNode(3, nil, nil)
	root := newTNode(2, a, b)

	lkRoot, _ := LLX(root)
	lkA, _ := LLX(a)

	// A competing update changes root.left first, through the fixed path.
	lkRoot2, _ := LLX(root)
	lkA2, _ := LLX(a)
	winner := newTNode(7, nil, nil)
	v2, nv2 := fixedV(lkRoot2, lkA2)
	r2, nr2 := fixedR(a)
	if !SCXFixed(&v2, nv2, &r2, nr2, &root.left, a, winner) {
		t.Fatal("first SCXFixed should succeed")
	}

	loser := newTNode(8, nil, nil)
	v1, nv1 := fixedV(lkRoot, lkA)
	r1, nr1 := fixedR(a)
	if SCXFixed(&v1, nv1, &r1, nr1, &root.left, a, loser) {
		t.Fatal("second SCXFixed should fail: root changed since its linked LLX")
	}
	if got := root.left.Load(); got != winner {
		t.Fatalf("root.left = %p, want winner %p", got, winner)
	}
}

func TestVLXFixedDetectsChange(t *testing.T) {
	a := newTNode(1, nil, nil)
	b := newTNode(3, nil, nil)
	root := newTNode(2, a, b)

	lkRoot, _ := LLX(root)
	lkA, _ := LLX(a)
	v, nv := fixedV(lkRoot, lkA)
	if !VLXFixed(&v, nv) {
		t.Fatal("VLXFixed on unchanged records should succeed")
	}

	lkRoot2, _ := LLX(root)
	lkA2, _ := LLX(a)
	v2, nv2 := fixedV(lkRoot2, lkA2)
	r2, nr2 := fixedR(a)
	if !SCXFixed(&v2, nv2, &r2, nr2, &root.left, a, newTNode(9, nil, nil)) {
		t.Fatal("SCXFixed should succeed")
	}
	if VLXFixed(&v, nv) {
		t.Fatal("VLXFixed should fail after root was modified")
	}
	// The empty sequence validates trivially, as with VLX(nil).
	if !VLXFixed(&v, 0) {
		t.Fatal("VLXFixed over zero records should succeed")
	}
}

// TestSliceWrappersAgreeWithFixed pins the wrapper relationship between the
// slice VLX and VLXFixed: fresh evidence validates and stale evidence fails
// through both entry points.
func TestSliceWrappersAgreeWithFixed(t *testing.T) {
	child := newTNode(1, nil, nil)
	root := newTNode(2, child, nil)
	stale, _ := LLX(root)
	staleChild, _ := LLX(child)
	agree := func(want bool, lks ...Linked[tnode]) {
		t.Helper()
		v, nv := fixedV(lks...)
		if got, gotFixed := VLX(lks), VLXFixed(&v, nv); got != want || gotFixed != want {
			t.Fatalf("VLX = %v, VLXFixed = %v, want %v", got, gotFixed, want)
		}
	}
	agree(true, stale, staleChild)

	lkRoot, _ := LLX(root)
	lkChild, _ := LLX(child)
	v, nv := fixedV(lkRoot, lkChild)
	r, nr := fixedR(child)
	winner := newTNode(7, nil, nil)
	if !SCXFixed(&v, nv, &r, nr, &root.left, child, winner) {
		t.Fatal("fresh SCXFixed should commit")
	}
	agree(false, stale, staleChild)
	lkRoot, _ = LLX(root)
	lkWinner, _ := LLX(winner)
	agree(true, lkRoot, lkWinner)
}

func TestSCXFixedPanicsOnBadLengths(t *testing.T) {
	child := newTNode(1, nil, nil)
	root := newTNode(2, child, nil)
	lkRoot, _ := LLX(root)
	lkChild, _ := LLX(child)
	v, _ := fixedV(lkRoot, lkChild)
	r, _ := fixedR(child)

	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	expectPanic("nv=0", func() { SCXFixed(&v, 0, &r, 0, &root.left, child, newTNode(9, nil, nil)) })
	expectPanic("nv>MaxV", func() { SCXFixed(&v, MaxV+1, &r, 0, &root.left, child, newTNode(9, nil, nil)) })
	expectPanic("nf>nv", func() { SCXFixed(&v, 2, &r, 3, &root.left, child, newTNode(9, nil, nil)) })
	expectPanic("nf<0", func() { SCXFixed(&v, 2, &r, -1, &root.left, child, newTNode(9, nil, nil)) })
	expectPanic("vlx n>MaxV", func() { VLXFixed(&v, MaxV+1) })
}

// TestConcurrentSCXFixedStress hammers a shared parent with SCXFixed
// under contention: every replaced node is finalized, the surviving node is
// not, and some SCX commits (progress). SCXFixed and SCXP never share
// records - an unpooled descriptor holds no reference on the pooled one its
// freezing CAS expects, reintroducing the ABA the pool rules out - so the
// pooled path is stressed on its own in TestConcurrentSCXOnSharedParent.
func TestConcurrentSCXFixedStress(t *testing.T) {
	root := newTNode(0, newTNode(1, nil, nil), nil)
	const goroutines = 8
	const attempts = 2000

	var successes atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < attempts; i++ {
				lkRoot, st := LLX(root)
				if st != Snapshot {
					continue
				}
				child := lkRoot.Child(0)
				if child == nil {
					t.Errorf("child unexpectedly nil")
					return
				}
				lkChild, st := LLX(child)
				if st != Snapshot {
					continue
				}
				repl := newTNode(int64(id*attempts+i+1000), nil, nil)
				v, nv := fixedV(lkRoot, lkChild)
				r, nr := fixedR(child)
				if SCXFixed(&v, nv, &r, nr, &root.left, child, repl) {
					successes.Add(1)
					if !child.rec.Marked() {
						t.Errorf("replaced child not finalized")
						return
					}
					if root.left.Load() == child {
						t.Errorf("committed SCX left the replaced child in place")
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if successes.Load() == 0 {
		t.Fatal("no SCXFixed succeeded under contention")
	}
	if cur := root.left.Load(); cur.rec.Marked() {
		t.Fatal("current child of root is finalized but still in the structure")
	}
}

// BenchmarkSCXFixedUncontended is the unpooled counterpart of
// BenchmarkSCXUncontended; the delta between the two is the descriptor
// allocation SCXP's pool saves.
func BenchmarkSCXFixedUncontended(b *testing.B) {
	root := newTNode(2, newTNode(1, nil, nil), nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lkRoot, _ := LLX(root)
		child := lkRoot.Child(0)
		lkChild, _ := LLX(child)
		repl := newTNode(int64(i), nil, nil)
		v, nv := fixedV(lkRoot, lkChild)
		r, nr := fixedR(child)
		if !SCXFixed(&v, nv, &r, nr, &root.left, child, repl) {
			b.Fatal("uncontended SCXFixed failed")
		}
	}
}
