package repro

// Shared OrderedMap conformance, fuzz and stress suite (internal/dict/
// dicttest) applied to EVERY dictionary in the repository - the trees built
// on the LLX/SCX tree update template and the evaluation's baseline
// competitors alike - resolved through the benchmark registry so the tests
// exercise exactly what the harness benchmarks. Each target carries its own
// quiescent invariant checker: the engine's structural check for EBST, the
// full height/balance bookkeeping for RAVL (after draining the relaxed
// violations), the weight invariants for the chromatic trees, BST-order and
// parent-pointer checks for the lock-based AVL tree, level-ordering checks
// for the two skip lists and the red-black properties for the sequential
// and STM red-black trees.
//
// The same suite also runs against string-keyed instantiations of every
// structure (see stringTargets), which exercises the comparator path end to
// end: no part of the stack may assume integer keys.

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/bench"
	"repro/internal/chromatic"
	"repro/internal/dict"
	"repro/internal/dict/dicttest"
	"repro/internal/ebst"
	"repro/internal/epoch"
	"repro/internal/lockavl"
	"repro/internal/ravl"
	"repro/internal/seqrbt"
	"repro/internal/skiplist"
	"repro/internal/stmrbt"
	"repro/internal/stmskip"
)

// templateTreeTargets returns the dicttest targets for the template-based
// trees, with structure-specific invariant checkers.
func templateTreeTargets(tb testing.TB) []dicttest.Target {
	lookup := func(name string) func() dict.IntMap {
		f, ok := bench.Lookup(name)
		if !ok {
			tb.Fatalf("structure %q not in bench registry", name)
		}
		return f.New
	}
	return []dicttest.Target{
		{
			Name: "EBST",
			New:  lookup("EBST"),
			Check: func(d dict.IntMap) error {
				return d.(*ebst.Tree[int64, int64]).CheckStructure()
			},
		},
		{
			Name: "RAVL",
			New:  lookup("RAVL"),
			Check: func(d dict.IntMap) error {
				tr := d.(*ravl.Tree[int64, int64])
				if err := tr.CheckStructure(); err != nil {
					return err
				}
				if _, err := tr.RebalanceAll(ravl.DrainCap(tr.Size())); err != nil {
					return err
				}
				return tr.CheckAVL()
			},
		},
		{
			Name: "Chromatic",
			New:  lookup("Chromatic"),
			Check: func(d dict.IntMap) error {
				// The plain chromatic tree rebalances eagerly: at quiescence
				// it must satisfy the full red-black conditions.
				return d.(*chromatic.Tree[int64, int64]).CheckRedBlack()
			},
		},
		{
			Name: "Chromatic6",
			New:  lookup("Chromatic6"),
			Check: func(d dict.IntMap) error {
				// Chromatic6 may retain up to six violations per search path,
				// so only the structural and weight invariants must hold.
				return d.(*chromatic.Tree[int64, int64]).CheckInvariants()
			},
		},
	}
}

// baselineTargets returns the dicttest targets for the evaluation's baseline
// competitors, again resolved through the registry so the suite tests the
// exact factories the harness benchmarks.
func baselineTargets(tb testing.TB) []dicttest.Target {
	lookup := func(name string) func() dict.IntMap {
		f, ok := bench.Lookup(name)
		if !ok {
			tb.Fatalf("structure %q not in bench registry", name)
		}
		return f.New
	}
	return []dicttest.Target{
		{
			Name: "SkipList",
			New:  lookup("SkipList"),
			Check: func(d dict.IntMap) error {
				return d.(*skiplist.List[int64, int64]).CheckInvariants()
			},
		},
		{
			Name: "LockAVL",
			New:  lookup("LockAVL"),
			Check: func(d dict.IntMap) error {
				return d.(*lockavl.Tree[int64, int64]).CheckInvariants()
			},
		},
		{
			Name: "RBSTM",
			New:  lookup("RBSTM"),
			Check: func(d dict.IntMap) error {
				return d.(*stmrbt.Tree[int64, int64]).CheckInvariants()
			},
		},
		{
			Name: "SkipListSTM",
			New:  lookup("SkipListSTM"),
			Check: func(d dict.IntMap) error {
				return d.(*stmskip.List[int64, int64]).CheckInvariants()
			},
		},
		{
			Name: "RBGlobal",
			New:  lookup("RBGlobal"),
			Check: func(d dict.IntMap) error {
				return d.(*seqrbt.Global[int64, int64]).CheckInvariants()
			},
		},
	}
}

// seqRBTTarget is the purely sequential red-black tree (the Figure 9
// reference point). It is not in the registry because it is not safe for
// concurrent use; it runs the sequential and fuzz suites only.
func seqRBTTarget() dicttest.Target {
	return dicttest.Target{
		Name: "SeqRBT",
		New:  func() dict.IntMap { return seqrbt.New() },
		Check: func(d dict.IntMap) error {
			return d.(*seqrbt.Tree[int64, int64]).CheckInvariants()
		},
	}
}

// allConcurrentTargets is every concurrency-safe structure in the registry:
// the template trees and the baselines, under one suite.
func allConcurrentTargets(tb testing.TB) []dicttest.Target {
	return append(templateTreeTargets(tb), baselineTargets(tb)...)
}

// allSequentialTargets additionally includes the sequential red-black tree.
func allSequentialTargets(tb testing.TB) []dicttest.Target {
	return append(allConcurrentTargets(tb), seqRBTTarget())
}

// stringTreeTargets instantiates the generic template trees with string keys
// and values: EBST and RAVL through NewOrdered (natural string ordering),
// Chromatic through NewLess with an explicit comparator, so both
// construction paths are exercised.
func stringTreeTargets() []dicttest.TargetOf[string, string] {
	stringLess := func(a, b string) bool { return a < b }
	return []dicttest.TargetOf[string, string]{
		{
			Name: "EBST/string",
			New:  func() dict.Map[string, string] { return ebst.NewOrdered[string, string]() },
			Less: stringLess,
			Check: func(d dict.Map[string, string]) error {
				return d.(*ebst.Tree[string, string]).CheckStructure()
			},
		},
		{
			Name: "RAVL/string",
			New:  func() dict.Map[string, string] { return ravl.NewOrdered[string, string]() },
			Less: stringLess,
			Check: func(d dict.Map[string, string]) error {
				tr := d.(*ravl.Tree[string, string])
				if err := tr.CheckStructure(); err != nil {
					return err
				}
				if _, err := tr.RebalanceAll(ravl.DrainCap(tr.Size())); err != nil {
					return err
				}
				return tr.CheckAVL()
			},
		},
		{
			Name: "Chromatic/string",
			New: func() dict.Map[string, string] {
				return chromatic.NewLess[string, string](stringLess)
			},
			Less: stringLess,
			Check: func(d dict.Map[string, string]) error {
				return d.(*chromatic.Tree[string, string]).CheckRedBlack()
			},
		},
		{
			Name: "Chromatic6/string",
			New: func() dict.Map[string, string] {
				return chromatic.NewLess[string, string](stringLess, chromatic.WithAllowedViolations(6))
			},
			Less: stringLess,
			Check: func(d dict.Map[string, string]) error {
				return d.(*chromatic.Tree[string, string]).CheckInvariants()
			},
		},
	}
}

// stringBaselineTargets instantiates the five baseline structures with
// string keys and values, mixing the NewOrdered and NewLess construction
// paths so both the devirtualized and the comparator-based walks run.
func stringBaselineTargets() []dicttest.TargetOf[string, string] {
	stringLess := func(a, b string) bool { return a < b }
	return []dicttest.TargetOf[string, string]{
		{
			Name: "SkipList/string",
			New:  func() dict.Map[string, string] { return skiplist.NewOrdered[string, string]() },
			Less: stringLess,
			Check: func(d dict.Map[string, string]) error {
				return d.(*skiplist.List[string, string]).CheckInvariants()
			},
		},
		{
			Name: "LockAVL/string",
			New:  func() dict.Map[string, string] { return lockavl.NewLess[string, string](stringLess) },
			Less: stringLess,
			Check: func(d dict.Map[string, string]) error {
				return d.(*lockavl.Tree[string, string]).CheckInvariants()
			},
		},
		{
			Name: "RBSTM/string",
			New:  func() dict.Map[string, string] { return stmrbt.NewOrdered[string, string]() },
			Less: stringLess,
			Check: func(d dict.Map[string, string]) error {
				return d.(*stmrbt.Tree[string, string]).CheckInvariants()
			},
		},
		{
			Name: "SkipListSTM/string",
			New:  func() dict.Map[string, string] { return stmskip.NewLess[string, string](stringLess) },
			Less: stringLess,
			Check: func(d dict.Map[string, string]) error {
				return d.(*stmskip.List[string, string]).CheckInvariants()
			},
		},
		{
			Name: "RBGlobal/string",
			New:  func() dict.Map[string, string] { return seqrbt.NewGlobalOrdered[string, string]() },
			Less: stringLess,
			Check: func(d dict.Map[string, string]) error {
				return d.(*seqrbt.Global[string, string]).CheckInvariants()
			},
		},
	}
}

// stringSeqRBTTarget is the string-keyed sequential tree (sequential and
// fuzz suites only).
func stringSeqRBTTarget() dicttest.TargetOf[string, string] {
	stringLess := func(a, b string) bool { return a < b }
	return dicttest.TargetOf[string, string]{
		Name: "SeqRBT/string",
		New:  func() dict.Map[string, string] { return seqrbt.NewLess[string, string](stringLess) },
		Less: stringLess,
		Check: func(d dict.Map[string, string]) error {
			return d.(*seqrbt.Tree[string, string]).CheckInvariants()
		},
	}
}

func allStringConcurrentTargets() []dicttest.TargetOf[string, string] {
	return append(stringTreeTargets(), stringBaselineTargets()...)
}

func allStringSequentialTargets() []dicttest.TargetOf[string, string] {
	return append(allStringConcurrentTargets(), stringSeqRBTTarget())
}

// stringKey derives a compact string key from the suite's random stream.
// The space mixes short and long keys sharing prefixes, which stresses the
// comparator path more than fixed-width keys would.
func stringKey(u uint64) string {
	base := fmt.Sprintf("k%02d", u%97)
	if u%3 == 0 {
		return base + "/long-suffix"
	}
	return base
}

func stringVal(u uint64) string { return fmt.Sprintf("v%d", u%1024) }

// TestOrderedMapConformance runs the shared sequential suite - every
// operation, including Successor and Predecessor, mirrored against a model
// map - over every structure in the registry plus the sequential red-black
// tree.
func TestOrderedMapConformance(t *testing.T) {
	for _, tgt := range allSequentialTargets(t) {
		t.Run(tgt.Name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= 3; seed++ {
				dicttest.SequentialConformance(t, tgt, 6000, 200, seed)
			}
			// A tiny key range maximizes structural churn per key.
			dicttest.SequentialConformance(t, tgt, 4000, 8, 99)
		})
	}
}

// TestStringKeyedConformance runs the same sequential suite over the
// string-keyed instantiations of every structure.
func TestStringKeyedConformance(t *testing.T) {
	for _, tgt := range allStringSequentialTargets() {
		t.Run(tgt.Name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= 3; seed++ {
				dicttest.SequentialConformanceKV(t, tgt, 6000, stringKey, stringVal, seed)
			}
			// A tiny key space maximizes structural churn per key.
			dicttest.SequentialConformanceKV(t, tgt, 4000,
				func(u uint64) string { return fmt.Sprintf("k%d", u%8) }, stringVal, 99)
		})
	}
}

// TestStringKeyedConcurrentStress runs the shared concurrent suite over the
// string-keyed instantiations of every concurrency-safe structure, with
// per-goroutine disjoint key prefixes.
func TestStringKeyedConcurrentStress(t *testing.T) {
	for _, tgt := range allStringConcurrentTargets() {
		t.Run(tgt.Name, func(t *testing.T) {
			dicttest.ConcurrentStressKV(t, tgt, 4, 4000,
				func(g int, u uint64) string { return fmt.Sprintf("g%d/%03d", g, u%150) },
				stringVal)
		})
	}
}

// TestOrderedMapConcurrentStress runs the shared concurrent suite with the
// per-structure invariant checks at quiescence over every concurrency-safe
// structure in the registry.
func TestOrderedMapConcurrentStress(t *testing.T) {
	for _, tgt := range allConcurrentTargets(t) {
		t.Run(tgt.Name, func(t *testing.T) {
			dicttest.ConcurrentStress(t, tgt, 4, 4000, 150)
		})
	}
}

// TestHotKeyOverwriteStress hammers one key with concurrent overwrites while
// the same key (and its neighbours) are inserted and deleted, over every
// concurrency-safe structure in the registry. This is the targeted stress
// for the SCX-free in-place overwrite: values observed for the hot key must
// always be ones a writer actually published, and a successful delete at
// quiescence must never be undone by a racing overwrite (no lost
// finalization / resurrection). It runs under -race in CI (the race job's
// test pattern matches "Stress").
func TestHotKeyOverwriteStress(t *testing.T) {
	for _, tgt := range allConcurrentTargets(t) {
		t.Run(tgt.Name, func(t *testing.T) {
			dicttest.HotKeyStress(t, tgt, 4, 6000)
		})
	}
}

// TestReclamationChurnStress is the epoch-reclamation torture test: several
// writers insert and delete the SAME small key window flat out - so every
// leaf and internal node backing the window is retired, passes through the
// grace period and is recycled continuously - while readers walk the window
// with Get, Successor chains and RangeScan. Readers assert that every key
// and value they observe is one the workload could legitimately contain; a
// recycled-too-early node surfaces as a foreign key, an unpublished value, a
// non-monotonic walk, or (under -tags reclaimcheck, which CI also runs) a
// deterministic generation-check panic in the read path. It runs under -race
// in CI (the race job's test pattern matches "Stress").
func TestReclamationChurnStress(t *testing.T) {
	for _, tgt := range allConcurrentTargets(t) {
		t.Run(tgt.Name, func(t *testing.T) {
			dicttest.ChurnStress(t, tgt, 4, 8000)
		})
	}
}

// TestHotKeyOverwriteStressBoxedValues repeats the hot-key stress with
// string values on the template trees and the two rewritten baselines, so
// the boxed (pointer) representation of the value cells - the fallback for
// non-word-sized value types - goes through the same overwrite races as the
// unboxed one.
func TestHotKeyOverwriteStressBoxedValues(t *testing.T) {
	targets := []dicttest.TargetOf[int64, string]{
		{
			Name: "Chromatic/boxed",
			New:  func() dict.Map[int64, string] { return chromatic.NewOrdered[int64, string]() },
			Less: func(a, b int64) bool { return a < b },
		},
		{
			Name: "EBST/boxed",
			New:  func() dict.Map[int64, string] { return ebst.NewOrdered[int64, string]() },
			Less: func(a, b int64) bool { return a < b },
		},
		{
			Name: "SkipList/boxed",
			New:  func() dict.Map[int64, string] { return skiplist.NewOrdered[int64, string]() },
			Less: func(a, b int64) bool { return a < b },
		},
		{
			Name: "LockAVL/boxed",
			New:  func() dict.Map[int64, string] { return lockavl.NewOrdered[int64, string]() },
			Less: func(a, b int64) bool { return a < b },
		},
	}
	const hot = int64(1 << 20)
	neighbors := []int64{hot - 2, hot - 1, hot + 1, hot + 2}
	for _, tgt := range targets {
		t.Run(tgt.Name, func(t *testing.T) {
			dicttest.HotKeyStressKV(t, tgt, 4, 4000, hot, neighbors,
				func(w, i int) string { return fmt.Sprintf("w%d/%d", w, i) },
				"churn")
		})
	}
}

// FuzzOrderedMapAgainstModel feeds an arbitrary byte stream, decoded as
// (opcode, key, value) triples, to every structure - template trees and
// baselines, both the int64 registry instantiations and the string-keyed
// generic ones - and compares each result with the model map; the invariant
// checkers run at the end of every input. Run with
// `go test -fuzz=FuzzOrderedMapAgainstModel .` for continuous fuzzing; the
// seed corpus below runs as part of `go test`.
func FuzzOrderedMapAgainstModel(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2})
	f.Add([]byte{0, 5, 1, 0, 5, 2, 1, 5, 0})
	f.Add([]byte{0, 1, 1, 0, 2, 2, 0, 3, 3, 0, 4, 4, 1, 2, 0, 3, 1, 0, 4, 9, 0})
	// An ascending then descending churn that forces rebalancing.
	var churn []byte
	for i := byte(0); i < 60; i++ {
		churn = append(churn, 0, i, i)
	}
	for i := byte(0); i < 60; i += 2 {
		churn = append(churn, 1, i, 0)
	}
	for i := byte(60); i > 0; i-- {
		churn = append(churn, 3, i, 0, 4, i, 0)
	}
	f.Add(churn)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*5000 {
			t.Skip("input larger than the op budget")
		}
		for _, tgt := range allSequentialTargets(t) {
			dicttest.FuzzOps(t, tgt, data)
		}
		for _, tgt := range allStringSequentialTargets() {
			dicttest.FuzzOpsKV(t, tgt, stringKey, stringVal, data)
		}
	})
}

// TestRegistryCoversAllStructures pins the registry contents the harness
// and the figures rely on - the paper's own algorithms (chromatic trees),
// the engine-based trees (EBST, RAVL) and the competitors - and requires
// every one of them to be an ordered map: since the generic unification,
// Successor/Predecessor are part of every structure's contract.
func TestRegistryCoversAllStructures(t *testing.T) {
	for _, name := range []string{"Chromatic", "Chromatic6", "RAVL", "EBST", "SkipList", "LockAVL", "RBSTM", "SkipListSTM", "RBGlobal"} {
		f, ok := bench.Lookup(name)
		if !ok {
			t.Errorf("registry is missing %q", name)
			continue
		}
		if _, ok := f.New().(dict.IntOrderedMap); !ok {
			t.Errorf("%s does not implement dict.OrderedMap", name)
		}
	}
	if err := quickSmoke(); err != nil {
		t.Fatal(err)
	}
}

// TestRegistryAndFigure8StayInSync is the parity test between the benchmark
// registry and the Figure-8 structure list: every experiment's default grid
// must cover exactly the registered structures, every listed name must
// resolve through Lookup, and every factory must construct a structure that
// reports the name it is registered under.
func TestRegistryAndFigure8StayInSync(t *testing.T) {
	if !reflect.DeepEqual(bench.Figure8Structures(), bench.Names()) {
		t.Fatalf("Figure8Structures() = %v, registry Names() = %v",
			bench.Figure8Structures(), bench.Names())
	}
	for _, name := range bench.Figure8Structures() {
		f, ok := bench.Lookup(name)
		if !ok {
			t.Errorf("Figure-8 structure %q does not resolve through Lookup", name)
			continue
		}
		d := f.New()
		named, ok := d.(dict.Named)
		if !ok {
			t.Errorf("%s does not implement dict.Named", name)
			continue
		}
		if got := named.Name(); got != name {
			t.Errorf("factory %q constructs a structure reporting Name() = %q", name, got)
		}
	}
	// The sequential reference factory stays out of the concurrent grid.
	seq := bench.SequentialRBTFactory()
	for _, name := range bench.Figure8Structures() {
		if name == seq.Name {
			t.Errorf("sequential-only %q must not be in the Figure-8 grid", seq.Name)
		}
	}
}

// TestSnapshotConformance runs the shared snapshot suite - frozen views that
// never observe post-snapshot updates (including in-place overwrites),
// consistent-cut checks under concurrent churn, and SnapshotDiff against the
// model diff - over every structure in the registry. Structures without O(1)
// snapshots (the baselines) are skipped by the suite itself, so this test
// also documents exactly which structures are Snapshotters.
func TestSnapshotConformance(t *testing.T) {
	for _, tgt := range allConcurrentTargets(t) {
		t.Run(tgt.Name, func(t *testing.T) {
			dicttest.SnapshotSuite(t, tgt)
		})
	}
}

// TestStringKeyedSnapshotConformance runs the snapshot suite over the
// string-keyed instantiations of the template trees: the frozen walk and the
// structural diff must not assume integer keys. The key derivation is
// injective (unlike stringKey) because the consistent-cut check needs
// per-writer disjoint keys.
func TestStringKeyedSnapshotConformance(t *testing.T) {
	snapKey := func(u uint64) string { return fmt.Sprintf("s%06d", u%100000) }
	for _, tgt := range allStringConcurrentTargets() {
		t.Run(tgt.Name, func(t *testing.T) {
			dicttest.SnapshotSuiteKV(t, tgt, snapKey, stringVal)
		})
	}
}

// TestSnapshotAdapterFallback pins the semantics of dict.AdaptSnapshot, the
// weakly consistent fallback for structures without native snapshots: views
// must report Consistent() == false and Version() == 0, delegate Get to the
// live map, and produce ordered scans.
func TestSnapshotAdapterFallback(t *testing.T) {
	l := skiplist.NewOrdered[int64, int64]()
	for i := int64(0); i < 100; i++ {
		l.Insert(i*2, i)
	}
	sn := dict.AdaptSnapshot[int64, int64](l, func(a, b int64) bool { return a < b })
	view := sn.Snapshot()
	defer view.Release()
	if view.Consistent() {
		t.Fatal("adapter view claims to be consistent")
	}
	if view.Version() != 0 {
		t.Fatalf("adapter view Version() = %d, want 0", view.Version())
	}
	if v, ok := view.Get(10); !ok || v != 5 {
		t.Fatalf("adapter Get(10) = (%d,%v), want (5,true)", v, ok)
	}
	var keys []int64
	n := view.Ascend(func(k, v int64) bool {
		keys = append(keys, k)
		return true
	})
	if n != 100 || len(keys) != 100 {
		t.Fatalf("adapter Ascend visited %d keys, want 100", n)
	}
	for i, k := range keys {
		if k != int64(i*2) {
			t.Fatalf("adapter Ascend[%d] = %d, want %d", i, k, i*2)
		}
	}
	count := 0
	view.RangeScan(10, 20, func(k, v int64) bool {
		count++
		return true
	})
	if count != 6 {
		t.Fatalf("adapter RangeScan(10,20) visited %d keys, want 6", count)
	}
	// Adapter views are live: they see later updates (weak consistency).
	l.Insert(1, 999)
	if v, ok := view.Get(1); !ok || v != 999 {
		t.Fatalf("adapter view missed a live update: (%d,%v)", v, ok)
	}
}

// successorer is the Successor query the planted stepped scan is built on.
type successorer interface {
	Successor(key int64) (int64, int64, bool)
}

// atomicScanner is the scan surface of the LLX/SCX trees that
// TestRangeScanAtomicConcurrent checks.
type atomicScanner interface {
	dict.IntMap
	successorer
	RangeScan(lo, hi int64, fn func(k, v int64) bool) int
	Ascend(fn func(k, v int64) bool) int
}

// checkScanRun is the atomicity checker of TestRangeScanAtomicConcurrent.
// The writer there keeps the key set a contiguous window with value == key,
// so a scan that observed one instant reports a run of consecutive keys with
// value == key. A scan assembled from steps at different instants can skip
// keys the window slid past between two steps, which shows as a gap.
func checkScanRun(keys, vals []int64) error {
	for i, k := range keys {
		if vals[i] != k {
			return fmt.Errorf("key %d reported with value %d", k, vals[i])
		}
		if i > 0 && k != keys[i-1]+1 {
			return fmt.Errorf("scan %v is not a run of consecutive keys (gap after %d)", keys, keys[i-1])
		}
	}
	return nil
}

// steppedScan is the planted non-atomic scan: the per-key Successor loop the
// trees used before scans captured a snapshot, with a hook between steps.
type steppedScan struct {
	succ    successorer
	between func()
}

func (s steppedScan) RangeScan(lo, hi int64, fn func(k, v int64) bool) int {
	n := 0
	for k, v, ok := s.succ.Successor(lo - 1); ok && k <= hi; k, v, ok = s.succ.Successor(k) {
		n++
		if !fn(k, v) {
			break
		}
		s.between()
	}
	return n
}

// TestRangeScanAtomicConcurrent checks that RangeScan and Ascend on every
// LLX/SCX tree are atomic, not just per-step linearizable. A writer slides a
// contiguous key window [a, b] to the right (insert b+1, then delete a) while
// readers scan it. At any instant the window holds width or width+1
// consecutive keys, so every scan must report a run of consecutive keys with
// value == key; an Ascend must report width or width+1 keys, and a RangeScan
// over [a0, a0+width-1] for an earlier-read window start a0 must end at its
// upper bound (the window's top only grows). First the checker is shown to
// have teeth: the old Successor loop, with the window slid between its steps,
// must be flagged. Under -tags noepoch scans are that loop, so only the
// planted check runs.
func TestRangeScanAtomicConcurrent(t *testing.T) {
	const width = 16
	slides := 5000
	if testing.Short() {
		slides = 1000
	}
	for _, tgt := range templateTreeTargets(t) {
		t.Run(tgt.Name, func(t *testing.T) {
			d, ok := tgt.New().(atomicScanner)
			if !ok {
				t.Fatalf("%s has no RangeScan/Ascend", tgt.Name)
			}
			for k := int64(0); k < width; k++ {
				d.Insert(k, k)
			}
			var lo atomic.Int64 // the window is [lo, lo+width-1] between slides
			slide := func() {
				a := lo.Load()
				d.Insert(a+width, a+width)
				d.Delete(a)
				lo.Store(a + 1)
			}

			planted := steppedScan{succ: d, between: func() { slide(); slide() }}
			var keys, vals []int64
			collect := func(k, v int64) bool {
				keys, vals = append(keys, k), append(vals, v)
				return true
			}
			a0 := lo.Load()
			planted.RangeScan(a0, a0+width-1, collect)
			if checkScanRun(keys, vals) == nil {
				t.Fatalf("checker accepted the stepped Successor scan %v, which the window slid under", keys)
			}
			if !epoch.Enabled {
				t.Skip("scans fall back to the per-step Successor loop without epoch reclamation (noepoch build)")
			}

			var wg sync.WaitGroup
			var done atomic.Bool
			var scans atomic.Int64
			errs := make(chan error, 2)
			for r := 0; r < 2; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var keys, vals []int64
					collect := func(k, v int64) bool {
						keys, vals = append(keys, k), append(vals, v)
						return true
					}
					for !done.Load() {
						keys, vals = keys[:0], vals[:0]
						a0 := lo.Load()
						hi := a0 + width - 1
						d.RangeScan(a0, hi, collect)
						err := checkScanRun(keys, vals)
						if err == nil && len(keys) > 0 && keys[len(keys)-1] != hi {
							err = fmt.Errorf("RangeScan(%d, %d) = %v stops short of the window top", a0, hi, keys)
						}
						if err == nil {
							keys, vals = keys[:0], vals[:0]
							d.Ascend(collect)
							if err = checkScanRun(keys, vals); err == nil && len(keys) != width && len(keys) != width+1 {
								err = fmt.Errorf("Ascend reported %d keys %v, want %d or %d", len(keys), keys, width, width+1)
							}
						}
						if err != nil {
							errs <- err
							return
						}
						scans.Add(1)
					}
				}()
			}
			for i := 0; i < slides; i++ {
				slide()
			}
			done.Store(true)
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if scans.Load() == 0 {
				t.Fatal("readers completed no scans")
			}
			t.Logf("%d scan pairs over %d window slides, all atomic", scans.Load(), slides)
		})
	}
}

// TestChromaticLoadOrStore pins the semantics of the insert-if-absent
// primitive the generic stack added for shared per-key state (see
// examples/wordindex): exactly one of the racing stores wins and every
// later call observes the winner.
func TestChromaticLoadOrStore(t *testing.T) {
	tr := chromatic.NewOrdered[string, int64]()
	if v, loaded := tr.LoadOrStore("a", 1); loaded || v != 1 {
		t.Fatalf("first LoadOrStore = (%d,%v), want (1,false)", v, loaded)
	}
	if v, loaded := tr.LoadOrStore("a", 2); !loaded || v != 1 {
		t.Fatalf("second LoadOrStore = (%d,%v), want (1,true)", v, loaded)
	}
	done := make(chan int64, 8)
	for g := 0; g < 8; g++ {
		go func(g int64) {
			v, _ := tr.LoadOrStore("contended", g)
			done <- v
		}(int64(g))
	}
	first := <-done
	for i := 0; i < 7; i++ {
		if v := <-done; v != first {
			t.Fatalf("racing LoadOrStore observed both %d and %d", first, v)
		}
	}
	if v, ok := tr.Get("contended"); !ok || v != first {
		t.Fatalf("Get after racing LoadOrStore = (%d,%v), want (%d,true)", v, ok, first)
	}
}

// quickSmoke double-checks that factories return independent instances.
func quickSmoke() error {
	f, _ := bench.Lookup("RAVL")
	a, b := f.New(), f.New()
	a.Insert(1, 1)
	if _, ok := b.Get(1); ok {
		return fmt.Errorf("factories share state")
	}
	return nil
}
