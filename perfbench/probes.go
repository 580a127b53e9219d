package main

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chromatic"
	"repro/internal/epoch"
	"repro/internal/llxscx"
	"repro/internal/vcell"
	"repro/internal/workload"
)

// The probes time one layer's public functions at a time, from this
// package, with numWorkers goroutines at once. Calls cheaper than a clock
// read (LLX, VLX, Pin/Unpin, Retire, publish, Next) are timed in batches and
// reported as the median batch time per call; the others are timed per call
// and reported as the median, which includes one clock read.

const (
	probeFor   = 100 * time.Millisecond
	probeBatch = 256
)

// onWorkers runs fn(id) on numWorkers goroutines and waits for them.
func onWorkers(fn func(id int)) {
	var wg sync.WaitGroup
	for i := 0; i < numWorkers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i)
		}()
	}
	wg.Wait()
}

// batchProbe calls batch (which performs probeBatch calls) on every worker
// for probeFor and returns the median ns per call.
func batchProbe(batch func(id int)) float64 {
	var mu sync.Mutex
	var all []float64
	onWorkers(func(id int) {
		var mine []float64
		for end := time.Now().Add(probeFor); time.Now().Before(end); {
			t0 := time.Now()
			batch(id)
			mine = append(mine, float64(time.Since(t0))/probeBatch)
		}
		mu.Lock()
		all = append(all, mine...)
		mu.Unlock()
	})
	return median(all)
}

// pnode is a bench-local Data-record shaped like a tree node: a record and
// two child pointers.
type pnode struct {
	rec         llxscx.Record[pnode]
	left, right atomic.Pointer[pnode]
}

func (n *pnode) LLXRecord() *llxscx.Record[pnode] { return &n.rec }
func (n *pnode) NumMutable() int                  { return 2 }
func (n *pnode) Mutable(i int) *atomic.Pointer[pnode] {
	if i == 0 {
		return &n.left
	}
	return &n.right
}

// freePNode is the retire callback, the same hand-back the trees perform: it
// releases the record's last descriptor so the descriptor pool recycles.
func freePNode(_ *epoch.Guard, obj any) bool {
	llxscx.ReleaseRecord(&obj.(*pnode).rec)
	return true
}

func newPInternal() *pnode {
	n := &pnode{}
	n.left.Store(&pnode{})
	n.right.Store(&pnode{})
	return n
}

// scxProbe applies Insert1- and Delete-shaped SCXPs below anchors, the way
// the chromatic tree does: an anchor whose left child is a leaf gets that
// leaf replaced by an internal node with two leaves (2 LLX, 1 finalized), an
// anchor whose left child is internal gets it replaced by a leaf (4 LLX, 3
// finalized).
type scxProbe struct {
	pool *llxscx.Pool[pnode]
	base time.Time
}

type scxCounts struct {
	ins, del          hist
	attempts, commits int64
}

func (p *scxProbe) step(anchor *pnode, c *scxCounts) {
	g := epoch.Pin()
	defer epoch.Unpin(g)
	var v [llxscx.MaxV]llxscx.Linked[pnode]
	var r [llxscx.MaxV]*pnode
	var st llxscx.Status
	if v[0], st = llxscx.LLX(anchor); st != llxscx.Snapshot {
		return
	}
	child := v[0].Child(0)
	if v[1], st = llxscx.LLX(child); st != llxscx.Snapshot {
		return
	}
	c.attempts++
	if v[1].Child(0) == nil {
		n := newPInternal()
		r[0] = child
		t0 := time.Since(p.base)
		ok := llxscx.SCXP(g, p.pool, &v, 2, &r, 1, &anchor.left, child, n)
		c.ins.record(int64(time.Since(p.base) - t0))
		if ok {
			c.commits++
			epoch.Retire(g, child, freePNode)
		}
		return
	}
	a, b := v[1].Child(0), v[1].Child(1)
	if v[2], st = llxscx.LLX(a); st != llxscx.Snapshot {
		return
	}
	if v[3], st = llxscx.LLX(b); st != llxscx.Snapshot {
		return
	}
	n := &pnode{}
	r[0], r[1], r[2] = child, a, b
	t0 := time.Since(p.base)
	ok := llxscx.SCXP(g, p.pool, &v, 4, &r, 3, &anchor.left, child, n)
	c.del.record(int64(time.Since(p.base) - t0))
	if ok {
		c.commits++
		for _, x := range r[:3] {
			epoch.Retire(g, x, freePNode)
		}
	}
}

func newAnchor() *pnode {
	a := &pnode{}
	a.left.Store(&pnode{})
	return a
}

// probeLLXSCX times LLX and VLX on quiescent records, then the insert- and
// delete-shaped SCXPs first on disjoint anchors (one per worker) and then on
// one shared anchor. The commit ratio is the shared phase's: on disjoint
// anchors every SCXP commits.
func probeLLXSCX() (llx, vlx, scxIns, scxDel, commitRatio float64) {
	p := &scxProbe{pool: llxscx.NewPool[pnode](), base: time.Now()}
	anchors := [numWorkers]*pnode{}
	for i := range anchors {
		anchors[i] = newAnchor()
	}
	llx = batchProbe(func(id int) {
		for i := 0; i < probeBatch; i++ {
			llxscx.LLX(anchors[id])
		}
	})
	vlx = batchProbe(func(id int) {
		var v [llxscx.MaxV]llxscx.Linked[pnode]
		v[0], _ = llxscx.LLX(anchors[id])
		v[1], _ = llxscx.LLX(v[0].Child(0))
		for i := 0; i < probeBatch; i++ {
			llxscx.VLXFixed(&v, 2)
		}
	})
	var counts [numWorkers]scxCounts
	onWorkers(func(id int) {
		for end := time.Now().Add(probeFor); time.Now().Before(end); {
			p.step(anchors[id], &counts[id])
		}
	})
	var shared [numWorkers]scxCounts
	anchor := newAnchor()
	onWorkers(func(id int) {
		for end := time.Now().Add(probeFor); time.Now().Before(end); {
			p.step(anchor, &shared[id])
		}
	})
	var ins, del hist
	var attempts, commits int64
	for i := range counts {
		ins.merge(&counts[i].ins)
		ins.merge(&shared[i].ins)
		del.merge(&counts[i].del)
		del.merge(&shared[i].del)
		attempts += shared[i].attempts
		commits += shared[i].commits
	}
	return llx, vlx, ins.quantile(0.5), del.quantile(0.5), float64(commits) / float64(attempts)
}

// probeVCell times the overwrite bracket (BeginPublish, Swap, EndPublish)
// with both workers publishing into one hot cell, then DrainPublishers on
// one worker while the other keeps publishing.
func probeVCell() (publish, drain float64) {
	cell := vcell.New[int64](0)
	publish = batchProbe(func(id int) {
		for i := 0; i < probeBatch; i++ {
			cell.BeginPublish()
			cell.Swap(int64(i))
			cell.EndPublish()
		}
	})
	var stop atomic.Bool
	var h hist
	base := time.Now()
	onWorkers(func(id int) {
		if id != 0 {
			for !stop.Load() {
				cell.BeginPublish()
				cell.Swap(int64(id))
				cell.EndPublish()
			}
			return
		}
		for end := time.Now().Add(probeFor); time.Now().Before(end); {
			t0 := time.Since(base)
			cell.DrainPublishers()
			h.record(int64(time.Since(base) - t0))
		}
		stop.Store(true)
	})
	return publish, h.quantile(0.5)
}

func freeNothing(*epoch.Guard, any) bool { return true }

// probeEpoch times Pin+Unpin, and Retire amortised over a batch under one
// pin (the drain and advance work a retire triggers included).
func probeEpoch() (pinUnpin, retire float64) {
	pinUnpin = batchProbe(func(int) {
		for i := 0; i < probeBatch; i++ {
			epoch.Unpin(epoch.Pin())
		}
	})
	objs := make([][probeBatch]*int64, numWorkers)
	for i := range objs {
		for j := range objs[i] {
			objs[i][j] = new(int64)
		}
	}
	retire = batchProbe(func(id int) {
		g := epoch.Pin()
		for _, o := range objs[id] {
			epoch.Retire(g, o, freeNothing)
		}
		epoch.Unpin(g)
	})
	return pinUnpin, retire
}

// probeSnapshot times capture, a scan of scanSpan keys on the frozen view,
// and release, on the measured tree after its window.
func probeSnapshot(tr *chromatic.Tree[int64, int64], spec workloadSpec, seed int64) (capture, scan, release float64) {
	var hc, hs, hr [numWorkers]hist
	base := time.Now()
	onWorkers(func(id int) {
		gen := workload.NewGeneratorDist(spec.mix, spec.keyRange, spec.dist, seed+int64(id))
		visit := func(int64, int64) bool { return true }
		for end := time.Now().Add(probeFor); time.Now().Before(end); {
			_, key := gen.Next()
			t0 := time.Since(base)
			v := tr.Snapshot()
			t1 := time.Since(base)
			v.RangeScan(key, key+scanSpan-1, visit)
			t2 := time.Since(base)
			v.Release()
			t3 := time.Since(base)
			hc[id].record(int64(t1 - t0))
			hs[id].record(int64(t2 - t1))
			hr[id].record(int64(t3 - t2))
		}
	})
	for i := 1; i < numWorkers; i++ {
		hc[0].merge(&hc[i])
		hs[0].merge(&hs[i])
		hr[0].merge(&hr[i])
	}
	return hc[0].quantile(0.5), hs[0].quantile(0.5), hr[0].quantile(0.5)
}

// probeWorkload times the generator the workers draw from.
func probeWorkload(spec workloadSpec, seed int64) float64 {
	gens := make([]*workload.Generator, numWorkers)
	for i := range gens {
		gens[i] = workload.NewGeneratorDist(spec.mix, spec.keyRange, spec.dist, seed+int64(i))
	}
	return batchProbe(func(id int) {
		for i := 0; i < probeBatch; i++ {
			gens[id].Next()
		}
	})
}
