package main

import (
	"context"
	"fmt"
	"runtime/pprof"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/dict"
	"repro/internal/epoch"
	"repro/internal/workload"
)

// store is what a window drives: the dictionary calls the workload issues
// and the size the quiescent check compares. *chromatic.Tree[int64, int64]
// satisfies it; the self-tests wrap it to plant faults.
type store interface {
	dict.IntMap
	dict.IntRanger
	Size() int
}

// Operation classes. Inserts are split by the returned existed flag and
// deletes by hit or miss, because each half runs a different path through
// the tree (Insert1 SCX versus in-place publish; Delete SCX versus a plain
// search).
const (
	clsGet = iota
	clsInsertNew
	clsOverwrite
	clsDeleteHit
	clsDeleteMiss
	clsScan
	numClasses
)

var classNames = [numClasses]string{"get", "insert_new", "overwrite", "delete_hit", "delete_miss", "rangescan"}

// numSlices splits a measured window into equal slices; throughput and the
// latency percentiles are medians over the slices, so a burst of
// interference from outside the process moves at most a few of them.
const numSlices = 10

// spanEvery keeps every spanEvery'th operation's span in a traced window,
// and maxSpans caps each worker's buffer, so the in-memory record stays a
// few MB however fast the tree runs.
const (
	spanEvery = 256
	maxSpans  = 1 << 16
)

// A span is one tree call as the traced window saw it.
type span struct {
	start, end    int64 // ns since the run's clock origin
	worker, class uint8
}

// window is one measured interval on the run's monotonic clock. Operations
// that start before start are warm-up: executed and checked, not measured.
type window struct {
	base       time.Time
	start, end int64
	sliceLen   int64
}

func newWindow(base time.Time, warmup, length time.Duration) window {
	start := int64(time.Since(base) + warmup)
	return window{base: base, start: start, end: start + int64(length), sliceLen: int64(length) / numSlices}
}

// winStats is what one worker measured in one window.
type winStats struct {
	hists    [numSlices][numClasses]hist
	done     [numSlices]int64
	busy     [numClasses]int64
	scanKeys int64
	spans    []span // nil when untraced
}

// worker is one closed-loop client. Its counters cover every operation it
// issued, warm-up included, because the quiescent size check needs them all.
type worker struct {
	id       int
	gen      *workload.Generator
	rng      uint64
	spec     workloadSpec
	check    scanCheck
	visit    func(k, v int64) bool
	attempts int64
	failed   int64
	inserted int64 // inserts that returned !existed
	deleted  int64 // deletes that returned existed
}

func newWorker(id int, spec workloadSpec, seed int64) *worker {
	w := &worker{
		id:   id,
		gen:  workload.NewGeneratorDist(spec.mix, spec.keyRange, spec.dist, seed),
		rng:  uint64(seed) | 1,
		spec: spec,
	}
	w.gen.SetScanSpan(scanSpan)
	w.visit = w.check.visit
	return w
}

// scanCheck validates one scan as it runs: keys strictly ascending inside
// [lo, hi], each with value == key.
type scanCheck struct {
	hi, last int64
	n        int
	bad      bool
}

func (c *scanCheck) reset(lo, hi int64) { *c = scanCheck{hi: hi, last: lo - 1} }

func (c *scanCheck) visit(k, v int64) bool {
	if k <= c.last || k > c.hi || v != k {
		c.bad = true
	}
	c.last = k
	c.n++
	return true
}

// next draws the next operation: the generator's, except for the extra
// share that is turned into a Get or a scan of the same key.
func (w *worker) next() (workload.Op, int64) {
	op, key := w.gen.Next()
	if w.spec.extraGets+w.spec.extraScans != 0 {
		w.rng ^= w.rng << 13
		w.rng ^= w.rng >> 7
		w.rng ^= w.rng << 17
		switch r := w.rng % 10000; {
		case r < w.spec.extraGets:
			op = workload.OpGet
		case r < w.spec.extraGets+w.spec.extraScans:
			op = workload.OpScan
		}
	}
	return op, key
}

// do performs one operation, checks its result and returns its class.
func (w *worker) do(d store, op workload.Op, key int64) (cls int, bad bool) {
	switch op {
	case workload.OpInsert:
		old, existed := d.Insert(key, key)
		if !existed {
			w.inserted++
			return clsInsertNew, false
		}
		return clsOverwrite, old != key
	case workload.OpDelete:
		old, existed := d.Delete(key)
		if !existed {
			return clsDeleteMiss, false
		}
		w.deleted++
		return clsDeleteHit, old != key
	case workload.OpScan:
		hi := key + scanSpan - 1
		w.check.reset(key, hi)
		n := d.RangeScan(key, hi, w.visit)
		return clsScan, w.check.bad || n != w.check.n
	default:
		v, ok := d.Get(key)
		return clsGet, ok && v != key
	}
}

// run issues operations back to back until one would start after win.end.
func (w *worker) run(d store, win window, st *winStats) {
	slice, next := 0, win.start+win.sliceLen
	for {
		op, key := w.next()
		t0 := int64(time.Since(win.base))
		if t0 >= win.end {
			return
		}
		cls, bad := w.do(d, op, key)
		t1 := int64(time.Since(win.base))
		w.attempts++
		if bad {
			w.failed++
		}
		if t0 < win.start {
			continue
		}
		for t0 >= next && slice < numSlices-1 {
			slice++
			next += win.sliceLen
		}
		lat := t1 - t0
		st.hists[slice][cls].record(lat)
		st.done[slice]++
		st.busy[cls] += lat
		if cls == clsScan {
			st.scanKeys += int64(w.check.n)
		}
		if st.spans != nil && w.attempts%spanEvery == 0 && len(st.spans) < cap(st.spans) {
			st.spans = append(st.spans, span{start: t0, end: t1, worker: uint8(w.id), class: uint8(cls)})
		}
	}
}

// runWindow runs every worker through win and waits for all of them. Each
// worker goroutine carries pprof labels naming the workload and the worker.
func runWindow(d store, ws []*worker, win window, traced bool) []*winStats {
	stats := make([]*winStats, len(ws))
	var wg sync.WaitGroup
	for i, w := range ws {
		st := &winStats{}
		if traced {
			st.spans = make([]span, 0, maxSpans)
		}
		stats[i] = st
		labels := pprof.Labels("workload", w.spec.name, "worker", strconv.Itoa(w.id))
		wg.Add(1)
		go func() {
			defer wg.Done()
			pprof.Do(context.Background(), labels, func(context.Context) { w.run(d, win, st) })
		}()
	}
	wg.Wait()
	return stats
}

// quiescentCheck runs once no worker is running. It returns the number of
// failures it found (a size mismatch counts each missing or extra key) and
// a description of each.
func quiescentCheck(d store, prefill int, ws []*worker) (failed int64, problems []string) {
	want := int64(prefill)
	for _, w := range ws {
		want += w.inserted - w.deleted
	}
	if got := int64(d.Size()); got != want {
		diff := got - want
		if diff < 0 {
			diff = -diff
		}
		failed += diff
		problems = append(problems, fmt.Sprintf("Size() = %d, want prefill %d + new inserts - hit deletes = %d", got, prefill, want))
	}
	if rb, ok := d.(interface{ CheckRedBlack() error }); ok {
		if err := rb.CheckRedBlack(); err != nil {
			failed++
			problems = append(problems, "CheckRedBlack: "+err.Error())
		}
	}
	if s := epoch.Stats().StalledSlots; s != 0 {
		failed++
		problems = append(problems, fmt.Sprintf("epoch.Stats().StalledSlots = %d, want 0", s))
	}
	return failed, problems
}

// throughputMops is the median over slices of the operations started in a
// slice per second of slice, in millions.
func throughputMops(stats []*winStats, win window) float64 {
	per := make([]float64, numSlices)
	for s := range per {
		var ops int64
		for _, st := range stats {
			ops += st.done[s]
		}
		per[s] = float64(ops) * 1e3 / float64(win.sliceLen)
	}
	return median(per)
}

// latency returns the q-quantile of the given classes as the median of the
// per-slice quantiles, and the total sample count.
func latency(stats []*winStats, q float64, classes ...int) (float64, int64) {
	var per []float64
	var n int64
	for s := 0; s < numSlices; s++ {
		var h hist
		for _, st := range stats {
			for _, c := range classes {
				h.merge(&st.hists[s][c])
			}
		}
		if h.n > 0 {
			per = append(per, h.quantile(q))
			n += int64(h.n)
		}
	}
	return median(per), n
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
