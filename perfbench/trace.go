package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"repro/internal/chromatic"
	"repro/internal/epoch"
)

// The traced run's per-layer metrics: the chromatic layer from the traced
// window's spans and the counters read at its boundaries, the other layers
// from the probes in probes.go.

// treeCounts are the tree's cumulative Stats, read at a window boundary.
type treeCounts struct{ ins1, ins2, del, rebal, attempts, fails int64 }

func readTree(tr *chromatic.Tree[int64, int64]) treeCounts {
	s := tr.Stats()
	return treeCounts{s.Insert1.Load(), s.Insert2.Load(), s.Delete.Load(), s.RebalanceTotal(), s.RebalanceAttempts.Load(), s.RebalanceFails.Load()}
}

// runtimeMetricNames are read at the traced window's boundaries. The
// /cpu/classes metrics advance only when a GC cycle ends, so GC CPU is taken
// as a share of the window's GOMAXPROCS capacity rather than of the
// /cpu/classes total.
var runtimeMetricNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readRuntime() []float64 {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := make([]float64, len(s))
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			v[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			v[i] = s[i].Value.Float64()
		}
	}
	return v
}

// epochSampler records the largest epoch.Stats().Pending seen while it runs.
type epochSampler struct {
	stop, done chan struct{}
	max        int64
}

func startEpochSampler() *epochSampler {
	s := &epochSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				s.max = max(s.max, epoch.Stats().Pending)
			}
		}
	}()
	return s
}

// finish stops the sampler, waits for it and returns the maximum.
func (s *epochSampler) finish() int64 {
	close(s.stop)
	<-s.done
	return s.max
}

// tracedWindow is the traced half of a traced run with the counters read
// at its boundaries.
type tracedWindow struct {
	win          window
	stats        []*winStats
	tree0, tree1 treeCounts
	ep0, ep1     epoch.Report
	rt0, rt1     []float64
	pendingMax   int64
}

func runTraced(tr *chromatic.Tree[int64, int64], ws []*worker, base time.Time, length time.Duration) *tracedWindow {
	t := &tracedWindow{tree0: readTree(tr), ep0: epoch.Stats(), rt0: readRuntime()}
	sampler := startEpochSampler()
	t.win = newWindow(base, 0, length)
	t.stats = runWindow(tr, ws, t.win, true)
	t.pendingMax = sampler.finish()
	t.tree1, t.ep1, t.rt1 = readTree(tr), epoch.Stats(), readRuntime()
	return t
}

// metrics derives the chromatic layer's metrics from the window's per-call
// spans (p50s are medians over slices, like the end-to-end latencies) and
// the counters, with the tree quiescent. untracedMops is the throughput of
// the run's untraced half.
func (t *tracedWindow) metrics(tr *chromatic.Tree[int64, int64], untracedMops float64) []metric {
	var ms []metric
	length := t.win.end - t.win.start
	capacity := float64(numWorkers) * float64(length)
	var counts [numClasses]int64
	var ops, scanKeys int64
	for c := 0; c < numClasses; c++ {
		var p50 float64
		p50, counts[c] = latency(t.stats, 0.5, c)
		ops += counts[c]
		var busy int64
		for _, st := range t.stats {
			busy += st.busy[c]
		}
		ms = append(ms,
			metric{name: "chromatic." + classNames[c] + ".p50_ns", unit: "ns", value: p50, samples: counts[c]},
			metric{name: "chromatic." + classNames[c] + ".busy_share", unit: "share", value: float64(busy) / capacity})
	}
	for _, st := range t.stats {
		scanKeys += st.scanKeys
	}
	updates := ops - counts[clsGet] - counts[clsScan]
	attempts := t.tree1.attempts - t.tree0.attempts
	perOp := func(n int64) float64 { return float64(n) / float64(ops) }
	return append(ms,
		metric{name: "chromatic.rangescan.keys_per_scan", unit: "keys", value: float64(scanKeys) / float64(max(counts[clsScan], 1))},
		metric{name: "chromatic.insert1_per_op", unit: "1/op", value: perOp(t.tree1.ins1 - t.tree0.ins1)},
		metric{name: "chromatic.insert2_per_op", unit: "1/op", value: perOp(t.tree1.ins2 - t.tree0.ins2)},
		metric{name: "chromatic.delete_per_op", unit: "1/op", value: perOp(t.tree1.del - t.tree0.del)},
		metric{name: "chromatic.rebalance_per_update", unit: "1/op", value: float64(t.tree1.rebal-t.tree0.rebal) / float64(max(updates, 1))},
		metric{name: "chromatic.rebalance_success_ratio", unit: "ratio", value: float64(attempts-(t.tree1.fails-t.tree0.fails)) / float64(max(attempts, 1))},
		metric{name: "chromatic.height", unit: "nodes", value: float64(tr.Height())},
		metric{name: "chromatic.violations", unit: "count", value: float64(tr.CountViolations())},
		metric{name: "epoch.pending_max", unit: "count", value: float64(t.pendingMax)},
		metric{name: "epoch.advance_fails_per_kop", unit: "1/kop", value: float64(t.ep1.AdvanceFails-t.ep0.AdvanceFails) * 1e3 / float64(ops)},
		metric{name: "epoch.refusals", unit: "count", value: float64(t.ep1.Refusals - t.ep0.Refusals)},
		metric{name: "runtime.allocs_per_op", unit: "1/op", value: (t.rt1[0] - t.rt0[0]) / float64(ops)},
		metric{name: "runtime.alloc_bytes_per_op", unit: "B/op", value: (t.rt1[1] - t.rt0[1]) / float64(ops)},
		metric{name: "runtime.gc_cycles", unit: "count", value: t.rt1[2] - t.rt0[2]},
		metric{name: "runtime.gc_cpu_share", unit: "share", value: (t.rt1[3] - t.rt0[3]) / (float64(runtime.GOMAXPROCS(0)) * time.Duration(length).Seconds())},
		metric{name: "trace.throughput_ratio", unit: "ratio", value: throughputMops(t.stats, t.win) / untracedMops},
	)
}

func probeMetrics(tr *chromatic.Tree[int64, int64], spec workloadSpec, seed int64) []metric {
	llx, vlx, scxIns, scxDel, commit := probeLLXSCX()
	publish, drain := probeVCell()
	pin, retire := probeEpoch()
	capture, scan, release := probeSnapshot(tr, spec, seed)
	next := probeWorkload(spec, seed)
	return []metric{
		{name: "llxscx.llx_ns", unit: "ns", value: llx},
		{name: "llxscx.scxp_insert_ns", unit: "ns", value: scxIns},
		{name: "llxscx.scxp_delete_ns", unit: "ns", value: scxDel},
		{name: "llxscx.vlx_ns", unit: "ns", value: vlx},
		{name: "llxscx.scx_commit_ratio", unit: "ratio", value: commit},
		{name: "vcell.publish_ns", unit: "ns", value: publish},
		{name: "vcell.drain_ns", unit: "ns", value: drain},
		{name: "epoch.pin_unpin_ns", unit: "ns", value: pin},
		{name: "epoch.retire_ns", unit: "ns", value: retire},
		{name: "snapshot.capture_ns", unit: "ns", value: capture},
		{name: "snapshot.rangescan_ns", unit: "ns", value: scan},
		{name: "snapshot.release_ns", unit: "ns", value: release},
		{name: "workload.next_ns", unit: "ns", value: next},
	}
}

// writeSpans dumps the traced window's sampled spans, one per line, sorted
// by start time.
func writeSpans(cfg config, stats []*winStats) (err error) {
	var all []span
	for _, st := range stats {
		all = append(all, st.spans...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].start < all[j].start })
	if err := os.MkdirAll(filepath.Dir(cfg.spans), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	f, err := os.Create(cfg.spans)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	defer func() {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("write spans: %w", cerr)
		}
	}()
	bw := bufio.NewWriter(f)
	fmt.Fprintf(bw, "# workload=%s seed=%d sampled=1/%d\nworkload\tworker\tlayer\top\tstart_ns\tend_ns\n", cfg.spec.name, cfg.seed, spanEvery)
	for _, s := range all {
		fmt.Fprintf(bw, "%s\t%d\tchromatic\t%s\t%d\t%d\n", cfg.spec.name, s.worker, classNames[s.class], s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
