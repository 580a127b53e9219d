// Command perfbench is the repository's benchmark: closed-loop workloads on
// the paper's chromatic tree (chromatic.New()) that report end-to-end
// metrics, check every result, and in a traced run attribute time to the
// layers an operation crosses.
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash perfbench/run.sh --workload update-64k --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 reports the end-to-end
// metrics, --trace 1 the per-layer ones (BENCHMARK.json lists both).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"strings"
	"sync"
	"time"

	"repro/internal/chromatic"
	"repro/internal/workload"
)

// warmup is run, checked and discarded before the window opens: long enough
// for the node and descriptor pools to refill after the pre-window GCs and
// for the tree to leave its insert-only prefill shape.
const warmup = 2 * time.Second

type config struct {
	spec    workloadSpec
	seed    int64
	window  time.Duration
	warmup  time.Duration
	traced  bool
	spans   string // traced span dump, under .bench_build/spans
	cpuProf string
	memProf string
	exTrace string
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	ok, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "workload seed; prefill and worker seeds derive from it")
	seconds := fs.Int("seconds", 20, "length of the measured window in seconds")
	traceMode := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	cpuProf := fs.String("cpuprofile", "", "write a CPU profile of the measured window(s) to this file")
	memProf := fs.String("memprofile", "", "write a heap profile taken after the window(s) to this file")
	exTrace := fs.String("exectrace", "", "write an execution trace of the measured window(s) to this file")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	spec, ok := findWorkload(*name)
	if !ok {
		return config{}, fmt.Errorf("unknown workload %q (want one of %s)", *name, workloadNames())
	}
	if *seconds < 1 {
		return config{}, fmt.Errorf("--seconds must be at least 1, got %d", *seconds)
	}
	if *traceMode != 0 && *traceMode != 1 {
		return config{}, fmt.Errorf("--trace must be 0 or 1, got %d", *traceMode)
	}
	cfg := config{
		spec:    spec,
		seed:    *seed,
		window:  time.Duration(*seconds) * time.Second,
		warmup:  warmup,
		traced:  *traceMode == 1,
		cpuProf: *cpuProf,
		memProf: *memProf,
		exTrace: *exTrace,
	}
	if cfg.traced {
		cfg.spans = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.tsv", spec.name, cfg.seed))
	}
	return cfg, nil
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// deriveSeed gives stream i of a run its own seed (splitmix64 of seed+i).
func deriveSeed(seed int64, i int) int64 {
	z := uint64(seed) + uint64(i)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// metric is one reported value. samples is printed beside latencies.
type metric struct {
	name    string
	unit    string
	value   float64
	samples int64
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// setup constructs and prefills spec.setups trees from the same seed,
// keeping the last, and returns it with its size and the median set-up time.
func setup(spec workloadSpec, seed int64) (*chromatic.Tree[int64, int64], int, float64) {
	var tr *chromatic.Tree[int64, int64]
	var size int
	times := make([]float64, spec.setups)
	for i := range times {
		if tr != nil {
			tr.DrainReclaim()
			tr = nil
			runtime.GC()
		}
		t0 := time.Now()
		tr = chromatic.New()
		size = prefill(tr, spec, seed)
		times[i] = time.Since(t0).Seconds()
	}
	return tr, size, median(times)
}

// prefill inserts the mix's expected steady-state number of distinct
// uniform keys. Each worker fills its own contiguous share of the key range
// with workload.PrefillExact, so the key set depends only on the seed.
func prefill(tr *chromatic.Tree[int64, int64], spec workloadSpec, seed int64) int {
	var wg sync.WaitGroup
	sizes := make([]int, numWorkers)
	share := spec.keyRange / numWorkers
	want := spec.mix.ExpectedSize(spec.keyRange)
	for i := range sizes {
		lo, n := int64(i)*share, want/numWorkers
		keys := share
		if i == numWorkers-1 {
			keys = spec.keyRange - lo
			n = want - n*(numWorkers-1)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			sizes[i] = workload.PrefillExact(offsetMap{tr, lo}, keys, n, deriveSeed(seed, i))
		}()
	}
	wg.Wait()
	total := 0
	for _, n := range sizes {
		total += n
	}
	return total
}

// offsetMap shifts the keys (and so the values, which equal them) of one
// prefill share into place. PrefillExact only inserts.
type offsetMap struct {
	*chromatic.Tree[int64, int64]
	off int64
}

func (m offsetMap) Insert(k, v int64) (int64, bool) { return m.Tree.Insert(k+m.off, v+m.off) }

// run executes one benchmark run and prints its report to out. It returns
// whether every check passed; err reports a failure to run at all.
func run(cfg config, out io.Writer) (bool, error) {
	spec := cfg.spec
	tr, prefill, setupS := setup(spec, deriveSeed(cfg.seed, 0))
	ws := make([]*worker, numWorkers)
	for i := range ws {
		ws[i] = newWorker(i, spec, deriveSeed(cfg.seed, 1+i))
	}
	stopProfiles, err := startProfiles(cfg)
	if err != nil {
		return false, err
	}
	// Two GCs empty the sync.Pools, then the warm-up slice refills them, so
	// neither set-up garbage nor lazy pool fill lands in the window.
	runtime.GC()
	runtime.GC()
	base := time.Now()
	// A traced run spends the first half of its window untraced and the
	// second half traced; the ratio of their throughputs is the tracing
	// overhead.
	untraced := cfg.window
	if cfg.traced {
		untraced /= 2
	}
	win := newWindow(base, cfg.warmup, untraced)
	stats := runWindow(tr, ws, win, false)
	var tw *tracedWindow
	if cfg.traced {
		tw = runTraced(tr, ws, base, cfg.window-untraced)
	}
	if err := stopProfiles(); err != nil {
		return false, err
	}

	var attempted, failed int64
	for _, w := range ws {
		attempted += w.attempts
		failed += w.failed
	}
	qFailed, problems := quiescentCheck(tr, prefill, ws)
	failed += qFailed
	correct := failed == 0

	fmt.Fprintf(out, "# perfbench workload=%s seed=%d seconds=%g trace=%t workers=%d keys=%d mix=%s dist=%s prefill=%d\n",
		spec.name, cfg.seed, cfg.window.Seconds(), cfg.traced, numWorkers, spec.keyRange, spec.mix, spec.dist, prefill)
	fmt.Fprintf(out, "# checked %d ops, %d failed (failed_op_share %g)\n", attempted, failed, float64(failed)/float64(attempted))
	for _, p := range problems {
		fmt.Fprintln(out, "# CHECK FAILED:", p)
	}

	var ms []metric
	if !cfg.traced {
		ms = endToEndMetrics(stats, win, setupS)
		stats = nil
		tr.DrainReclaim()
		runtime.GC()
		runtime.GC()
		var mem runtime.MemStats
		runtime.ReadMemStats(&mem)
		ms = append(ms, metric{name: "heap_bytes_per_key", unit: "B/key", value: float64(mem.HeapAlloc) / float64(tr.Size())})
	} else {
		if err := writeSpans(cfg, tw.stats); err != nil {
			return false, err
		}
		ms = tw.metrics(tr, throughputMops(stats, win))
		ms = append(ms, metric{name: "failed_op_share", unit: "share", value: float64(failed) / float64(attempted)})
		ms = append(ms, probeMetrics(tr, spec, deriveSeed(cfg.seed, 1+numWorkers))...)
	}
	if cfg.memProf != "" {
		if err := writeHeapProfile(cfg.memProf); err != nil {
			return false, err
		}
	}
	for _, m := range ms {
		if m.samples > 0 {
			fmt.Fprintf(out, "%-36s %14.4f %-6s n=%d\n", m.name, m.value, m.unit, m.samples)
		} else {
			fmt.Fprintf(out, "%-36s %14.4f %s\n", m.name, m.value, m.unit)
		}
	}
	res := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: make(map[string]jsonMetric, len(ms))}
	for _, m := range ms {
		res.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return false, fmt.Errorf("encode result: %w", err)
	}
	fmt.Fprintln(out, string(line))
	return correct, nil
}

func endToEndMetrics(stats []*winStats, win window, setupS float64) []metric {
	ms := []metric{{name: "throughput_mops", unit: "Mops/s", value: throughputMops(stats, win)}}
	for _, k := range []struct {
		name    string
		classes []int
	}{
		{"get", []int{clsGet}},
		{"insert", []int{clsInsertNew, clsOverwrite}},
		{"delete", []int{clsDeleteHit, clsDeleteMiss}},
		{"scan", []int{clsScan}},
	} {
		for _, q := range []struct {
			suffix string
			q      float64
		}{{"p50", 0.5}, {"p99", 0.99}} {
			v, n := latency(stats, q.q, k.classes...)
			ms = append(ms, metric{name: k.name + "_" + q.suffix + "_ns", unit: "ns", value: v, samples: n})
		}
	}
	return append(ms, metric{name: "setup_s", unit: "s", value: setupS})
}

// startProfiles starts the CPU profile and execution trace cfg asks for and
// returns the function that stops them.
func startProfiles(cfg config) (func() error, error) {
	var stops []func() error
	stopAll := func() error {
		var errs []error
		for _, s := range stops {
			errs = append(errs, s())
		}
		return errors.Join(errs...)
	}
	if cfg.cpuProf != "" {
		f, err := os.Create(cfg.cpuProf)
		if err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		stops = append(stops, func() error { pprof.StopCPUProfile(); return f.Close() })
	}
	if cfg.exTrace != "" {
		f, err := os.Create(cfg.exTrace)
		if err != nil {
			return nil, errors.Join(fmt.Errorf("execution trace: %w", err), stopAll())
		}
		if err := trace.Start(f); err != nil {
			f.Close()
			return nil, errors.Join(fmt.Errorf("execution trace: %w", err), stopAll())
		}
		stops = append(stops, func() error { trace.Stop(); return f.Close() })
	}
	return stopAll, nil
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("heap profile: %w", err)
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("heap profile: %w", err)
	}
	return f.Close()
}
