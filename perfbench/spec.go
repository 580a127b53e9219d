package main

import "repro/internal/workload"

// A workloadSpec is one set of inputs the benchmark runs. Every workload
// drives a fresh chromatic.New() tree (the paper's Chromatic) with numWorkers
// closed-loop workers: each issues its next operation only when the previous
// one has returned, the way a library caller waits for its result. Values
// always equal keys, so every returned value can be checked.
type workloadSpec struct {
	name     string
	mix      workload.Mix
	keyRange int64
	dist     workload.Dist
	// extraGets and extraScans are the shares, in parts per 10,000
	// operations, of generated operations replaced by a Get or a scan of
	// the same key. They give every per-kind latency metric samples on a
	// workload whose mix lacks that kind, while costing the mix at most a
	// few percent of its time.
	extraGets, extraScans uint64
	// setups is how many times a run constructs and prefills the tree;
	// setup_s is their median and the last tree is the one measured.
	setups int
}

// scanSpan is the key window of every scan (live or snapshot).
const scanSpan = 100

// numWorkers is the closed-loop client count: one per CPU of the 2-vCPU
// hosts the ROADMAP numbers come from.
const numWorkers = 2

// The sizes are set against a 2 MiB per-core L2 and a 300 MiB shared L3:
// 64K keys make ~8 MB of 128-byte nodes (beyond L2), 1M keys ~170 MB.
var workloads = []workloadSpec{
	// Every op is an update: LLX, pooled SCX, epoch retire and
	// cleanup/rebalance for new keys and deletes, the vcell publish bracket
	// for the overwriting half of the inserts.
	{name: "update-64k", mix: workload.Mix50i50d, keyRange: 1 << 16, dist: workload.DistUniform, extraGets: 20, extraScans: 10, setups: 9},
	// 70% Gets over the paper's largest range: time goes to the
	// cache-missing search walk; an SCX-only change should not move it.
	{name: "mixed-1m", mix: workload.Mix20i10d, keyRange: 1_000_000, dist: workload.DistUniform, extraScans: 10, setups: 3},
	// Live RangeScans (O(span·log n) Successor loop) racing 10% updates.
	{name: "scan-64k", mix: workload.Mix5i5d50s, keyRange: 1 << 16, dist: workload.DistUniform, setups: 9},
	// Zipf s=1.2: inserts mostly overwrite a few hot keys and the workers
	// collide on the same leaves (publish/drain bracket, LLX-fail/SCX-help).
	{name: "hotkey-zipf", mix: workload.Mix50i50d, keyRange: 1 << 16, dist: workload.DistZipf, extraGets: 20, extraScans: 10, setups: 9},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}
