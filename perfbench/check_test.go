package main

import (
	"testing"
	"time"

	"repro/internal/chromatic"
	"repro/internal/workload"
)

// Planted faults: each wrapper breaks one promise the checks rely on.

// wrongValue returns a value that differs from the key.
type wrongValue struct{ store }

func (w wrongValue) Get(k int64) (int64, bool) {
	v, ok := w.store.Get(k)
	return v + 1, ok
}

// droppedDelete reports that it removed a present key but keeps it.
type droppedDelete struct{ store }

func (d droppedDelete) Delete(k int64) (int64, bool) { return d.store.Get(k) }

// unorderedScan visits the window's keys in descending order.
type unorderedScan struct{ store }

func (u unorderedScan) RangeScan(lo, hi int64, fn func(k, v int64) bool) int {
	var keys []int64
	u.store.RangeScan(lo, hi, func(k, _ int64) bool { keys = append(keys, k); return true })
	for i := len(keys) - 1; i >= 0; i-- {
		fn(keys[i], keys[i])
	}
	return len(keys)
}

// checkedShare runs a short window of spec against d (prefilled with
// prefill keys) and returns failed_op_share as run computes it.
func checkedShare(t *testing.T, d store, spec workloadSpec, prefill int) float64 {
	t.Helper()
	ws := []*worker{newWorker(0, spec, 11), newWorker(1, spec, 12)}
	runWindow(d, ws, newWindow(time.Now(), 0, 100*time.Millisecond), false)
	failed, _ := quiescentCheck(d, prefill, ws)
	var attempted int64
	for _, w := range ws {
		attempted += w.attempts
		failed += w.failed
	}
	if attempted == 0 {
		t.Fatal("no operations ran")
	}
	return float64(failed) / float64(attempted)
}

func TestCheckerCatchesPlantedFaults(t *testing.T) {
	spec := workloadSpec{name: "check", mix: workload.Mix{InsertPct: 20, DeletePct: 20, ScanPct: 10}, keyRange: 1 << 10}
	for _, tc := range []struct {
		name  string
		wrap  func(store) store
		fault bool
	}{
		{"correct tree", func(s store) store { return s }, false},
		{"wrong value", func(s store) store { return wrongValue{s} }, true},
		{"dropped delete", func(s store) store { return droppedDelete{s} }, true},
		{"unordered scan", func(s store) store { return unorderedScan{s} }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := chromatic.New()
			prefill := workload.PrefillExact(tr, spec.keyRange, spec.mix.ExpectedSize(spec.keyRange), 1)
			share := checkedShare(t, tc.wrap(tr), spec, prefill)
			if tc.fault && share == 0 {
				t.Fatal("failed_op_share = 0 for a planted fault")
			}
			if !tc.fault && share != 0 {
				t.Fatalf("failed_op_share = %g for the unmodified tree", share)
			}
		})
	}
}
