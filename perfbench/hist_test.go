package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestHistQuantileMatchesExactSort checks every quantile the benchmark
// reports against the exact order statistic of the recorded values: the
// estimate must fall in the exact value's bucket, so it is off by at most
// one bucket width (1/16 of the value, or 1 ns below 32 ns).
func TestHistQuantileMatchesExactSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 7, 100, 10_000, 200_000} {
		var h hist
		vals := make([]int64, n)
		for i := range vals {
			// Log-uniform over 1 ns .. 1 s, like operation latencies.
			vals[i] = int64(math.Exp(rng.Float64() * math.Log(1e9)))
			h.record(vals[i])
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
			rank := int(math.Ceil(q * float64(n)))
			exact := float64(vals[max(rank, 1)-1])
			got := h.quantile(q)
			if tol := exact/subBuckets + 1; math.Abs(got-exact) > tol {
				t.Errorf("n=%d q=%g: quantile %.1f, exact %.0f (tolerance %.1f)", n, q, got, exact, tol)
			}
		}
	}
}

func TestHistBucketsTileTheRange(t *testing.T) {
	prevEnd := 0.0
	for i := 0; i < histBuckets; i++ {
		lo, width := bucketRange(i)
		if lo != prevEnd {
			t.Fatalf("bucket %d starts at %g, previous ends at %g", i, lo, prevEnd)
		}
		if i >= 2*subBuckets && width/lo > 1.0/subBuckets {
			t.Fatalf("bucket %d is %.1f%% wide", i, 100*width/lo)
		}
		if got := bucketOf(int64(lo)); got != i {
			t.Fatalf("bucketOf(%g) = %d, want %d", lo, got, i)
		}
		prevEnd = lo + width
	}
	if got := bucketOf(math.MaxInt64); got != histBuckets-1 {
		t.Fatalf("bucketOf(MaxInt64) = %d, want the last bucket", got)
	}
}

func TestHistEmpty(t *testing.T) {
	var h hist
	if got := h.quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %g, want 0", got)
	}
}
