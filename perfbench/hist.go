package main

import "math/bits"

// Latency histogram with log-linear buckets: every octave [2^e, 2^(e+1)) is
// split into subBuckets equal-width buckets, so a bucket is at most 1/16 =
// 6.25% of its lower bound wide and a 10% latency change always moves a
// percentile by at least one bucket. Values below 2*subBuckets ns get one
// bucket each. Recording is an index computation and one increment, with no
// allocation and no locking: each worker owns its histograms and they are
// merged after the window.
const (
	subBits    = 4
	subBuckets = 1 << subBits
	// maxLatencyBits caps recorded values at 2^40 ns (about 18 minutes);
	// anything longer lands in the last bucket.
	maxLatencyBits = 40
	histBuckets    = (maxLatencyBits-subBits-1)*subBuckets + 2*subBuckets
)

type hist struct {
	counts [histBuckets]uint64
	n      uint64
}

// bucketOf returns the bucket index of a non-negative duration in ns.
func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	if v >= 1<<maxLatencyBits {
		return histBuckets - 1
	}
	shift := bits.Len64(uint64(v)) - subBits - 1
	if shift < 0 {
		shift = 0
	}
	return shift*subBuckets + int(uint64(v)>>shift)
}

// bucketRange returns the lower bound and width of bucket i.
func bucketRange(i int) (lo, width float64) {
	if i < 2*subBuckets {
		return float64(i), 1
	}
	shift := i/subBuckets - 1
	m := i - shift*subBuckets
	return float64(uint64(m) << shift), float64(uint64(1) << shift)
}

func (h *hist) record(v int64) {
	h.counts[bucketOf(v)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the value of nearest rank ceil(q*n), interpolated
// linearly inside its bucket, or 0 for an empty histogram. The estimate lies
// in the same bucket as the exact order statistic.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q * float64(h.n))
	if float64(rank) < q*float64(h.n) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var seen uint64
	for i, c := range h.counts {
		if c == 0 || seen+c < rank {
			seen += c
			continue
		}
		lo, width := bucketRange(i)
		return lo + width*(float64(rank-seen)-0.5)/float64(c)
	}
	return 0
}
