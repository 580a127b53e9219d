package workload

import (
	"fmt"

	"repro/internal/dict"
)

// ScanMode selects how OpScan operations read the dictionary: through the
// structure's own RangeScan, or through a freshly captured snapshot view per
// scan (the O(1) versioned snapshot path, which walks a frozen version with
// no validation and no retries). The two modes answer the same queries. The
// LLX/SCX trees' own RangeScan already walks a stack-captured snapshot, so
// on them the modes differ only by the Snapshot() handle; on the baselines
// the snapshot mode measures the AdaptSnapshot fallback.
type ScanMode int

const (
	// ScanLive calls the structure's own RangeScan (the default, and the
	// only mode the paper's evaluation has).
	ScanLive ScanMode = iota
	// ScanSnapshot captures a snapshot per scan operation, scans the frozen
	// view and releases it. Structures without native snapshots run through
	// the AdaptSnapshot fallback, whose views are live — for them the mode
	// measures only the adapter's dispatch overhead.
	ScanSnapshot
)

// String returns the name used in tables, flags and JSON snapshots.
func (m ScanMode) String() string {
	if m == ScanSnapshot {
		return "snapshot"
	}
	return "live"
}

// ParseScanMode parses a ScanMode name as printed by String. The empty
// string parses as ScanLive, so JSON rows written before the scan-mode
// dimension existed read back correctly.
func ParseScanMode(s string) (ScanMode, error) {
	switch s {
	case "", "live":
		return ScanLive, nil
	case "snapshot":
		return ScanSnapshot, nil
	default:
		return ScanLive, fmt.Errorf("workload: unknown scan mode %q (want live or snapshot)", s)
	}
}

// An Applier executes generated operations against one dictionary with a
// fixed scan mode. It is cheap state, not a lock: create one per worker
// goroutine next to its Generator (the Applier itself is safe to share, but
// sharing buys nothing). Point operations always go straight to the live
// dictionary; only OpScan dispatches on the mode.
type Applier struct {
	d dict.IntMap
	// snap is non-nil exactly in snapshot mode: the structure's own
	// Snapshotter when it has one, the AdaptSnapshot fallback when it is
	// merely ordered, nil (degrade to live scanning) when it is neither.
	snap dict.IntSnapshotter
}

// NewApplier returns an applier driving d in the given scan mode.
func NewApplier(d dict.IntMap, mode ScanMode) *Applier {
	a := &Applier{d: d}
	if mode == ScanSnapshot {
		if sn, ok := d.(dict.IntSnapshotter); ok {
			a.snap = sn
		} else if om, ok := d.(dict.IntOrderedMap); ok {
			a.snap = dict.AdaptSnapshot[int64, int64](om, intLess)
		}
	}
	return a
}

func intLess(a, b int64) bool { return a < b }

// Apply performs one generated operation, like the package-level Apply, with
// scans routed through the applier's scan mode.
func (a *Applier) Apply(op Op, key int64, scanSpan int64) {
	if op == OpScan && a.snap != nil {
		v := a.snap.Snapshot()
		v.RangeScan(key, key+scanSpan-1, visitAll)
		v.Release()
		return
	}
	Apply(a.d, op, key, scanSpan)
}
