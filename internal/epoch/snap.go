package epoch

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file extends the epoch layer with long-lived snapshot pins. A regular
// Guard must stay pinned for the duration of one dictionary operation: a slot
// that stays claimed blocks the global epoch, and with it every retire list
// in the process. A snapshot handle lives as long as its holder wants — often
// across many operations — so it needs a pin with different mechanics:
//
//   - the epoch keeps advancing while snapshot pins are held, so ordinary
//     reclamation of objects the snapshot cannot reach proceeds at full rate;
//   - an object whose grace period completes while a snapshot pinned at an
//     epoch at or below its retire epoch is live is PARKED instead of freed
//     (any node a snapshot can still reach was, by the capture argument in
//     DESIGN.md, retired after the snapshot registered, hence at an epoch at
//     or above the pin);
//   - releasing the last covering pin un-parks the deferred retirees by
//     re-retiring them under a fresh guard, so they take one more grace
//     period and then recycle normally.
//
// The registry is a fixed array of padded slots claimed by CAS, exactly like
// the operation slots, so SnapPin allocates nothing. It has as many slots as
// the operation registry: every tree RangeScan holds a snapshot pin for its
// duration, so concurrent scanners must get no tighter bound than ops do.
//
// A snapshot pin held past the watchdog's stall threshold (a scan whose
// callback blocks, a leaked handle) would park every later retiree without
// bound. The watchdog marks such a pin stalled; retirees it covers are then
// dropped to the garbage collector instead of parked — the snapshot-pin
// analogue of degraded mode, and safe for the same reason: the GC sees the
// stalled holder's references, the pools never get the object back.

const numSnapSlots = numSlots

// SnapGuard is one long-lived snapshot pin. It is a slot in a fixed registry;
// holders obtain one from SnapPin and must call Release exactly once.
type SnapGuard struct {
	// epoch is 0 when the slot is free, else the global epoch recorded when
	// the snapshot registered. Recording a stale (smaller) epoch is safe: it
	// only parks more.
	epoch atomic.Uint64
	// claims counts registrations of the slot, so the watchdog can tell a pin
	// held across its scans from one released and re-claimed at the same
	// epoch.
	claims atomic.Uint64
	// stalled is set and cleared only by the watchdog: while set (and the
	// slot claimed), retirees the pin covers drop to the GC instead of
	// parking.
	stalled atomic.Bool
	_       [44]byte
}

var (
	snapSlots [numSnapSlots]SnapGuard

	// snapCount is the number of live snapshot pins; the retire path loads it
	// once per drain to skip the held-bucket scan entirely when no snapshots
	// exist.
	snapCount atomic.Int64

	// parked holds retirees whose grace period completed under a live
	// snapshot pin. parkedCount mirrors len-in-entries for Pending.
	parkedMu    sync.Mutex
	parked      []parkedEntry
	parkedCount atomic.Int64

	// unparkBuf is the scratch list unparkEligible moves eligible retirees
	// into before re-retiring them outside parkedMu; unparkMu serializes its
	// reuse, so a Release allocates nothing in steady state. Lock order:
	// unparkMu before parkedMu.
	unparkMu  sync.Mutex
	unparkBuf []parkedEntry
)

type parkedEntry struct {
	obj   any
	free  Func
	epoch uint64
}

// SnapPin registers a long-lived snapshot pin at the current global epoch and
// returns its guard. Objects retired from this moment on will not be freed
// until the pin (and every other pin at or below their retire epoch) is
// released; the global epoch itself keeps advancing. Returns nil when the
// epoch layer is compiled out (-tags noepoch), which callers must treat as
// "snapshots cannot pin memory".
func SnapPin() *SnapGuard {
	if !Enabled {
		return nil
	}
	e := globalEpoch.Load()
	h := slotHint()
	for tries := 0; ; tries++ {
		s := &snapSlots[(h+uint64(tries))%numSnapSlots]
		if s.epoch.Load() == 0 && s.epoch.CompareAndSwap(0, e) {
			s.claims.Add(1)
			snapCount.Add(1)
			return s
		}
		if tries%numSnapSlots == numSnapSlots-1 {
			runtime.Gosched()
			e = globalEpoch.Load()
		}
	}
}

// Release frees the pin. Deferred retirees that no remaining pin covers are
// re-retired under a fresh guard, taking one more grace period before they
// recycle. Safe to call from any goroutine, but exactly once per SnapPin.
func (s *SnapGuard) Release() {
	if s == nil {
		return
	}
	s.epoch.Store(0)
	snapCount.Add(-1)
	unparkEligible()
}

// snapMins scans the registry for the smallest epoch among live snapshot
// pins and among the live pins the watchdog holds stalled; 0 means none
// (epochs start at 1). A retiree of epoch e is covered by a pin registered at
// or below e.
func snapMins() (live, stalled uint64) {
	for i := range snapSlots {
		s := &snapSlots[i]
		e := s.epoch.Load()
		if e == 0 {
			continue
		}
		if live == 0 || e < live {
			live = e
		}
		if s.stalled.Load() && (stalled == 0 || e < stalled) {
			stalled = e
		}
	}
	return live, stalled
}

// holdBack diverts a grace-complete batch retired at epoch be that a live
// snapshot may still reach: it is parked behind the covering pins, or dropped
// to the garbage collector if one of them is stalled. It reports whether it
// took the batch; the caller frees the batch otherwise.
func (g *Guard) holdBack(be uint64, items []entry) bool {
	if len(items) == 0 || snapCount.Load() == 0 {
		return false
	}
	live, stalled := snapMins()
	switch {
	case stalled != 0 && be >= stalled:
		degradedDrops.Add(int64(len(items)))
	case live != 0 && be >= live:
		park(be, items)
	default:
		return false
	}
	g.pending.Add(int64(-len(items)))
	clear(items)
	return true
}

// park moves a drained-but-held batch onto the global parked list.
func park(be uint64, items []entry) {
	parkedMu.Lock()
	for _, it := range items {
		parked = append(parked, parkedEntry{it.obj, it.free, be})
	}
	parkedMu.Unlock()
	parkedCount.Add(int64(len(items)))
}

// unparkEligible re-retires every parked object that no live snapshot pin
// covers anymore. Each takes a fresh grace period under the re-retiring
// guard, which also re-checks any pins registered in the meantime.
func unparkEligible() {
	if parkedCount.Load() == 0 {
		return
	}
	unparkMu.Lock()
	defer unparkMu.Unlock()
	live, _ := snapMins()
	parkedMu.Lock()
	out := unparkBuf[:0]
	kept := parked[:0]
	for _, pe := range parked {
		if live != 0 && pe.epoch >= live {
			kept = append(kept, pe)
		} else {
			out = append(out, pe)
		}
	}
	clear(parked[len(kept):])
	parked = kept
	parkedMu.Unlock()
	if len(out) != 0 {
		parkedCount.Add(int64(-len(out)))
		g := Pin()
		for _, pe := range out {
			Retire(g, pe.obj, pe.free)
		}
		Unpin(g)
		clear(out)
	}
	unparkBuf = out[:0]
}

// dropStalledParked drops to the garbage collector every parked retiree a
// stalled snapshot pin covers. The watchdog calls it on every scan while a
// stall is active, which bounds how long a retiree that raced the stall mark
// into the parked list stays there.
func dropStalledParked() {
	_, stalled := snapMins()
	if stalled == 0 || parkedCount.Load() == 0 {
		return
	}
	parkedMu.Lock()
	kept := parked[:0]
	for _, pe := range parked {
		if pe.epoch < stalled {
			kept = append(kept, pe)
		}
	}
	dropped := int64(len(parked) - len(kept))
	clear(parked[len(kept):])
	parked = kept
	parkedMu.Unlock()
	parkedCount.Add(-dropped)
	degradedDrops.Add(dropped)
}

// SnapPinned returns the number of live snapshot pins. Test and diagnostic
// use.
func SnapPinned() int64 { return snapCount.Load() }

// ParkedCount returns the number of retirees deferred behind snapshot pins.
// Test and diagnostic use.
func ParkedCount() int64 { return parkedCount.Load() }

// discardParked drops every parked retiree to the garbage collector; part of
// DiscardAll's full-quiescence reset.
func discardParked() {
	parkedMu.Lock()
	clear(parked)
	parked = parked[:0]
	parkedMu.Unlock()
	parkedCount.Store(0)
}
