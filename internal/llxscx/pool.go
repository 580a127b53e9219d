package llxscx

import (
	"sync"
	"sync/atomic"

	"repro/internal/epoch"
)

// Pool recycles SCX descriptors for one data structure. Descriptors are
// handed back through the epoch layer only when their reference count
// drains to zero — no record's info field points at them, no in-flight SCXP
// lists them as freezing-CAS evidence, and the initiating SCXP has returned
// — so a descriptor can never be recycled while a helper might still read
// it, install it, or CAS with its address as the expected value.
//
// A descriptor whose count does not drain simply parks where it is: a
// record that is never frozen again keeps its last descriptor alive, which
// is exactly the footprint the GC-based port had. The steady-state churn
// the pool targets refreezes records constantly, so descriptors recycle at
// the rate SCXs consume them.
type Pool[N any] struct {
	p sync.Pool

	// OnCommit, when non-nil, is invoked by help() for every SCXP descriptor
	// after all records are frozen and finalized, immediately BEFORE the
	// update CAS, with the descriptor's expected old value and new value for
	// the mutable field. EVERY helper that reaches the update CAS calls it (not only
	// the one whose CAS lands), so the callback must be idempotent; in
	// exchange it is guaranteed to have run to completion at least once
	// before new can be read out of any mutable field. The trees use this to
	// stamp the freshly installed subtree root with a version tick and its
	// previous-version link, ordering the commit against snapshot capture
	// (DESIGN.md, "Versioned snapshots"). Set once at construction, before
	// the pool's first SCXP.
	OnCommit func(old, new *N)

	// OnInstalled, when non-nil alongside OnCommit, is invoked immediately
	// AFTER the update CAS by every helper that invoked OnCommit, pairing
	// one-to-one with those calls. The trees use the pair as a bracket
	// around the stamp→install window: OnCommit opens a counter before it
	// assigns the version tick, OnInstalled closes it once the new subtree
	// is (or is guaranteed to already be) reachable, and Snapshot drains the
	// counter after reading the version counter — which is what makes "tick
	// at or below a captured version" imply "installed before the capture's
	// first read" (DESIGN.md, "Versioned snapshots").
	OnInstalled func()

	// deferred heads the intrusive stack of descriptors whose count hit
	// zero outside an SCXP call (a helper displaced them, or a freed node
	// released its record's reference). The next SCXP on this structure —
	// or an explicit Flush — hands them to the epoch layer.
	deferred atomic.Pointer[descriptor[N]]

	// freeFn is the epoch callback, built once so Retire never allocates a
	// closure.
	freeFn epoch.Func
}

// NewPool returns a descriptor pool for one data structure. All SCXP calls
// on records of the same structure must share one pool.
func NewPool[N any]() *Pool[N] {
	pl := &Pool[N]{}
	pl.p.New = func() any { return new(descriptor[N]) }
	pl.freeFn = func(g *epoch.Guard, obj any) bool {
		return pl.freeOne(obj.(*descriptor[N]))
	}
	return pl
}

// release drops one reference; the dropper that reaches zero pushes the
// descriptor onto its pool's deferred-retire stack (exactly once — a late
// helper can transiently resurrect the count, which freeOne re-checks).
func (d *descriptor[N]) release() {
	if d.refs.Add(-1) == 0 && d.retired.CompareAndSwap(false, true) {
		d.pool.deferRetire(d)
	}
}

// deferRetire pushes d onto the deferred stack (Treiber push; the pop in
// Flush swaps the whole list out, so there is no ABA window).
func (pl *Pool[N]) deferRetire(d *descriptor[N]) {
	for {
		head := pl.deferred.Load()
		d.dnext = head
		if pl.deferred.CompareAndSwap(head, d) {
			return
		}
	}
}

// Flush hands every deferred descriptor to the epoch layer under the
// caller's pinned guard. SCXP flushes on every call; trees call it from
// their quiescent drain helpers so the last few descriptors of a run do
// not wait for a further SCX.
func (pl *Pool[N]) Flush(g *epoch.Guard) {
	d := pl.deferred.Swap(nil)
	for d != nil {
		next := d.dnext
		d.dnext = nil
		epoch.Retire(g, d, pl.freeFn)
		d = next
	}
}

// freeOne is the epoch callback: by now every operation pinned when the
// descriptor's count hit zero has finished, so nobody can still name it.
// If a late helper resurrected the count in the meantime (it re-installed
// the descriptor into a record after a displacement briefly zeroed the
// count), the descriptor is parked instead of freed: the retired flag is
// re-armed and the entry leaves the retire list, so the release() that
// eventually drops the count back to zero re-queues it for a fresh grace
// period. Parked descriptors are reachable through the records that hold
// them, so nothing leaks while they wait.
func (pl *Pool[N]) freeOne(d *descriptor[N]) bool {
	if d.refs.Load() != 0 {
		// Park: re-arm first, then re-check, so a final release racing
		// between the two loads cannot fall through the already-set retired
		// flag and strand the descriptor.
		d.retired.Store(false)
		if d.refs.Load() == 0 && d.retired.CompareAndSwap(false, true) {
			return false // count drained while parking; take another grace period
		}
		return true
	}
	for i := range d.recs {
		d.recs[i] = nil
		d.infos[i] = nil
		d.toMark[i] = nil
	}
	d.nV = 0
	d.nMark = 0
	d.fld = nil
	d.old = nil
	d.new = nil
	d.pool = nil
	d.allFrozen.Store(false)
	d.retired.Store(false)
	pl.p.Put(d)
	return true
}

// SCXP is SCX with pooled-descriptor reclamation: semantically identical to
// SCXFixed, but the descriptor comes from pl and is recycled once its
// reference count drains. g must be the caller's pinned epoch guard. When
// epoch reclamation is compiled out (-tags noepoch) it falls back to
// SCXFixed.
func SCXP[P DataRecord[N], N any](g *epoch.Guard, pl *Pool[N], v *[MaxV]Linked[N], nv int, finalize *[MaxV]P, nf int, fld *atomic.Pointer[N], old, new *N) bool {
	if !epoch.Enabled {
		return SCXFixed(v, nv, finalize, nf, fld, old, new)
	}
	if nv < 1 || nv > MaxV || nf < 0 || nf > nv {
		panic("llxscx: SCXP sequence lengths out of range")
	}
	d := pl.p.Get().(*descriptor[N])
	d.pool = pl
	d.refs.Store(1) // initiator bias
	d.nV = nv
	d.nMark = nf
	d.fld = fld
	d.old = old
	d.new = new
	for i := 0; i < nv; i++ {
		d.recs[i] = v[i].rec
		d.infos[i] = v[i].info
		// List the expected value: it must stay unrecycled while d (and
		// therefore possibly a helper of d) is alive.
		if old := v[i].info; old != nil && old.pool != nil {
			old.refs.Add(1)
		}
	}
	for i := 0; i < nf; i++ {
		d.toMark[i] = finalize[i].LLXRecord()
	}
	d.state.Store(stateInProgress)
	committed := help(d)
	// d's state is now terminal (committed or aborted), so no NEW helper of
	// d can ever start: validateOne and LLX only help in-progress
	// descriptors. Release the listings on d's freezing-CAS expected values
	// here, not when d is freed. Helpers of d that are still stalled inside
	// the freeze loop were pinned before this point, and a listed descriptor
	// whose count drains now still takes a full grace period before reuse,
	// so their CASes never see a recycled address. Releasing eagerly is what
	// makes the pool live: if the listing persisted until d was freed, every
	// descriptor would be kept by its successor's listing on a shared record
	// and the whole history chain would park forever.
	for i := 0; i < d.nV; i++ {
		if old := d.infos[i]; old != nil && old.pool != nil {
			old.release()
		}
	}
	d.release() // drop the initiator bias
	pl.Flush(g)
	return committed
}

// ReleaseRecord severs a freed Data-record's reference to its last
// descriptor and resets the record for reuse. Trees must call it exactly
// once, when a node's grace period has completed and the node is about to
// enter a pool — at that point no operation can reach the record, so the
// plain reset cannot race.
func ReleaseRecord[N any](rec *Record[N]) {
	if d := rec.info.Load(); d != nil && d.pool != nil {
		rec.info.Store(nil)
		d.release()
	} else if d != nil {
		rec.info.Store(nil)
	}
	rec.marked.Store(false)
}
