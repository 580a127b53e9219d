package epoch

import (
	"sync/atomic"
	"testing"
)

// TestSnapPinParksAndReleaseFrees is the core lifecycle: an object retired
// while a snapshot pin is live must be parked (not freed) for as long as the
// pin is held, and must take one more grace period and recycle after the last
// covering pin is released.
func TestSnapPinParksAndReleaseFrees(t *testing.T) {
	if !Enabled {
		t.Skip("epoch reclamation disabled (noepoch build)")
	}
	Drain()
	discardParked()

	s := SnapPin()
	if s == nil {
		t.Fatal("SnapPin returned nil with reclamation enabled")
	}
	if got := SnapPinned(); got != 1 {
		t.Fatalf("SnapPinned() = %d with one pin live, want 1", got)
	}

	var freed atomic.Int64
	g := Pin()
	obj := new(int)
	Retire(g, obj, countingFree(&freed))
	Unpin(g)

	// The grace period completes under the live pin: the object must be
	// parked, not freed, no matter how often the epoch is drained.
	for i := 0; i < 4; i++ {
		Drain()
	}
	if freed.Load() != 0 {
		t.Fatal("object freed while a snapshot pin covering its retire epoch was live")
	}
	if ParkedCount() == 0 {
		t.Fatal("object neither freed nor parked after drain under a live pin")
	}
	if p := Pending(); p == 0 {
		t.Fatal("Pending() does not account for parked retirees")
	}

	s.Release()
	if got := SnapPinned(); got != 0 {
		t.Fatalf("SnapPinned() = %d after release, want 0", got)
	}
	// Release re-retires the parked object; one more grace period frees it.
	Drain()
	if got := freed.Load(); got != 1 {
		t.Fatalf("object freed %d times after release+drain, want 1", got)
	}
	if ParkedCount() != 0 {
		t.Fatalf("ParkedCount() = %d after release+drain, want 0", ParkedCount())
	}
}

// TestOverlappingSnapPins checks that parked retirees stay parked until the
// LAST covering pin is released, regardless of release order.
func TestOverlappingSnapPins(t *testing.T) {
	if !Enabled {
		t.Skip("epoch reclamation disabled (noepoch build)")
	}
	Drain()
	discardParked()

	s1 := SnapPin()
	s2 := SnapPin()
	var freed atomic.Int64
	g := Pin()
	Retire(g, new(int), countingFree(&freed))
	Unpin(g)
	for i := 0; i < 4; i++ {
		Drain()
	}
	if freed.Load() != 0 || ParkedCount() == 0 {
		t.Fatalf("object not parked under two live pins (freed=%d parked=%d)", freed.Load(), ParkedCount())
	}

	s1.Release()
	Drain()
	if freed.Load() != 0 {
		t.Fatal("object freed while the second covering pin was still live")
	}

	s2.Release()
	Drain()
	if got := freed.Load(); got != 1 {
		t.Fatalf("object freed %d times after both pins released, want 1", got)
	}
}

// TestRetireeBelowPinEpochIsNotParked: a snapshot pin only holds objects that
// were retired at or after its registration epoch - ordinary reclamation of
// everything older (which the snapshot cannot reach) proceeds at full rate
// while the pin is held.
func TestRetireeBelowPinEpochIsNotParked(t *testing.T) {
	if !Enabled {
		t.Skip("epoch reclamation disabled (noepoch build)")
	}
	Drain()
	discardParked()

	// Retire first, then advance the epoch once so the pin registers at a
	// strictly later epoch than the retiree's bucket, then pin and drain.
	var freed atomic.Int64
	g := Pin()
	Retire(g, new(int), countingFree(&freed))
	Unpin(g)
	tryAdvance()

	s := SnapPin()
	defer s.Release()
	Drain()
	if got := freed.Load(); got != 1 {
		t.Fatalf("object retired before the pin freed %d times under it, want 1 (parked=%d)", got, ParkedCount())
	}
}

// TestSnapReleaseNilSafe pins the noepoch contract: SnapPin returns nil when
// the layer is compiled out and Release on a nil guard must be a no-op.
func TestSnapReleaseNilSafe(t *testing.T) {
	var s *SnapGuard
	s.Release() // must not panic
}

// TestSnapSlotReuse cycles far more pins than there are slots: every release
// must return its slot, so sequential pin/release never exhausts the
// registry.
func TestSnapSlotReuse(t *testing.T) {
	if !Enabled {
		t.Skip("epoch reclamation disabled (noepoch build)")
	}
	for i := 0; i < 4*numSnapSlots; i++ {
		s := SnapPin()
		if s == nil {
			t.Fatalf("SnapPin returned nil on cycle %d", i)
		}
		s.Release()
	}
	if got := SnapPinned(); got != 0 {
		t.Fatalf("SnapPinned() = %d after cycling, want 0", got)
	}
}

// TestDiscardAllDropsParked: the full-quiescence reset abandons parked
// retirees to the garbage collector instead of freeing them through their
// callbacks.
func TestDiscardAllDropsParked(t *testing.T) {
	if !Enabled {
		t.Skip("epoch reclamation disabled (noepoch build)")
	}
	Drain()
	discardParked()

	s := SnapPin()
	var freed atomic.Int64
	g := Pin()
	Retire(g, new(int), countingFree(&freed))
	Unpin(g)
	for i := 0; i < 4; i++ {
		Drain()
	}
	if ParkedCount() == 0 {
		t.Fatal("object not parked under the live pin")
	}
	DiscardAll()
	if ParkedCount() != 0 {
		t.Fatalf("ParkedCount() = %d after DiscardAll, want 0", ParkedCount())
	}
	if freed.Load() != 0 {
		t.Fatal("DiscardAll ran free callbacks on parked retirees")
	}
	s.Release()
}

// TestSnapRegistryMatchesOpSlots: every tree scan holds a snapshot pin, so
// the snapshot registry must admit as many concurrent pins as there are
// operation slots, each on its own slot.
func TestSnapRegistryMatchesOpSlots(t *testing.T) {
	if !Enabled {
		t.Skip("epoch reclamation disabled (noepoch build)")
	}
	if numSnapSlots != numSlots {
		t.Fatalf("numSnapSlots = %d, want numSlots = %d", numSnapSlots, numSlots)
	}
	held := make(map[*SnapGuard]bool, numSlots)
	for i := 0; i < numSlots; i++ {
		s := SnapPin()
		if held[s] {
			t.Fatalf("pin %d reused a slot that is still held", i)
		}
		held[s] = true
	}
	if got := SnapPinned(); got != numSlots {
		t.Fatalf("SnapPinned() = %d with %d pins held, want %d", got, numSlots, numSlots)
	}
	for s := range held {
		s.Release()
	}
	if got := SnapPinned(); got != 0 {
		t.Fatalf("SnapPinned() = %d after releasing every pin, want 0", got)
	}
}

// TestStalledSnapPinDropsInsteadOfParking: a retiree covered by a snapshot
// pin the watchdog holds stalled must be dropped to the garbage collector —
// neither parked behind the pin nor recycled through its callback — while a
// pin that is not stalled keeps parking.
func TestStalledSnapPinDropsInsteadOfParking(t *testing.T) {
	if !Enabled {
		t.Skip("epoch reclamation disabled (noepoch build)")
	}
	Drain()
	discardParked()
	baseDrops := degradedDrops.Load()

	s := SnapPin()
	defer s.Release()
	s.stalled.Store(true)
	var freed atomic.Int64
	g := Pin()
	for i := 0; i < 10; i++ {
		Retire(g, new(int), countingFree(&freed))
	}
	Unpin(g)
	if p := Drain(); p != 0 {
		t.Fatalf("Pending() = %d under a stalled pin, want 0 (parked %d)", p, ParkedCount())
	}
	if freed.Load() != 0 {
		t.Fatalf("%d retirees covered by a stalled snapshot pin were recycled", freed.Load())
	}
	if got := degradedDrops.Load() - baseDrops; got != 10 {
		t.Fatalf("dropped %d retirees under the stalled pin, want 10", got)
	}

	s.stalled.Store(false)
	g = Pin()
	Retire(g, new(int), countingFree(&freed))
	Unpin(g)
	Drain()
	if ParkedCount() != 1 || freed.Load() != 0 {
		t.Fatalf("after un-stalling: parked %d, freed %d; want the retiree parked", ParkedCount(), freed.Load())
	}
}

// TestUnparkAllocationFree: Release un-parks through a reused scratch list,
// so re-retiring parked objects allocates nothing in steady state.
func TestUnparkAllocationFree(t *testing.T) {
	if !Enabled {
		t.Skip("epoch reclamation disabled (noepoch build)")
	}
	Drain()
	discardParked()
	var freed atomic.Int64
	free := countingFree(&freed)
	items := make([]entry, 16)
	batch := func() {
		for i := range items {
			items[i] = entry{obj: &freed, free: free}
		}
		park(1, items) // below every live pin's epoch: eligible at once
		unparkEligible()
		Drain()
	}
	batch() // warm the parked list, the scratch list and the retire buckets
	if allocs := testing.AllocsPerRun(100, batch); allocs != 0 {
		t.Fatalf("park/unpark/drain cycle allocates %.2f allocs/op, want 0", allocs)
	}
	if ParkedCount() != 0 {
		t.Fatalf("ParkedCount() = %d after unpark+drain, want 0", ParkedCount())
	}
}
