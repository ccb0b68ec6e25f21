package core

import (
	"errors"
	"testing"

	"kmem/internal/arena"
	"kmem/internal/machine"
	"kmem/internal/physmem"
)

// TestRefillGateDoomedAttempt pins the refill gate on an exhausted
// allocator at PressureCritical with every cache empty, no physical
// page free and a free span left to carve from. For a class with no
// cached block and no filed page, the gate charges exactly one look at
// the summary (insnSummaryTest and a read of its line), one read of the
// home page pool's line and the carve peek's read of the vmblk lock's
// line, and returns the refused carve's error without touching the
// global, page or vmblk lock. A whole failing allocation of that class
// then walks the full reclaim budget without taking any of those locks,
// reaching the global pool or calling physmem. A filed page or a set
// pool bit lets the attempt run, and it succeeds.
func TestRefillGateDoomedAttempt(t *testing.T) {
	a, m := pressureAllocator(t, 20, &PressureConfig{LowPages: 8, MinPages: 6}, nil)
	c := m.CPU(0)
	// A 64-byte block taken now leaves its page filed, partly free, in
	// the 64-byte class's page pool once exhaustion has swept the caches.
	small, err := a.Alloc(c, 64)
	if err != nil {
		t.Fatal(err)
	}
	held := exhaust(a, c)
	if free := m.Phys().Available(); free != 0 || a.Pressure() != PressureCritical {
		t.Fatalf("after exhaustion: %d free pages at %v, want 0 at critical", free, a.Pressure())
	}
	if pg, _ := a.vm.findSpan(c, 1, 0); pg == -1 {
		t.Fatal("no free span left; the carve peek could not refuse")
	}

	cls := a.classFor(2048)
	home := a.classes[cls].globalFor(c)
	locks := func() [3]machine.LockStats {
		return [3]machine.LockStats{home.lk.Stats(), home.pp.lk.Stats(), a.vm.lk.Stats()}
	}
	locks0 := locks()
	want := []machine.Line{a.occ.line, home.pp.line, a.vm.lk.Line()}
	before := c.Stats()
	c.StartTrace()
	err = a.refillDoomed(c, cls, home)
	trace := append([]machine.TraceEvent(nil), c.StopTrace()...)
	after := c.Stats()
	if !errors.Is(err, physmem.ErrNoPages) {
		t.Fatalf("gate = %v, want the refused carve's %v", err, physmem.ErrNoPages)
	}
	if len(trace) != len(want) {
		t.Fatalf("gate made %d accesses %v, want %d reads", len(trace), trace, len(want))
	}
	var accessCycles int64
	for i, ev := range trace {
		if ev.Kind != machine.ReadAccess || ev.Line != want[i] {
			t.Errorf("gate access %d is a %v of line %#x, want a read of %#x", i, ev.Kind, ev.Line, want[i])
		}
		accessCycles += ev.Cycles
	}
	insns := uint64(insnSummaryTest + len(want))
	if got := after.Instructions - before.Instructions; got != insns {
		t.Errorf("gate charged %d insns, want %d", got, insns)
	}
	if got, want := after.Cycles-before.Cycles, int64(insns)*m.Config().CyclesPerInsn+accessCycles; got != want {
		t.Errorf("gate charged %d cycles, want %d", got, want)
	}
	if got := after.Atomics - before.Atomics; got != 0 {
		t.Errorf("gate made %d atomic accesses, want 0", got)
	}
	if got := locks(); got != locks0 {
		t.Errorf("gate moved the global, page and vmblk lock stats %+v -> %+v", locks0, got)
	}

	gets0 := home.ev[EvGlobalGet]
	fails0 := m.Phys().Stats().Failures
	steps0 := a.ReclaimStepsDone()
	if _, err := a.Alloc(c, 2048); !errors.Is(err, ErrNoMemory) {
		t.Fatalf("Alloc(2048) = %v, want ErrNoMemory", err)
	}
	if got, want := a.ReclaimStepsDone()-steps0, uint64(a.reclaimSteps()); got != want {
		t.Errorf("failing Alloc ran %d reclaim steps, want the full budget of %d", got, want)
	}
	if got := locks(); got != locks0 {
		t.Errorf("failing Alloc moved the global, page and vmblk lock stats %+v -> %+v", locks0, got)
	}
	if got := home.ev[EvGlobalGet] - gets0; got != 0 {
		t.Errorf("failing Alloc made %d global gets, want 0", got)
	}
	if got := m.Phys().Stats().Failures - fails0; got != 0 {
		t.Errorf("failing Alloc made %d refused physmem calls, want 0", got)
	}

	// A filed page: the 64-byte class's attempt runs and is served.
	if a.classes[a.classFor(64)].pages[0].filed.Load() == 0 {
		t.Fatal("the 64-byte page is not filed; the case tests nothing")
	}
	if err := a.refillDoomed(c, a.classFor(64), a.classes[a.classFor(64)].globalFor(c)); err != nil {
		t.Errorf("gate with a filed page = %v, want nil", err)
	}
	b, err := a.Alloc(c, 64)
	if err != nil {
		t.Fatalf("Alloc(64) with a filed page: %v", err)
	}
	held64 := []arena.Addr{small, b}

	// A set pool bit: a page-sized block drained to the global pool.
	a.Free(c, held[0], 4096)
	a.DrainCPU(c, c.ID())
	big := a.classes[a.classFor(4096)].globalFor(c)
	if !a.occ.has(big.bit()) {
		t.Fatal("the drained block did not set its pool's bit")
	}
	if err := a.refillDoomed(c, big.cls, big); err != nil {
		t.Errorf("gate with a pool bit set = %v, want nil", err)
	}
	if held[0], err = a.Alloc(c, 4096); err != nil {
		t.Fatalf("Alloc(4096) with a cached block: %v", err)
	}

	for _, b := range held {
		a.Free(c, b, 4096)
	}
	for _, b := range held64 {
		a.Free(c, b, 64)
	}
	a.DrainAll(c)
	checkOK(t, a)
}
