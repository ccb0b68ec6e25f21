package core

import (
	"errors"
	"testing"

	"kmem/internal/arena"
	"kmem/internal/machine"
	"kmem/internal/physmem"
)

// TestCarvePeekRefusesWithoutLock pins the eager carve peek: with no
// free physical page at PressureCritical and every cache empty, a
// small-class allocation (which must carve a page) and a large one both
// fail with ErrNoMemory without once acquiring the vmblk lock and
// without a physmem call, though a free span is there to carve from.
func TestCarvePeekRefusesWithoutLock(t *testing.T) {
	a, m := pressureAllocator(t, 20, &PressureConfig{LowPages: 8, MinPages: 6}, nil)
	c := m.CPU(0)
	held := exhaust(a, c)
	if free := m.Phys().Available(); free != 0 || a.Pressure() != PressureCritical {
		t.Fatalf("after exhaustion: %d free pages at %v, want 0 at critical", free, a.Pressure())
	}
	if pg, _ := a.vm.findSpan(c, 1, 0); pg == -1 {
		t.Fatal("no free span left; the peek would not be the reason for refusal")
	}
	for _, size := range []uint64{64, 4096, 8192} {
		locks0 := a.vm.lk.Stats().Acquisitions
		fails0 := m.Phys().Stats().Failures
		if _, err := a.Alloc(c, size); !errors.Is(err, ErrNoMemory) {
			t.Fatalf("Alloc(%d) = %v, want ErrNoMemory", size, err)
		}
		if got := a.vm.lk.Stats().Acquisitions - locks0; got != 0 {
			t.Errorf("Alloc(%d) took the vmblk lock %d times, want 0", size, got)
		}
		if got := m.Phys().Stats().Failures - fails0; got != 0 {
			t.Errorf("Alloc(%d) made %d refused physmem calls, want 0", size, got)
		}
	}
	for _, b := range held {
		a.Free(c, b, 4096)
	}
	a.DrainAll(c)
	checkOK(t, a)
}

// TestCarvePeekLazyResidentSpan checks the lazy rule: a free span that
// still holds frames can serve a request even though physmem has no
// free page, so the peek must let the request through. Once exhaustion
// has used every free frame, the peek refuses a carve and a large
// request without the lock.
func TestCarvePeekLazyResidentSpan(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.NumCPUs = 2
	cfg.MemBytes = 16 << 20
	cfg.PhysPages = 20
	m := machine.New(cfg)
	a, err := New(m, Params{
		RadixSort:    true,
		LazySpans:    true,
		VmblkShift:   22,
		TargetFor:    func(uint32) int { return 2 },
		GblTargetFor: func(uint32) int { return 1 },
		Pressure:     &PressureConfig{LowPages: 8, MinPages: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	c := m.CPU(0)
	big, err := a.Alloc(c, 8192)
	if err != nil {
		t.Fatal(err)
	}
	held := exhaust(a, c)
	a.Free(c, big, 8192)
	if free := m.Phys().Available(); free != 0 || a.Pressure() != PressureCritical {
		t.Fatalf("after exhaustion: %d free pages at %v, want 0 at critical", free, a.Pressure())
	}
	if a.vm.freeResident != 2 {
		t.Fatalf("%d resident free-span pages, want the freed large block's 2", a.vm.freeResident)
	}
	steps0 := a.ReclaimStepsDone()
	b, err := a.Alloc(c, 8192)
	if err != nil {
		t.Fatalf("a free span holding frames was refused: %v", err)
	}
	// Served in place by the resident span, not after a reclaim step
	// decommitted its frames.
	if a.ReclaimStepsDone() != steps0 || a.vm.freeResident != 0 {
		t.Errorf("%d reclaim steps ran and %d resident free-span pages remain, want 0 and 0",
			a.ReclaimStepsDone()-steps0, a.vm.freeResident)
	}
	checkOK(t, a)

	// Now no free span holds frames: the peek refuses, lock untouched.
	held = append(held, exhaust(a, c)...)
	if a.vm.freeResident != 0 || m.Phys().Available() != 0 {
		t.Fatalf("%d resident free-span pages, %d free pages, want 0 and 0",
			a.vm.freeResident, m.Phys().Available())
	}
	// The reclaim rotation's decommit step takes the vmblk lock, so the
	// carve and the large path are asked directly.
	locks0 := a.vm.lk.Stats().Acquisitions
	if _, err := a.vm.allocSplitPage(c, 0, a.classFor(64)); !errors.Is(err, physmem.ErrNoPages) {
		t.Fatalf("carve = %v, want ErrNoPages", err)
	}
	if _, err := a.vm.allocLarge(c, 8192); !errors.Is(err, physmem.ErrNoPages) {
		t.Fatalf("large = %v, want ErrNoPages", err)
	}
	if got := a.vm.lk.Stats().Acquisitions - locks0; got != 0 {
		t.Errorf("refused requests took the vmblk lock %d times, want 0", got)
	}
	if _, err := a.Alloc(c, 4096); !errors.Is(err, ErrNoMemory) {
		t.Fatalf("Alloc(4096) = %v, want ErrNoMemory", err)
	}

	a.Free(c, b, 8192)
	for _, h := range held {
		a.Free(c, h, 4096)
	}
	a.DrainAll(c)
	checkOK(t, a)
}

// TestCarvePeekKeepsErrNoVA checks that the peek never turns address
// space exhaustion into a frame shortage: with the arena's one vmblk
// fully carved and no physical page free, a request finds no free span,
// so the peek stands aside and the locked path answers ErrNoVA.
func TestCarvePeekKeepsErrNoVA(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.NumCPUs = 2
	cfg.MemBytes = 1 << 20
	cfg.PhysPages = int64(cfg.MemBytes / cfg.PageBytes)
	m := machine.New(cfg)
	a, err := New(m, Params{
		RadixSort:    true,
		VmblkShift:   20,
		TargetFor:    func(uint32) int { return 2 },
		GblTargetFor: func(uint32) int { return 1 },
		Pressure:     &PressureConfig{LowPages: 8, MinPages: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	c := m.CPU(0)
	var held []arena.Addr
	var err2 error
	for {
		var b arena.Addr
		if b, err2 = a.Alloc(c, 4096); err2 != nil {
			break
		}
		held = append(held, b)
	}
	if free := m.Phys().Available(); free != 0 || a.Pressure() != PressureCritical {
		t.Fatalf("after exhaustion: %d free pages at %v, want 0 at critical", free, a.Pressure())
	}
	for _, size := range []uint64{64, 4096, 8192} {
		if _, err := a.Alloc(c, size); !errors.Is(err, ErrNoVA) {
			t.Errorf("Alloc(%d) on an exhausted arena = %v, want ErrNoVA", size, err)
		}
	}
	if !errors.Is(err2, ErrNoVA) {
		t.Errorf("exhausting Alloc = %v, want ErrNoVA", err2)
	}
	for _, b := range held {
		a.Free(c, b, 4096)
	}
	a.DrainAll(c)
	checkOK(t, a)
}
