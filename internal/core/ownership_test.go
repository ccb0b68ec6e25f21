package core

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"kmem/internal/machine"
)

// The per-CPU discipline — one goroutine drives a CPU handle at a time —
// is enforced by the per-CPU regions' claim word in Native mode, always
// on. These tests drive it through the allocator; the primitive itself
// is tested deterministically in internal/machine (TestRegion*).

func TestDebugOwnershipCatchesSharedHandle(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.Mode = machine.Native
	cfg.NumCPUs = 2
	cfg.MemBytes = 16 << 20
	cfg.PhysPages = 1024
	m := machine.New(cfg)
	a, err := New(m, Params{RadixSort: true})
	if err != nil {
		t.Fatal(err)
	}
	// Two goroutines misuse the SAME CPU handle: the region's claim word
	// must catch it. Catching requires the scheduler to actually overlap
	// the two goroutines inside a per-CPU critical section; on a
	// single-core host that can take a while, so the budget is a
	// generous op count — never a wall-clock deadline, which would make
	// the test's work depend on host speed.
	attempts := scaledOps(2_000_000)
	c := m.CPU(0)
	var caught atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					if msg, _ := r.(string); !strings.Contains(msg, "entered concurrently by two goroutines") {
						t.Errorf("unexpected panic: %v", r)
					}
					caught.Store(true)
				}
			}()
			for op := 0; op < attempts && !caught.Load(); op++ {
				b, err := a.Alloc(c, 64)
				if err != nil {
					return
				}
				a.Free(c, b, 64)
				runtime.Gosched()
			}
		}()
	}
	wg.Wait()
	if !caught.Load() {
		t.Skip("scheduler never overlapped the goroutines (single-core host); primitive covered in internal/machine")
	}
}

// TestDebugOwnershipAllowsCorrectUse: one goroutine per CPU handle never
// trips the check, and neither do foreign DrainCPU and Stats calls —
// interferers wait for an owner instead of counting as a second one.
func TestDebugOwnershipAllowsCorrectUse(t *testing.T) {
	const workers = 4
	cfg := machine.DefaultConfig()
	cfg.Mode = machine.Native
	cfg.NumCPUs = workers + 1 // the last CPU drives the foreign calls
	cfg.MemBytes = 16 << 20
	cfg.PhysPages = 1024
	m := machine.New(cfg)
	a, err := New(m, Params{RadixSort: true})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var stop atomic.Bool
	var foreign sync.WaitGroup
	foreign.Add(1)
	go func(c *machine.CPU) {
		defer foreign.Done()
		for i := 0; !stop.Load(); i++ {
			a.DrainCPU(c, i%workers)
			a.Stats(c)
			runtime.Gosched()
		}
	}(m.CPU(workers))
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(c *machine.CPU) {
			defer wg.Done()
			for i := 0; i < scaledOps(20000); i++ {
				b, err := a.Alloc(c, 64)
				if err != nil {
					t.Error(err)
					return
				}
				a.Free(c, b, 64)
			}
		}(m.CPU(g))
	}
	wg.Wait()
	stop.Store(true)
	foreign.Wait()
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestDebugOwnershipSimSingleGoroutine(t *testing.T) {
	// Sim mode drives all CPUs from one goroutine; the check must not
	// misfire on that legitimate pattern (sections never overlap).
	a, m := testAllocator(t, 2, 1024, Params{RadixSort: true})
	for i := 0; i < 100; i++ {
		c := m.CPU(i % 2)
		b, err := a.Alloc(c, 64)
		if err != nil {
			t.Fatal(err)
		}
		a.Free(c, b, 64)
	}
}
