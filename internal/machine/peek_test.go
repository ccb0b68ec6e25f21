package machine

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestPeekSimChargesNothing: in Sim mode a Peek has no cost of its
// own on either Region model or on a SpinLock — no interrupt window,
// no epoch bump, no test-and-set, no acquisition — so a peek that
// reads one line costs exactly that read.
func TestPeekSimChargesNothing(t *testing.T) {
	m := simMachine(2)
	c := m.CPU(0)
	line := m.NewMetaLine()
	m.CPU(1).Write(line) // exclusive elsewhere: the read below is a miss

	charge := func(f func()) (int64, uint64, uint64) {
		before := c.Stats()
		f()
		after := c.Stats()
		return after.Cycles - before.Cycles, after.Instructions - before.Instructions, after.Atomics - before.Atomics
	}

	var intr, rs Region
	rs.InitRseq(m, 0)
	lk := NewSpinLock(m)
	peeks := map[string]func(fn func()){
		"intr region": func(fn func()) { intr.Peek(c, fn) },
		"rseq region": func(fn func()) { rs.Peek(c, fn) },
		"spinlock":    func(fn func()) { lk.Peek(c, fn) },
	}
	for name, peek := range peeks {
		ran := false
		if cyc, ins, at := charge(func() { peek(func() { ran = true }) }); cyc != 0 || ins != 0 || at != 0 {
			t.Errorf("%s: empty Peek charged %d cycles / %d insns / %d atomics, want 0", name, cyc, ins, at)
		}
		if !ran {
			t.Errorf("%s: Peek did not run fn", name)
		}
	}
	if ls := lk.Stats(); ls != (LockStats{}) {
		t.Errorf("spinlock Peek touched the lock's stats: %+v", ls)
	}

	// A peek that reads a line costs the read and nothing more: compare
	// against the same read on a twin machine.
	twin := simMachine(2)
	tl := twin.NewMetaLine()
	twin.CPU(1).Write(tl)
	tc := twin.CPU(0)
	tc.Read(tl)
	want := tc.Stats()
	if cyc, ins, _ := charge(func() { lk.Peek(c, func() { c.Read(line) }) }); cyc != want.Cycles || ins != want.Instructions {
		t.Errorf("Peek of one line = %d cycles / %d insns, want the bare read's %d / %d", cyc, ins, want.Cycles, want.Instructions)
	}
}

// TestRegionPeekNativeNeverRestartsOwner: an owner hammering its
// region while a foreign goroutine peeks it as fast as it can never
// restarts — Peek holds the claim word but leaves the epoch alone —
// and every peek sees a consistent count.
func TestRegionPeekNativeNeverRestartsOwner(t *testing.T) {
	m := nativeMachine(2)
	owner, foreign := m.CPU(0), m.CPU(1)
	var r Region
	var a, b int // written by the owner only, always equal outside it
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			r.Peek(foreign, func() {
				if a != b {
					t.Errorf("Peek saw a torn update: %d != %d", a, b)
				}
			})
		}
	}()
	restarts := 0
	for i := 0; i < 20000; i++ {
		restarts += r.Run(owner, func(int) { a++; b++ })
	}
	stop.Store(true)
	wg.Wait()
	if restarts != 0 {
		t.Fatalf("owner restarted %d times under peeks, want 0", restarts)
	}
}

// TestRegionPeekNativeWaitsOutInterferer: a Peek that finds a drain
// inside the region waits for it, so the look never overlaps a write.
func TestRegionPeekNativeWaitsOutInterferer(t *testing.T) {
	m := nativeMachine(3)
	var r Region
	var wg sync.WaitGroup
	release := make(chan struct{})
	holdRegion(func(body func()) { r.Interfere(m.CPU(1), body) }, release, &wg)

	var ran atomic.Bool
	wg.Add(1)
	go func() {
		defer wg.Done()
		r.Peek(m.CPU(2), func() { ran.Store(true) })
	}()
	assertBlocked(t, &ran, "peek")
	close(release)
	wg.Wait()
	if !ran.Load() {
		t.Fatal("peek never ran")
	}
}

// TestRegionPeekNativeOwnerWaitsOutPeek: an owner that finds a peek
// inside waits for it and then runs with no restart.
func TestRegionPeekNativeOwnerWaitsOutPeek(t *testing.T) {
	m := nativeMachine(2)
	owner, foreign := m.CPU(0), m.CPU(1)
	var r Region
	var wg sync.WaitGroup
	release := make(chan struct{})
	holdRegion(func(body func()) { r.Peek(foreign, body) }, release, &wg)

	var ran atomic.Bool
	restarts := make(chan int, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		restarts <- r.Run(owner, func(int) { ran.Store(true) })
	}()
	assertBlocked(t, &ran, "owner")
	close(release)
	wg.Wait()
	if !ran.Load() {
		t.Fatal("owner never ran")
	}
	if n := <-restarts; n != 0 {
		t.Fatalf("owner restarts = %d after waiting out a peek, want 0", n)
	}
}

// TestSpinLockPeekNativeWaitsOutHolder: a SpinLock Peek in Native mode
// holds the mutex, so it waits for the current holder.
func TestSpinLockPeekNativeWaitsOutHolder(t *testing.T) {
	m := nativeMachine(2)
	lk := NewSpinLock(m)
	lk.Acquire(m.CPU(0))
	var ran atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		lk.Peek(m.CPU(1), func() { ran.Store(true) })
	}()
	assertBlocked(t, &ran, "spinlock peek")
	lk.Release(m.CPU(0))
	wg.Wait()
	if !ran.Load() {
		t.Fatal("spinlock peek never ran")
	}
}
