package machine

import (
	"runtime"
	"sync"
	"testing"
	"unsafe"
)

// TestSpinLockWaitHoldAccounting pins the wait-vs-hold cycle split: an
// uncontended acquire records hold time and zero wait; a contended
// acquire records its spin as both SpinCycles and LastWait; and the next
// uncontended acquire resets LastWait.
func TestSpinLockWaitHoldAccounting(t *testing.T) {
	m := simMachine(2)
	c0, c1 := m.CPU(0), m.CPU(1)
	lk := NewSpinLock(m)

	lk.Acquire(c0)
	if w := lk.LastWait(); w != 0 {
		t.Fatalf("first acquire waited %d cycles", w)
	}
	c0.Work(1000)
	lk.Release(c0)
	ls := lk.Stats()
	if ls.HoldCycles < 1000 {
		t.Fatalf("hold of 1000 work cycles recorded as %d", ls.HoldCycles)
	}
	if ls.SpinCycles != 0 {
		t.Fatalf("uncontended history shows %d spin cycles", ls.SpinCycles)
	}

	// c1 starts near time 0 and must spin past c0's hold.
	lk.Acquire(c1)
	w := lk.LastWait()
	if w <= 0 {
		t.Fatal("contended acquire recorded no wait")
	}
	ls = lk.Stats()
	if ls.SpinCycles != w {
		t.Fatalf("SpinCycles %d != LastWait %d after one contended acquire", ls.SpinCycles, w)
	}
	if ls.HoldCycles < 1000 {
		t.Fatalf("HoldCycles %d lost the first hold", ls.HoldCycles)
	}
	c1.Work(10)
	lk.Release(c1)

	// A later, uncontended acquire must not inherit the old wait.
	c1.Work(100000)
	lk.Acquire(c1)
	if w := lk.LastWait(); w != 0 {
		t.Fatalf("uncontended reacquire reports stale wait %d", w)
	}
	lk.Release(c1)
	ls = lk.Stats()
	if ls.Acquisitions != 3 || ls.Contended != 1 {
		t.Fatalf("lock stats: %+v", ls)
	}
}

// TestSpinLockStatsNativeZeroWait: Native mode takes the sync.Mutex path
// and must never report simulated wait or hold cycles.
func TestSpinLockStatsNativeZeroWait(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mode = Native
	cfg.NumCPUs = 2
	m := New(cfg)
	lk := NewSpinLock(m)
	c := m.CPU(0)
	lk.Acquire(c)
	if w := lk.LastWait(); w != 0 {
		t.Fatalf("native LastWait = %d", w)
	}
	lk.Release(c)
	if ls := lk.Stats(); ls.SpinCycles != 0 || ls.HoldCycles != 0 || ls.Acquisitions != 0 {
		t.Fatalf("native lock stats populated: %+v", ls)
	}
}

// unpaddedRegions lays n regions out from a line boundary at a 32-byte
// stride, the size of an unpadded region, so neighbouring CPUs' claim
// words share a line. Overlapping the blank pad is safe: no code ever
// writes it, and the region holds no pointers.
func unpaddedRegions(n int) []*Region {
	const line, stride = 64, 32
	buf := make([]uint64, (line+(n-1)*stride+int(unsafe.Sizeof(Region{})))/8)
	skip := (line - int(uintptr(unsafe.Pointer(&buf[0]))%line)) % line / 8
	rs := make([]*Region, n)
	for i := range rs {
		rs[i] = (*Region)(unsafe.Pointer(&buf[skip+i*stride/8]))
	}
	return rs
}

// benchRegions has each worker enter its own region on its own CPU
// handle — no shared data, so any slowdown between two layouts is pure
// cache-line interference. Race-detector clean.
func benchRegions(b *testing.B, m *Machine, regions []*Region) {
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := range regions {
		wg.Add(1)
		go func(c *CPU, r *Region) {
			defer wg.Done()
			for i := 0; i < b.N; i++ {
				r.Run(c, func(int) {})
			}
		}(m.CPU(w), regions[w])
	}
	wg.Wait()
}

// BenchmarkRegionFalseSharing compares regions packed at their unpadded
// 32-byte stride against the padded one-line-each layout, under
// per-worker (uncontended) use in Native mode. Run with -race to verify
// the harness is race-free; run without -race for meaningful timings.
func BenchmarkRegionFalseSharing(b *testing.B) {
	workers := runtime.GOMAXPROCS(0)
	if workers > 8 {
		workers = 8
	}
	if workers < 2 || runtime.NumCPU() < 2 {
		// Time-slicing goroutines on one core cannot bounce a cache line
		// between caches; numbers there would only measure footprint.
		b.Skip("needs >= 2 hardware CPUs to exhibit line sharing")
	}
	newNative := func() *Machine {
		cfg := DefaultConfig()
		cfg.Mode = Native
		cfg.NumCPUs = workers
		return New(cfg)
	}
	b.Run("unpadded", func(b *testing.B) {
		benchRegions(b, newNative(), unpaddedRegions(workers))
	})
	b.Run("padded", func(b *testing.B) {
		padded := make([]Region, workers)
		regions := make([]*Region, workers)
		for i := range regions {
			regions[i] = &padded[i]
		}
		benchRegions(b, newNative(), regions)
	})
}
