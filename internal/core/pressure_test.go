package core

import (
	"errors"
	"testing"

	"kmem/internal/arena"
	"kmem/internal/blocklist"
	"kmem/internal/machine"
)

// pressureAllocator builds a Sim allocator with a tiny physical pool and
// explicit watermarks, sized so that 4096-byte allocations (one block
// per page — no partially-free pages muddying the accounting) walk the
// pool through ok → low → critical deterministically.
func pressureAllocator(t *testing.T, physPages int64, pc *PressureConfig, wc *WaitConfig) (*Allocator, *machine.Machine) {
	t.Helper()
	cfg := machine.DefaultConfig()
	cfg.NumCPUs = 2
	cfg.MemBytes = 16 << 20
	cfg.PhysPages = physPages
	m := machine.New(cfg)
	a, err := New(m, Params{
		RadixSort:    true,
		TargetFor:    func(uint32) int { return 2 },
		GblTargetFor: func(uint32) int { return 1 },
		Pressure:     pc,
		Wait:         wc,
	})
	if err != nil {
		t.Fatal(err)
	}
	return a, m
}

func TestPressureLevelTransitionsAndEvents(t *testing.T) {
	// Capacity 24: one vmblk header takes 8 pages, leaving 16 data pages.
	var ec EventCounter
	cfg := machine.DefaultConfig()
	cfg.NumCPUs = 2
	cfg.MemBytes = 16 << 20
	cfg.PhysPages = 24
	m := machine.New(cfg)
	a, err := New(m, Params{
		RadixSort:    true,
		TargetFor:    func(uint32) int { return 2 },
		GblTargetFor: func(uint32) int { return 1 },
		Pressure:     &PressureConfig{LowPages: 8, MinPages: 4},
		Hook:         ec.Hook(),
	})
	if err != nil {
		t.Fatal(err)
	}
	c := m.CPU(0)
	if a.Pressure() != PressureOK {
		t.Fatalf("initial pressure %v", a.Pressure())
	}

	var held []arena.Addr
	alloc := func() {
		t.Helper()
		b, err := a.Alloc(c, 4096)
		if err != nil {
			t.Fatalf("alloc #%d: %v", len(held), err)
		}
		held = append(held, b)
	}
	// Header map (8) happens on the first allocation; drive mapped pages
	// up until free crosses the low then the min watermark.
	for a.Pressure() == PressureOK {
		alloc()
	}
	if a.Pressure() != PressureLow {
		t.Fatalf("pressure after crossing low = %v", a.Pressure())
	}
	free := a.m.Phys().Available()
	if free > 8 || free <= 4 {
		t.Fatalf("free pages %d outside (4, 8] at PressureLow", free)
	}
	for a.Pressure() == PressureLow {
		alloc()
	}
	if a.Pressure() != PressureCritical {
		t.Fatalf("pressure after crossing min = %v", a.Pressure())
	}
	if ec.Count(EvPressure) < 2 {
		t.Fatalf("EvPressure fired %d times, want >= 2", ec.Count(EvPressure))
	}

	// Free everything: pages unmap and the level returns to ok.
	for _, b := range held {
		a.Free(c, b, 4096)
	}
	a.DrainAll(c)
	if a.Pressure() != PressureOK {
		t.Fatalf("pressure after freeing all = %v (free=%d)", a.Pressure(), a.m.Phys().Available())
	}
	st := a.Stats(c)
	if st.Pressure.Level != PressureOK || st.Pressure.Transitions < 3 {
		t.Fatalf("pressure stats = %+v", st.Pressure)
	}
	if st.Phys.LowWater != 8 || st.Phys.MinWater != 4 {
		t.Fatalf("phys watermarks not plumbed: %+v", st.Phys)
	}
	checkOK(t, a)
}

func TestEffTargetClampsUnderPressure(t *testing.T) {
	a, _ := pressureAllocator(t, 1024, &PressureConfig{LowPages: 8, MinPages: 4}, nil)
	if got := a.effTarget(10); got != 10 {
		t.Fatalf("effTarget(10) at ok = %d", got)
	}
	a.pressure.Store(int32(PressureLow))
	if got := a.effTarget(10); got != 5 {
		t.Fatalf("effTarget(10) at low = %d", got)
	}
	if got := a.effTarget(1); got != 1 {
		t.Fatalf("effTarget(1) at low = %d", got)
	}
	a.pressure.Store(int32(PressureCritical))
	if got := a.effTarget(3); got != 1 {
		t.Fatalf("effTarget(3) at critical = %d", got)
	}
}

func TestGlobalPoolDropsSurplusUnderPressure(t *testing.T) {
	// Under PressureLow the global layer keeps at most gbltarget lists;
	// the normal path keeps up to 2*gbltarget. Use class 16 (target 2,
	// gbltarget 1 in this fixture) and feed the pool lists directly. No
	// PressureConfig: the level is set by hand so real watermark
	// transitions cannot overwrite it mid-test.
	a, m := pressureAllocator(t, 1024, nil, nil)
	c := m.CPU(0)
	g := a.classes[0].globals[0] // 16-byte class

	alloc8 := func() []arena.Addr {
		out := make([]arena.Addr, 8)
		for i := range out {
			b, err := a.Alloc(c, 16)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = b
		}
		return out
	}
	feed := func(bs []arena.Addr) {
		for _, b := range bs {
			g.putList(c, singleton(c, a, b))
		}
	}

	// Normal operation: 8 single-block puts regroup into 2-block lists;
	// the pool spills down only on exceeding 2*gbltarget = 2 lists, so it
	// retains 2 lists (4 blocks).
	feed(alloc8())
	if n := g.blocksHeld(c); n != 4 {
		t.Fatalf("pool holds %d blocks, want 4 (2*gbltarget lists)", n)
	}
	// Empty the pool without refilling (steals take only cached blocks),
	// then refeed under pressure: retention halves to gbltarget = 1 list.
	var stolen []arena.Addr
	for {
		l := g.stealList(c)
		if l.Empty() {
			break
		}
		for !l.Empty() {
			stolen = append(stolen, l.Pop(c, a.mem))
		}
	}
	a.pressure.Store(int32(PressureLow))
	feed(alloc8())
	if n := g.blocksHeld(c); n > 2 {
		t.Fatalf("pool holds %d blocks under pressure, capacity is gbltarget = 2", n)
	}
	a.pressure.Store(0)
	for _, b := range stolen {
		a.Free(c, b, 16)
	}
}

func TestCriticalUsesIncrementalReclaim(t *testing.T) {
	// Capacity 20 → 12 data pages after the header. Allocating 4096-byte
	// blocks to exhaustion crosses into PressureCritical before the first
	// refill failure, so every reclaim retry must take the incremental
	// path: ReclaimSteps grows, stop-the-world Reclaims stays 0, and
	// every last page is still allocated (design goal 5).
	a, m := pressureAllocator(t, 20, &PressureConfig{LowPages: 8, MinPages: 6}, nil)
	c0, c1 := m.CPU(0), m.CPU(1)

	var held []arena.Addr
	for {
		b, err := a.Alloc(c1, 4096)
		if err != nil {
			if !errors.Is(err, ErrNoMemory) {
				t.Fatalf("exhaustion error = %v, want ErrNoMemory", err)
			}
			break
		}
		held = append(held, b)
	}
	if len(held) != 12 {
		t.Fatalf("allocated %d of 12 data pages", len(held))
	}
	if a.Pressure() != PressureCritical {
		t.Fatalf("pressure at exhaustion = %v", a.Pressure())
	}
	if got := a.Reclaims(); got != 0 {
		t.Fatalf("stop-the-world reclaims = %d under critical pressure", got)
	}
	if got := a.ReclaimStepsDone(); got == 0 {
		t.Fatal("no incremental reclaim steps ran")
	}

	// Free two blocks on CPU 1: they lodge in its per-CPU cache. CPU 0's
	// next allocation finds the global and page layers dry and must
	// recover the cached blocks via incremental reclaim steps — "any
	// given CPU must be able to allocate the last remaining buffer".
	a.Free(c1, held[len(held)-1], 4096)
	a.Free(c1, held[len(held)-2], 4096)
	held = held[:len(held)-2]
	stepsBefore := a.ReclaimStepsDone()
	b, err := a.Alloc(c0, 4096)
	if err != nil {
		t.Fatalf("CPU 0 could not recover CPU 1's cached block: %v", err)
	}
	held = append(held, b)
	if a.ReclaimStepsDone() == stepsBefore {
		t.Fatal("recovery did not use incremental reclaim")
	}
	if got := a.Reclaims(); got != 0 {
		t.Fatalf("stop-the-world reclaims = %d, want 0", got)
	}

	for _, b := range held {
		a.Free(c0, b, 4096)
	}
	a.DrainAll(c0)
	checkOK(t, a)
	if a.Pressure() != PressureOK {
		t.Fatalf("pressure after release = %v", a.Pressure())
	}
	if mapped := m.Phys().Mapped(); mapped != 8 {
		t.Fatalf("mapped = %d after full release, want 8 header pages", mapped)
	}
}

func TestAllocWaitSimBoundedFailure(t *testing.T) {
	// With the pool exhausted and no other CPU freeing, AllocWait must
	// charge its bounded exponential backoff deterministically and then
	// fail with the typed error.
	a, m := pressureAllocator(t, 20, &PressureConfig{LowPages: 8, MinPages: 6},
		&WaitConfig{MaxWaits: 3, BaseBackoffCycles: 1000, MaxBackoffCycles: 4000})
	c := m.CPU(0)
	var held []arena.Addr
	for {
		b, err := a.Alloc(c, 4096)
		if err != nil {
			break
		}
		held = append(held, b)
	}

	start := c.Now()
	_, err := a.AllocWait(c, 4096)
	if !errors.Is(err, ErrNoMemory) {
		t.Fatalf("AllocWait on exhausted pool = %v, want ErrNoMemory", err)
	}
	// Three waits: 1000 + 2000 + 4000 cycles of idle backoff at minimum.
	if delta := c.Now() - start; delta < 7000 {
		t.Fatalf("AllocWait charged only %d cycles of backoff", delta)
	}
	st := a.Stats(c)
	if st.Pressure.Waits != 3 {
		t.Fatalf("waits = %d, want 3", st.Pressure.Waits)
	}

	// After a free the same call succeeds without exhausting its budget.
	a.Free(c, held[len(held)-1], 4096)
	held = held[:len(held)-1]
	b, err := a.AllocWait(c, 4096)
	if err != nil {
		t.Fatalf("AllocWait after free: %v", err)
	}
	held = append(held, b)

	for _, b := range held {
		a.Free(c, b, 4096)
	}
	a.DrainAll(c)
	checkOK(t, a)
}

func TestAllocWaitBadSize(t *testing.T) {
	a, _ := pressureAllocator(t, 1024, nil, nil)
	if _, err := a.AllocWait(a.m.CPU(0), 0); !errors.Is(err, ErrBadSize) {
		t.Fatalf("AllocWait(0) = %v, want ErrBadSize", err)
	}
}

// singleton builds a one-block list.
func singleton(c *machine.CPU, a *Allocator, b arena.Addr) (l blocklist.List) {
	l.Push(c, a.mem, b)
	return l
}

// exhaust allocates 4096-byte blocks on c until the pool refuses one.
// The refused allocation ran a full reclaim sweep, so afterwards every
// cache and pool is empty and the caller holds every data page.
func exhaust(a *Allocator, c *machine.CPU) (held []arena.Addr) {
	for {
		b, err := a.Alloc(c, 4096)
		if err != nil {
			return held
		}
		held = append(held, b)
	}
}

// TestCriticalFailureRetriesOnlyOnProgress pins the cost of a failure
// when memory is truly gone: the allocation still walks the whole
// incremental-reclaim budget, but since no step releases anything it
// retries only once, after the last step — two attempts instead of one
// per step. An attempt reaches physmem only when the node has no free
// span, so that a carve would need a new vmblk: then each attempt makes
// one refused commit, at most two in all. While a free span is left,
// as here, the carve peek and the refill gate refuse both attempts
// without a physmem call.
func TestCriticalFailureRetriesOnlyOnProgress(t *testing.T) {
	a, m := pressureAllocator(t, 20, &PressureConfig{LowPages: 8, MinPages: 6}, nil)
	c := m.CPU(0)
	held := exhaust(a, c)
	if a.Pressure() != PressureCritical {
		t.Fatalf("pressure at exhaustion = %v", a.Pressure())
	}

	for _, size := range []uint64{4096, 8192} {
		steps0 := a.ReclaimStepsDone()
		fails0 := m.Phys().Stats().Failures
		if _, err := a.Alloc(c, size); !errors.Is(err, ErrNoMemory) {
			t.Fatalf("Alloc(%d) on exhausted pool = %v, want ErrNoMemory", size, err)
		}
		if got, want := a.ReclaimStepsDone()-steps0, uint64(a.reclaimSteps()); got != want {
			t.Errorf("Alloc(%d): %d reclaim steps, want the full budget of %d", size, got, want)
		}
		// No step is productive, so the retries number 0 + 1: with the
		// first attempt, at most two commit failures. Retrying after
		// every step would make reclaimSteps() + 1.
		if got := m.Phys().Stats().Failures - fails0; got > 2 {
			t.Errorf("Alloc(%d): %d physmem failures, want at most 2 (first attempt + final retry)", size, got)
		}
	}

	for _, b := range held {
		a.Free(c, b, 4096)
	}
	a.DrainAll(c)
	checkOK(t, a)
}

// shedHolding registers a cache whose depot holds block b of the given
// size and gives it back on its first shed, returning report.
func shedHolding(a *Allocator, b arena.Addr, size uint64, report int) {
	a.RegisterCacheShed(func(c *machine.CPU, aggressive bool) int {
		if b == arena.NilAddr {
			return 0
		}
		a.Free(c, b, size)
		b = arena.NilAddr
		return report
	})
}

// TestCriticalFindsStrandedMemory strands the only free memory where
// the reclaim rotation reaches it on the budget's final step — the last
// CPU's cache, or an object-cache depot behind RegisterCacheShed — and
// checks that skipping retries after unproductive steps loses no
// success, on the small-class and the large path alike. A shed that
// frees its buffer but reports 0 is found only by the retry that always
// follows the budget's last step; one that reports its buffer midway
// through the budget ends the run of steps right there. On a two-node
// machine it strands the memory in each place a step's peek must look
// besides main: a global pool's partial bucket, a remote-free shard,
// and a per-CPU aux list.
func TestCriticalFindsStrandedMemory(t *testing.T) {
	pc := &PressureConfig{LowPages: 8, MinPages: 6}

	t.Run("last-cpu-cache", func(t *testing.T) {
		a, m := pressureAllocator(t, 20, pc, nil)
		c0, c1 := m.CPU(0), m.CPU(1)
		held := exhaust(a, c0)
		// The freed block lodges in CPU 1's cache; start the rotation
		// just past the CPUs so CPU 1's drain is the last step.
		a.Free(c1, held[len(held)-1], 4096)
		held = held[:len(held)-1]
		a.reclaimCursor.Store(uint32(len(a.percpu)))
		steps0 := a.ReclaimStepsDone()
		b, err := a.Alloc(c0, 4096)
		if err != nil {
			t.Fatalf("block stranded in the last CPU's cache not found: %v", err)
		}
		if got, want := a.ReclaimStepsDone()-steps0, uint64(a.reclaimSteps()); got != want {
			t.Errorf("%d reclaim steps, want %d (the stranded cache is the last step)", got, want)
		}
		for _, b := range append(held, b) {
			a.Free(c0, b, 4096)
		}
		a.DrainAll(c0)
		checkOK(t, a)
	})

	for _, tc := range []struct {
		name   string
		size   uint64
		report int
		midway bool // start two steps before the shed instead of a full budget before
	}{
		{"cache-depot-small", 4096, 1, false},
		{"cache-depot-large", 8192, 1, false},
		{"cache-depot-unreported", 4096, 0, false},
		{"cache-depot-midway", 4096, 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			size := tc.size
			a, m := pressureAllocator(t, 20, pc, nil)
			c := m.CPU(0)
			cached, err := a.Alloc(c, size)
			if err != nil {
				t.Fatal(err)
			}
			held := exhaust(a, c)
			shedHolding(a, cached, size, tc.report)
			// The one shed is the rotation's last slot, so a cursor at 0
			// makes it the budget's last step.
			want := a.reclaimSteps()
			if tc.midway {
				want = 3
			}
			a.reclaimCursor.Store(uint32(a.reclaimSteps() - want))
			steps0 := a.ReclaimStepsDone()
			b, err := a.Alloc(c, size)
			if err != nil {
				t.Fatalf("Alloc(%d): buffer stranded in a cache depot not found: %v", size, err)
			}
			if got := a.ReclaimStepsDone() - steps0; got != uint64(want) {
				t.Errorf("%d reclaim steps, want %d (up to and including the shed)", got, want)
			}
			a.Free(c, b, size)
			for _, b := range held {
				a.Free(c, b, 4096)
			}
			a.DrainAll(c)
			checkOK(t, a)
		})
	}

	// Two nodes, one CPU each. Every case exhausts memory with CPU 0's
	// page-sized blocks, strands freed ones in one place, and has the
	// CPU that cannot reach them by any non-reclaim path ask for a
	// 2048-byte block: a different class, so no steal can take the
	// stranded blocks, and one fresh page, which only a reclaim step
	// that drains the stranded place can free. A target of 4 (2 under
	// pressure) lets a shard hold a block without flushing it.
	for _, tc := range []struct {
		name   string
		strand func(t *testing.T, a *Allocator, c0, c1 *machine.CPU, held []arena.Addr) []arena.Addr
		placed func(a *Allocator, cls int) bool // the blocks sit in the place
		alloc  int                              // the allocating CPU
	}{
		{"two-node-remote-bucket", func(_ *testing.T, a *Allocator, c0, _ *machine.CPU, held []arena.Addr) []arena.Addr {
			// One block drained alone is an odd-sized list: it lands
			// in node 0's bucket, not its stack of lists.
			a.Free(c0, held[0], 4096)
			a.DrainCPU(c0, 0)
			return held[1:]
		}, func(a *Allocator, cls int) bool {
			g := a.classes[cls].globals[0]
			return g.bucket.Len() == 1 && len(g.lists) == 0
		}, 1},
		{"two-node-remote-shard", func(_ *testing.T, a *Allocator, _, c1 *machine.CPU, held []arena.Addr) []arena.Addr {
			// A node-0 block freed on node 1 stages in CPU 1's shard.
			a.Free(c1, held[0], 4096)
			return held[1:]
		}, func(a *Allocator, cls int) bool {
			return a.percpu[1][cls].remote[0].Len() == 1
		}, 0},
		{"two-node-aux", func(t *testing.T, a *Allocator, c0, _ *machine.CPU, held []arena.Addr) []arena.Addr {
			// Three frees rotate a full main into aux; taking one
			// block back empties main and leaves two blocks in aux.
			for _, b := range held[:3] {
				a.Free(c0, b, 4096)
			}
			b, err := a.Alloc(c0, 4096)
			if err != nil {
				t.Fatal(err)
			}
			return append(held[3:], b)
		}, func(a *Allocator, cls int) bool {
			pc := &a.percpu[0][cls]
			return pc.aux.Len() == 2 && pc.main.Empty()
		}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := machine.DefaultConfig()
			cfg.NumCPUs = 2
			cfg.Nodes = 2
			cfg.MemBytes = 32 << 20
			cfg.PhysPages = 40
			m := machine.New(cfg)
			a, err := New(m, Params{
				RadixSort:    true,
				TargetFor:    func(uint32) int { return 4 },
				GblTargetFor: func(uint32) int { return 1 },
				Pressure:     pc,
			})
			if err != nil {
				t.Fatal(err)
			}
			c0, c1 := m.CPU(0), m.CPU(1)
			if c0.Node() != 0 || c1.Node() != 1 {
				t.Fatalf("CPU nodes %d/%d, want 0/1", c0.Node(), c1.Node())
			}
			// Both nodes' vmblks must exist before exhaustion: a
			// node's first vmblk needs header pages no single freed
			// page could supply.
			for _, c := range []*machine.CPU{c0, c1} {
				b, err := a.Alloc(c, 2048)
				if err != nil {
					t.Fatal(err)
				}
				a.Free(c, b, 2048)
			}
			held := exhaust(a, c0)
			if a.Pressure() != PressureCritical {
				t.Fatalf("pressure at exhaustion = %v", a.Pressure())
			}
			held = tc.strand(t, a, c0, c1, held)
			if !tc.placed(a, a.classFor(4096)) {
				t.Fatal("the freed blocks are not where the case strands them")
			}
			// A CPU drain parks what it takes in a global pool, which
			// a later step pushes to the page layer; starting the
			// rotation at the CPUs puts every pool step after them.
			a.reclaimCursor.Store(0)
			c := m.CPU(tc.alloc)
			steps0 := a.ReclaimStepsDone()
			b, err := a.Alloc(c, 2048)
			if err != nil {
				t.Fatalf("CPU %d: memory stranded in one place not found: %v", tc.alloc, err)
			}
			if a.ReclaimStepsDone() == steps0 {
				t.Fatal("the allocation succeeded without reclaim; the case strands nothing")
			}
			a.Free(c, b, 2048)
			for _, b := range held {
				a.Free(c0, b, 4096)
			}
			a.DrainAll(c0)
			checkOK(t, a)
		})
	}
}

// TestReclaimStepRequotesEmptyCache: a drain also requotes the cache's
// target from the adaptive controller, so a CPU step whose peek finds
// no blocks must still drain a cache whose target is stale — and only
// then leave it alone.
func TestReclaimStepRequotesEmptyCache(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.NumCPUs = 2
	cfg.MemBytes = 16 << 20
	m := machine.New(cfg)
	a, err := New(m, Params{RadixSort: true, Adaptive: &AdaptiveConfig{}})
	if err != nil {
		t.Fatal(err)
	}
	c0 := m.CPU(0)
	cls := a.classFor(64)
	pc := &a.percpu[1][cls]
	ctl := a.classes[cls].ctl
	ctl.target.Store(int64(pc.target + 3))
	if !a.cpuHolds(c0, 1) {
		t.Fatal("peek missed the pending requote of an empty cache")
	}
	a.reclaimCursor.Store(1)
	if n, _ := a.reclaimRun(c0, 1); n != 0 {
		t.Fatalf("step on an empty cache released %d", n)
	}
	if got, want := pc.target, ctl.curTarget(); got != want {
		t.Fatalf("cache target %d after the step, want the requoted %d", got, want)
	}
	if a.cpuHolds(c0, 1) {
		t.Fatal("peek still finds work in an empty, requoted cache")
	}
}

// TestLockFreeStealUnderPressure: the Treiber paths move a pool's lists
// without its lock, so under LockFree the occupancy summary is disarmed
// and steals and reclaim steps look at the pools themselves. A
// target-sized list pushed on node 0's stack must be stolen by node 1's
// CPU at PressureCritical, before any reclaim step runs.
func TestLockFreeStealUnderPressure(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.NumCPUs = 2
	cfg.Nodes = 2
	cfg.MemBytes = 32 << 20
	cfg.PhysPages = 40
	m := machine.New(cfg)
	a, err := New(m, Params{
		RadixSort:    true,
		LockFree:     true,
		TargetFor:    func(uint32) int { return 4 },
		GblTargetFor: func(uint32) int { return 1 },
		Pressure:     &PressureConfig{LowPages: 8, MinPages: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	if a.occ.armed {
		t.Fatal("the occupancy summary is armed under LockFree")
	}
	c0, c1 := m.CPU(0), m.CPU(1)
	for _, c := range []*machine.CPU{c0, c1} {
		b, err := a.Alloc(c, 2048)
		if err != nil {
			t.Fatal(err)
		}
		a.Free(c, b, 2048)
	}
	held := exhaust(a, c0)
	if a.Pressure() != PressureCritical {
		t.Fatalf("pressure at exhaustion = %v", a.Pressure())
	}
	// Four frees spill two-block lists into node 0's bucket, which
	// regroups them into one target-sized list pushed on the stack.
	for _, b := range held[:4] {
		a.Free(c0, b, 4096)
	}
	held = held[4:]
	a.DrainCPU(c0, 0)
	cls := a.classFor(4096)
	if g := a.classes[cls].globals[0]; len(g.lists) != 1 || !g.bucket.Empty() {
		t.Fatalf("node 0 pool holds %d lists and %d bucket blocks, want one list", len(g.lists), g.bucket.Len())
	}
	steps0 := a.ReclaimStepsDone()
	b, err := a.Alloc(c1, 4096)
	if err != nil {
		t.Fatalf("node 1 did not steal node 0's list: %v", err)
	}
	if a.ReclaimStepsDone() != steps0 {
		t.Error("the list was found by reclaim, not by the steal")
	}
	a.Free(c1, b, 4096)
	for _, b := range held {
		a.Free(c0, b, 4096)
	}
	a.DrainAll(c0)
	checkOK(t, a)
}
