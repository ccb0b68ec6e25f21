package core_test

import (
	"math/rand"
	"sync"
	"testing"

	"kmem/internal/allocif"
	"kmem/internal/arena"
	"kmem/internal/core"
	"kmem/internal/machine"
	"kmem/internal/objcache"
)

// TestReclaimEmptyStepCost pins what an incremental reclaim step costs
// when its target holds nothing, on a quiescent allocator at
// PressureCritical with every cache empty. A CPU step charges exactly
// insnReclaimStep plus one read per class line its peek looks at. With
// the occupancy summary armed, a global-pool or depot step finds its
// target's bits clear, so it charges only insnSummaryTest and one read
// of the summary line, and a run of k such pool steps in a row charges
// that same one look and advances the cursor by k. Under LockFree the
// summary is disarmed and those steps peek instead: insnReclaimStep
// plus one read of the pool's line, or of each depot's line, one step
// at a time. No step takes a lock, makes an atomic, opens an interrupt
// window or stores. And because the peek only reads, the victim CPU's
// next fast-path op still hits its cache line, where a full drain would
// have pulled the line away.
func TestReclaimEmptyStepCost(t *testing.T) {
	for _, tc := range []struct {
		name           string
		rseq, lockFree bool
	}{
		{"intr", false, false},
		{"rseq", true, false},
		{"lockfree", false, true},
	} {
		t.Run(tc.name, func(t *testing.T) { testReclaimEmptyStepCost(t, tc.rseq, tc.lockFree) })
	}
}

func testReclaimEmptyStepCost(t *testing.T, rseq, lockFree bool) {
	cfg := machine.DefaultConfig()
	cfg.NumCPUs = 2
	cfg.MemBytes = 16 << 20
	cfg.PhysPages = 24
	m := machine.New(cfg)
	a, err := core.New(m, core.Params{
		RadixSort:    true,
		Rseq:         rseq,
		LockFree:     lockFree,
		TargetFor:    func(uint32) int { return 2 },
		GblTargetFor: func(uint32) int { return 1 },
		Pressure:     &core.PressureConfig{LowPages: 10, MinPages: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	k, err := objcache.New(m, allocif.NewKMA{Allocator: a}, "test:peek", 64, 8, nil, nil, objcache.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	c0, victim := m.CPU(0), m.CPU(1)
	const small = 64
	cls := a.ClassOf(small)

	// Live page-sized blocks hold the pool at PressureCritical.
	var held []arena.Addr
	for a.Pressure() != core.PressureCritical {
		b, err := a.Alloc(c0, 4096)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, b)
	}
	a.DrainAll(c0)
	// The victim takes a block and drains its own caches, so it owns
	// its cache line for the class and holds b to free later; then
	// CPU 0 drains every global pool through the reclaim rotation
	// without touching the victim's lines.
	b, err := a.Alloc(victim, small)
	if err != nil {
		t.Fatal(err)
	}
	a.DrainCPU(victim, victim.ID())
	for slot := cfg.NumCPUs; slot < cfg.NumCPUs+a.NumClasses(); slot++ {
		a.ReclaimRunAt(c0, slot, 1)
	}
	if a.Pressure() != core.PressureCritical {
		t.Fatalf("pressure = %v after setup, want critical", a.Pressure())
	}

	// measure runs up to max steps from slot on CPU 0 and checks that
	// they are wantSteps steps, that the cursor moved by as many, and
	// their charge: insns instructions besides their reads, and exactly
	// the reads in want (nil: any wantReads lines), nothing else.
	measure := func(kind string, slot, max, wantSteps int, want []machine.Line, wantReads, insns int) {
		t.Helper()
		before := c0.Stats()
		c0.StartTrace()
		n, steps := a.ReclaimRunAt(c0, slot, max)
		trace := append([]machine.TraceEvent(nil), c0.StopTrace()...)
		after := c0.Stats()
		if n != 0 {
			t.Fatalf("%s step released %d, want 0 from an empty target", kind, n)
		}
		if steps != wantSteps {
			t.Fatalf("%s: ran %d steps, want %d", kind, steps, wantSteps)
		}
		if got := a.ReclaimCursor(); got != uint32(slot+wantSteps) {
			t.Fatalf("%s: cursor at %d after the steps from %d, want %d", kind, got, slot, slot+wantSteps)
		}
		if want != nil {
			wantReads = len(want)
		}
		if len(trace) != wantReads {
			t.Fatalf("%s step made %d accesses %v, want %d reads", kind, len(trace), trace, wantReads)
		}
		var accessCycles int64
		for i, ev := range trace {
			if ev.Kind != machine.ReadAccess {
				t.Errorf("%s step access %d is a %v of line %#x, want only reads", kind, i, ev.Kind, ev.Line)
			}
			if want != nil && ev.Line != want[i] {
				t.Errorf("%s step read %d is line %#x, want %#x", kind, i, ev.Line, want[i])
			}
			accessCycles += ev.Cycles
		}
		total := uint64(insns + wantReads)
		if got := after.Instructions - before.Instructions; got != total {
			t.Errorf("%s step charged %d insns, want %d (%d plus one per read)", kind, got, total, insns)
		}
		cycles := int64(total)*cfg.CyclesPerInsn + accessCycles
		if got := after.Cycles - before.Cycles; got != cycles {
			t.Errorf("%s step charged %d cycles, want %d", kind, got, cycles)
		}
		if got := after.Atomics - before.Atomics; got != 0 {
			t.Errorf("%s step made %d atomic accesses, want 0 (no lock, no epoch bump)", kind, got)
		}
	}

	var cpuLines []machine.Line
	for i := 0; i < a.NumClasses(); i++ {
		cpuLines = append(cpuLines, a.CacheLine(victim.ID(), i))
	}
	measure("cpu", victim.ID(), 1, 1, cpuLines, 0, core.InsnReclaimStep)

	gline, locks0 := a.GlobalPool(cls, 0)
	summary := []machine.Line{a.SummaryLine()}
	// The run starts at the class's pool and may take the whole budget;
	// it ends at the last pool, before the depot step.
	budget, pools := a.NumReclaimSteps(), a.NumClasses()*cfg.Nodes
	if lockFree {
		measure("global", cfg.NumCPUs+cls, 1, 1, []machine.Line{gline}, 0, core.InsnReclaimStep)
		measure("global run", cfg.NumCPUs+cls, budget, 1, []machine.Line{gline}, 0, core.InsnReclaimStep)
	} else {
		measure("global", cfg.NumCPUs+cls, 1, 1, summary, 0, core.InsnSummaryTest)
		measure("global run", cfg.NumCPUs+cls, budget, pools-cls, summary, 0, core.InsnSummaryTest)
		measure("global run of 3", cfg.NumCPUs, 3, 3, summary, 0, core.InsnSummaryTest)
	}
	if _, locks := a.GlobalPool(cls, 0); locks != locks0 {
		t.Errorf("global step moved the pool's lock stats %+v -> %+v", locks0, locks)
	}

	sheds0 := k.Stats()
	if lockFree {
		measure("depot", a.NumReclaimSteps()-1, budget, 1, nil, cfg.Nodes, core.InsnReclaimStep)
	} else {
		measure("depot", a.NumReclaimSteps()-1, budget, 1, summary, 0, core.InsnSummaryTest)
	}
	if st := k.Stats(); st != sheds0 {
		t.Errorf("depot step moved the cache's stats %+v -> %+v", sheds0, st)
	}

	// firstRead is the cost of the victim's first access to its cache
	// line during a Free of b.
	line := a.CacheLine(victim.ID(), cls)
	firstRead := func() machine.TraceEvent {
		t.Helper()
		victim.StartTrace()
		a.Free(victim, b, small)
		for _, ev := range victim.StopTrace() {
			if ev.Line == line {
				return ev
			}
		}
		t.Fatal("the victim's free never touched its cache line")
		return machine.TraceEvent{}
	}
	if ev := firstRead(); ev.Kind != machine.ReadAccess || ev.Cycles != cfg.HitCycles {
		t.Errorf("after the peek, the victim's first cache-line access is a %v costing %d cycles, want a %d-cycle read hit",
			ev.Kind, ev.Cycles, cfg.HitCycles)
	}
	// Contrast: a full drain of the (again empty) cache takes the line,
	// and the victim's next free misses on it.
	if b, err = a.Alloc(victim, small); err != nil {
		t.Fatal(err)
	}
	a.DrainCPU(c0, victim.ID())
	if ev := firstRead(); ev.Cycles <= cfg.HitCycles {
		t.Errorf("after a full drain the victim's first cache-line access cost %d cycles, want a miss", ev.Cycles)
	}

	a.DrainAll(c0)
	for _, h := range held {
		a.Free(c0, h, 4096)
	}
	a.DrainAll(c0)
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestNativeReclaimPeekRace races the reclaim steps' looks against
// their targets' owners under the race detector (raceReclaim): every
// CPU step peeks a CPU's caches (Region.Peek) and every pool or depot
// step reads the occupancy summary, a depot step whose bit is set also
// peeking the depots (SpinLock.Peek). After quiesce and DrainAll the
// allocator must be consistent and hold only vmblk header pages.
func TestNativeReclaimPeekRace(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.Mode = machine.Native
	cfg.NumCPUs = 4
	cfg.Nodes = 2
	cfg.MemBytes = 32 << 20
	cfg.PhysPages = 96
	m := machine.New(cfg)
	a, err := core.New(m, core.Params{
		RadixSort: true,
		Pressure:  &core.PressureConfig{LowPages: 32, MinPages: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	k, err := objcache.New(m, allocif.NewKMA{Allocator: a}, "test:peekrace", 192, 8, nil, nil,
		objcache.Opts{MagSize: 4, DepotMags: 4})
	if err != nil {
		t.Fatal(err)
	}
	raceReclaim(t, m, a, k, 4096)

	c0 := m.CPU(0)
	a.DrainAll(c0)
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if live := k.Stats().Live; live != 0 {
		t.Fatalf("%d object-cache buffers live after DrainAll", live)
	}
	st := a.Stats(c0)
	if got, want := uint64(m.Phys().Mapped()), 8*st.VM.VmblkCreates; got != want {
		t.Fatalf("mapped = %d after quiesce, want %d (headers of %d vmblks)",
			got, want, st.VM.VmblkCreates)
	}
}

// raceReclaim runs the Native reclaim race on a 4-CPU, 2-node machine
// and returns at quiescence. CPU 0 repeatedly drives memory to
// exhaustion with size-byte blocks, so its failing allocations steal
// from the other node and walk the whole reclaim rotation at
// PressureCritical, while CPUs 1-3 each own their CPU and churn: local
// allocs and frees, gets and puts on cache k, and node-0 blocks handed
// to CPU 3 on node 1, whose frees stage in its remote shards.
func raceReclaim(t *testing.T, m *machine.Machine, a *core.Allocator, k *objcache.Cache, size uint64) {
	t.Helper()
	ops := 20000
	if testing.Short() {
		ops /= 10
	}
	var wg sync.WaitGroup
	// Buffered so the sender rarely waits on CPU 3; any size is correct.
	handoff := make(chan arena.Addr, 64)
	churn := func(c *machine.CPU, send bool) {
		defer wg.Done()
		rng := rand.New(rand.NewSource(int64(c.ID())))
		sizes := []uint64{64, 512, 2048}
		type blk struct {
			addr arena.Addr
			size uint64
		}
		var held []blk
		var objs []arena.Addr
		for i := 0; i < ops; i++ {
			switch r := rng.Intn(8); {
			case r < 3 && len(held) < 16:
				size := sizes[rng.Intn(len(sizes))]
				if b, err := a.Alloc(c, size); err == nil {
					held = append(held, blk{b, size})
				}
			case r < 5 && len(held) > 0:
				j := rng.Intn(len(held))
				if send && held[j].size == 512 {
					handoff <- held[j].addr
				} else {
					a.Free(c, held[j].addr, held[j].size)
				}
				held = append(held[:j], held[j+1:]...)
			case r < 7 && len(objs) < 12:
				if o, err := k.Get(c); err == nil {
					objs = append(objs, o)
				}
			case len(objs) > 0:
				k.Put(c, objs[len(objs)-1])
				objs = objs[:len(objs)-1]
			}
		}
		for _, b := range held {
			a.Free(c, b.addr, b.size)
		}
		for _, o := range objs {
			k.Put(c, o)
		}
	}
	wg.Add(2)
	go churn(m.CPU(1), true)
	go churn(m.CPU(2), false)

	var consumer sync.WaitGroup
	consumer.Add(1)
	go func(c *machine.CPU) {
		defer consumer.Done()
		for b := range handoff {
			a.Free(c, b, 512)
		}
	}(m.CPU(3))

	// CPU 0: exhaust, hold, release, repeat — every failed allocation
	// at PressureCritical spends a full budget of reclaim steps.
	wg.Add(1)
	go func(c *machine.CPU) {
		defer wg.Done()
		for round := 0; round < ops/500; round++ {
			var held []arena.Addr
			for {
				b, err := a.Alloc(c, size)
				if err != nil {
					break
				}
				held = append(held, b)
			}
			for _, b := range held {
				a.Free(c, b, size)
			}
		}
	}(m.CPU(0))

	wg.Wait()
	close(handoff)
	consumer.Wait()

	if a.ReclaimStepsDone() == 0 {
		t.Fatal("no reclaim step ran; the test raced nothing")
	}
}
