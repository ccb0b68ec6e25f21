package core_test

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"kmem/internal/allocif"
	"kmem/internal/arena"
	"kmem/internal/core"
	"kmem/internal/machine"
	"kmem/internal/objcache"
)

// auditSummary compares, uncharged, every bit of the occupancy summary
// with its target's contents: each global pool (CheckConsistency's
// summary audit) and each node depot of the given caches, which must be
// every registered shed in registration order.
func auditSummary(a *core.Allocator, caches []*objcache.Cache, nodes int) error {
	if err := a.AuditOccupancy(); err != nil {
		return err
	}
	bits := a.CacheOccupancy()
	if len(bits) != len(caches) {
		return fmt.Errorf("%d registered sheds, want %d caches", len(bits), len(caches))
	}
	for i, k := range caches {
		if bits[i] == nil {
			return fmt.Errorf("cache %s does not report its depots", k.Name())
		}
		for node := 0; node < nodes; node++ {
			if holds := k.DepotMags(node) > 0; bits[i][node] != holds {
				return fmt.Errorf("cache %s node %d depot holds=%v, summary bit %v", k.Name(), node, holds, bits[i][node])
			}
		}
	}
	return nil
}

// TestSummaryMatchesTargets is the Sim property test of the occupancy
// summary. On 8 CPUs and 4 nodes with two object caches registered, a
// randomized workload — allocations of every class and the large path,
// frees from random CPUs (remote shards, steals), cache gets and puts,
// CPU drains — keeps physical memory near exhaustion, so pools and
// depots empty and refill and reclaim steps run. After every op an
// uncharged audit compares each bit with its target's real contents.
func TestSummaryMatchesTargets(t *testing.T) {
	seeds := []int64{1, 2, 3, 4}
	ops := 3000
	if testing.Short() {
		seeds, ops = seeds[:2], 1000
	}
	for _, seed := range seeds {
		cfg := machine.DefaultConfig()
		cfg.NumCPUs = 8
		cfg.Nodes = 4
		cfg.MemBytes = 32 << 20
		cfg.PhysPages = 128
		m := machine.New(cfg)
		a, err := core.New(m, core.Params{
			RadixSort:    true,
			TargetFor:    func(uint32) int { return 2 },
			GblTargetFor: func(uint32) int { return 1 },
			Pressure:     &core.PressureConfig{LowPages: 32, MinPages: 16},
		})
		if err != nil {
			t.Fatal(err)
		}
		var caches []*objcache.Cache
		for _, size := range []uint64{64, 512} {
			k, err := objcache.New(m, allocif.NewKMA{Allocator: a}, "test:summary", size, 8, nil, nil,
				objcache.Opts{MagSize: 2, DepotMags: 2})
			if err != nil {
				t.Fatal(err)
			}
			caches = append(caches, k)
		}

		rng := rand.New(rand.NewSource(seed))
		sizes := []uint64{32, 64, 200, 512, 1024, 4096, 8192}
		type blk struct {
			addr arena.Addr
			size uint64
		}
		type obj struct {
			addr arena.Addr
			k    *objcache.Cache
		}
		var held []blk
		var objs []obj
		critical, poolBits, depotBits, stepOps := 0, 0, 0, 0
		var steps uint64
		for i := 0; i < ops; i++ {
			c := m.CPU(rng.Intn(cfg.NumCPUs))
			switch r := rng.Intn(20); {
			case r < 8:
				size := sizes[rng.Intn(len(sizes))]
				if b, err := a.Alloc(c, size); err == nil {
					held = append(held, blk{b, size})
				}
			case r < 13 && len(held) > 0:
				j := rng.Intn(len(held))
				a.Free(c, held[j].addr, held[j].size)
				held = append(held[:j], held[j+1:]...)
			case r < 16:
				k := caches[rng.Intn(len(caches))]
				if o, err := k.Get(c); err == nil {
					objs = append(objs, obj{o, k})
				}
			case r < 19 && len(objs) > 0:
				j := rng.Intn(len(objs))
				objs[j].k.Put(c, objs[j].addr)
				objs = append(objs[:j], objs[j+1:]...)
			case r == 19:
				a.DrainCPU(c, rng.Intn(cfg.NumCPUs))
			}
			if err := auditSummary(a, caches, cfg.Nodes); err != nil {
				t.Fatalf("seed %d op %d: %v", seed, i, err)
			}
			if a.Pressure() == core.PressureCritical {
				critical++
			}
			if a.ReclaimStepsDone() > steps {
				steps, stepOps = a.ReclaimStepsDone(), stepOps+1
			}
			if a.AnyPoolBit() {
				poolBits++
			}
			for _, bits := range a.CacheOccupancy() {
				for _, on := range bits {
					if on {
						depotBits++
					}
				}
			}
			if i%250 == 0 {
				if err := a.CheckConsistency(); err != nil {
					t.Fatalf("seed %d op %d: %v", seed, i, err)
				}
			}
		}
		t.Logf("seed %d: %d critical ops, %d with a pool bit, %d depot bits, %d ops ran %d reclaim steps",
			seed, critical, poolBits, depotBits, stepOps, steps)
		if critical == 0 || poolBits == 0 || depotBits == 0 || stepOps == 0 {
			t.Fatalf("seed %d exercised too little", seed)
		}

		c := m.CPU(0)
		for _, b := range held {
			a.Free(c, b.addr, b.size)
		}
		for _, o := range objs {
			o.k.Put(c, o.addr)
		}
		a.DrainAll(c)
		if err := auditSummary(a, caches, cfg.Nodes); err != nil {
			t.Fatalf("seed %d after DrainAll: %v", seed, err)
		}
		if a.AnyPoolBit() {
			t.Fatalf("seed %d: a pool bit survives DrainAll", seed)
		}
		for _, k := range caches {
			k.Destroy(c)
		}
		if err := a.CheckConsistency(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOccupancySummaryRace races the summary's upkeep under the race
// detector (raceReclaim) with small targets and magazines, so pools
// and depots go empty and non-empty often: remote shards flush into the
// other node's pools, CPU 0's failing allocations steal and run reclaim
// steps that drain pools and depots. At quiescence every bit must match
// its target, before and after DrainAll.
func TestOccupancySummaryRace(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.Mode = machine.Native
	cfg.NumCPUs = 4
	cfg.Nodes = 2
	cfg.MemBytes = 32 << 20
	cfg.PhysPages = 96
	m := machine.New(cfg)
	a, err := core.New(m, core.Params{
		RadixSort:    true,
		TargetFor:    func(uint32) int { return 2 },
		GblTargetFor: func(uint32) int { return 1 },
		Pressure:     &core.PressureConfig{LowPages: 32, MinPages: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	k, err := objcache.New(m, allocif.NewKMA{Allocator: a}, "test:summaryrace", 192, 8, nil, nil,
		objcache.Opts{MagSize: 2, DepotMags: 2})
	if err != nil {
		t.Fatal(err)
	}
	caches := []*objcache.Cache{k}
	raceReclaim(t, m, a, k, 512)

	if err := auditSummary(a, caches, cfg.Nodes); err != nil {
		t.Fatalf("at quiescence: %v", err)
	}
	c0 := m.CPU(0)
	a.DrainAll(c0)
	if err := auditSummary(a, caches, cfg.Nodes); err != nil {
		t.Fatalf("after DrainAll: %v", err)
	}
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestOccupancyNotifyRacesUnregister races a cache's depot reports
// against its unregistration, the way a shed still running inside a
// reclaim step races Destroy on another goroutine. Once unregister has
// returned, no late report of the old cache may land: the next cache to
// take the slot sets its bit, and the bit must stay set while the old
// cache keeps reporting empty depots.
func TestOccupancyNotifyRacesUnregister(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.Mode = machine.Native
	cfg.NumCPUs = 2
	m := machine.New(cfg)
	a, err := core.New(m, core.Params{RadixSort: true, Pressure: &core.PressureConfig{}})
	if err != nil {
		t.Fatal(err)
	}
	shed := func(*machine.CPU, bool) int { return 0 }
	rounds := 2000
	if testing.Short() {
		rounds /= 10
	}
	for i := 0; i < rounds; i++ {
		oldNotify, oldUnregister := a.RegisterCacheShedNotify(shed)
		var stop atomic.Bool
		var wg sync.WaitGroup
		wg.Add(1)
		go func(c *machine.CPU) {
			defer wg.Done()
			for on := true; !stop.Load(); on = !on {
				oldNotify(c, 0, on)
			}
		}(m.CPU(1))
		oldUnregister()
		notify, unregister := a.RegisterCacheShedNotify(shed)
		notify(m.CPU(0), 0, true)
		for j := 0; j < 100; j++ {
			oldNotify(m.CPU(0), 0, false)
		}
		stop.Store(true)
		wg.Wait()
		if bits := a.CacheOccupancy(); len(bits) != 1 || !bits[0][0] {
			t.Fatalf("round %d: the new cache's depot bit is %v after the old cache's late reports, want set", i, bits)
		}
		unregister()
	}
}
