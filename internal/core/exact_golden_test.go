package core_test

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kmem/internal/allocif"
	"kmem/internal/arena"
	"kmem/internal/core"
	"kmem/internal/faultpoint"
	"kmem/internal/machine"
	"kmem/internal/objcache"
)

var updateExact = flag.Bool("update-exact", false,
	"rewrite testdata/exact_*.golden; only for a change meant to alter what allocations return or what reclaim steps release")

// TestExactGolden replays a seeded Sim pressure workload and requires
// the stream recorded in testdata/exact_<config>.golden, line for line:
// every allocation's result (address or error), the rotation position
// and release count of every reclaim step it ran, and at the end each
// class's targets and each armed fault point's hits and firings. The
// stream excludes every cost, so a change that only makes doomed work
// cheaper — skipping a target or an attempt it can prove fruitless —
// must leave it byte-identical, while a skip that loses a block, a
// step, a controller report or a fault consult shows as a diff.
//
// The machine is 4 CPUs on 2 nodes with eager spans and an object
// cache that reports its depots, as on the serving benchmark; physical
// memory is small enough that most ops run at PressureCritical. The
// configurations add the adaptive controller (a short window, so
// targets move) and probabilistic fault points on every exhaustion
// seam.
func TestExactGolden(t *testing.T) {
	for _, name := range []string{"plain", "adaptive", "faults"} {
		t.Run(name, func(t *testing.T) {
			got := exactStream(t, name)
			path := filepath.Join("testdata", "exact_"+name+".golden")
			if *updateExact {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got == string(want) {
				return
			}
			gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
			for i := 0; i < len(gl) && i < len(wl); i++ {
				if gl[i] != wl[i] {
					t.Fatalf("line %d differs:\n got  %s\n want %s", i+1, gl[i], wl[i])
				}
			}
			t.Fatalf("stream has %d lines, golden %d", len(gl), len(wl))
		})
	}
}

// exactStream runs the workload under the named configuration and
// returns its stream.
func exactStream(t *testing.T, config string) string {
	t.Helper()
	const ops = 4000
	cfg := machine.DefaultConfig()
	cfg.NumCPUs = 4
	cfg.Nodes = 2
	cfg.MemBytes = 32 << 20
	cfg.PhysPages = 112
	m := machine.New(cfg)
	p := core.Params{
		RadixSort:    true,
		TargetFor:    func(uint32) int { return 4 },
		GblTargetFor: func(uint32) int { return 2 },
		Pressure:     &core.PressureConfig{LowPages: 32, MinPages: 16},
	}
	var fs *faultpoint.Set
	points := []string{core.FaultPagePoolRefill, core.FaultPhysMap, core.FaultVmblkCarve}
	switch config {
	case "adaptive":
		p.Adaptive = &core.AdaptiveConfig{Window: 64, GblSetpoint: 0.3, MaxTarget: 16, MaxGblTarget: 8, ShrinkHoldoff: 2}
	case "faults":
		fs = faultpoint.New(7)
		fs.Arm(core.FaultPagePoolRefill, faultpoint.Spec{Prob: 0.1})
		fs.Arm(core.FaultPhysMap, faultpoint.Spec{Prob: 0.05})
		fs.Arm(core.FaultVmblkCarve, faultpoint.Spec{Prob: 0.2})
		p.Faults = fs
	}
	// The controller's decisions, in order, join the stream of the op
	// that made them.
	var decisions strings.Builder
	p.Hook = func(cls int, ev core.LayerEvent, n int) {
		switch ev {
		case core.EvTargetGrow, core.EvTargetShrink, core.EvGblTargetGrow, core.EvGblTargetShrink:
			fmt.Fprintf(&decisions, " %s(%d)=%d", ev, cls, n)
		}
	}
	a, err := core.New(m, p)
	if err != nil {
		t.Fatal(err)
	}
	k, err := objcache.New(m, allocif.NewKMA{Allocator: a}, "test:exact", 192, 8, nil, nil,
		objcache.Opts{MagSize: 2, DepotMags: 2})
	if err != nil {
		t.Fatal(err)
	}

	var out, steps strings.Builder
	fails, stepped := 0, 0
	// Steps arrive in rotation order; a run of consecutive positions
	// that release nothing is written as one "first+count" entry.
	runStart, runLen := -1, 0
	flush := func() {
		if runLen > 0 {
			fmt.Fprintf(&steps, " %d+%d", runStart, runLen)
		}
		runStart, runLen = -1, 0
	}
	a.SetStepLog(func(pos, released int) {
		if released == 0 && runLen > 0 && pos == runStart+runLen {
			runLen++
			return
		}
		flush()
		if released == 0 {
			runStart, runLen = pos, 1
			return
		}
		fmt.Fprintf(&steps, " %d=%d", pos, released)
	})
	record := func(i int, c *machine.CPU, what string, b arena.Addr, err error) {
		flush()
		res := fmt.Sprintf("%#x", b)
		if err != nil {
			res = err.Error()
			fails++
		}
		fmt.Fprintf(&out, "%d cpu%d %s -> %s", i, c.ID(), what, res)
		if steps.Len() > 0 {
			stepped++
			fmt.Fprintf(&out, " | steps%s", steps.String())
			steps.Reset()
		}
		if decisions.Len() > 0 {
			fmt.Fprintf(&out, " | controller%s", decisions.String())
			decisions.Reset()
		}
		out.WriteByte('\n')
	}

	rng := rand.New(rand.NewSource(17))
	sizes := []uint64{32, 64, 200, 512, 1024, 2048, 4096, 8192, 20000}
	type blk struct {
		addr arena.Addr
		size uint64
	}
	var held []blk
	var objs []arena.Addr
	for i := 0; i < ops; i++ {
		c := m.CPU(rng.Intn(cfg.NumCPUs))
		// Fill for two of every three 400-op phases, then drain: memory
		// crosses the watermarks in both directions many times.
		allocPct := 60
		if (i/400)%3 == 2 {
			allocPct = 25
		}
		r := rng.Intn(100)
		switch {
		case r < allocPct:
			size := sizes[rng.Intn(len(sizes))]
			b, err := a.Alloc(c, size)
			if err == nil {
				held = append(held, blk{b, size})
			}
			record(i, c, fmt.Sprintf("alloc %d", size), b, err)
		case r < allocPct+10:
			o, err := k.Get(c)
			if err == nil {
				objs = append(objs, o)
			}
			record(i, c, "get", o, err)
		case r < allocPct+20 && len(objs) > 0:
			j := rng.Intn(len(objs))
			k.Put(c, objs[j])
			objs = append(objs[:j], objs[j+1:]...)
		case r == 99:
			a.DrainCPU(c, rng.Intn(cfg.NumCPUs))
		case len(held) > 0:
			j := rng.Intn(len(held))
			a.Free(c, held[j].addr, held[j].size)
			held = append(held[:j], held[j+1:]...)
		}
		if steps.Len() > 0 || runLen > 0 {
			t.Fatalf("op %d ran reclaim steps outside an allocation", i)
		}
	}
	if fails == 0 || stepped == 0 {
		t.Fatalf("%s: %d failed allocations, %d ran reclaim steps; the workload exercises nothing", config, fails, stepped)
	}
	for cls := 0; cls < a.NumClasses(); cls++ {
		fmt.Fprintf(&out, "class %d target %d gbltarget %d\n", cls, a.Target(cls), a.GblTarget(cls))
	}
	if fs != nil {
		for _, pt := range points {
			st := fs.PointStats(pt)
			fmt.Fprintf(&out, "fault %s hits %d fired %d\n", pt, st.Hits, st.Fired)
		}
	}

	c := m.CPU(0)
	for _, b := range held {
		a.Free(c, b.addr, b.size)
	}
	for _, o := range objs {
		k.Put(c, o)
	}
	k.Destroy(c)
	a.DrainAll(c)
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	return out.String()
}
