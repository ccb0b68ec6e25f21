package main

import (
	"sync"
	"time"

	"kmem"
	"kmem/internal/machine"
)

// The native workload: the allocator as an ordinary Go library. Each of
// nativeCPUs goroutines drives its own CPU handle on one node,
// alternating a seeded burst of allocations (16-4096 bytes, every size
// class equally likely) with freeing the burst in FIFO order. The same
// inputs also run once on a simulated twin machine, which supplies the
// workload's simulated-cycle metrics; every host-time metric comes from
// the Native run.
const (
	nativeCPUs     = 2
	nativeBurstMin = 16
	nativeBurstMax = 128
	nativeRoundOps = 1 << 20 // ops (both CPUs) a timed round covers, at least
)

// nativeInput is one CPU's generated inputs: block sizes, burst after
// burst, and where each burst ends.
type nativeInput struct {
	sizes []uint64
	ends  []int
}

func genNative(sh shape, seed uint64) []nativeInput {
	in := make([]nativeInput, nativeCPUs)
	for cpu := range in {
		g := newRng(seed, 100+uint64(cpu))
		for b := 0; b < sh.nativeBursts; b++ {
			n := nativeBurstMin + g.intn(nativeBurstMax-nativeBurstMin+1)
			for i := 0; i < n; i++ {
				hi := uint64(16) << g.intn(9)
				lo := max(16, hi/2+1)
				in[cpu].sizes = append(in[cpu].sizes, lo+uint64(g.intn(int(hi-lo+1))))
			}
			in[cpu].ends = append(in[cpu].ends, len(in[cpu].sizes))
		}
	}
	return in
}

// nativeWorker is one goroutine's state: its CPU handle, inputs and
// owner bookkeeping, plus per-call host-time samples in the traced run.
type nativeWorker struct {
	sys  *kmem.System
	c    *machine.CPU
	in   *nativeInput
	own  *owner
	held []heldBlock

	ops, failed     uint64
	allocNS, freeNS hist
}

// pass runs the worker's inputs once; timed reads the host clock
// around every call.
func (w *nativeWorker) pass(timed bool) {
	pos := 0
	var h0 time.Time
	for _, end := range w.in.ends {
		held := w.held[:0]
		for ; pos < end; pos++ {
			size := w.in.sizes[pos]
			if timed {
				h0 = time.Now()
			}
			b, err := w.sys.Alloc(w.c, size)
			if timed {
				w.allocNS.add(int64(time.Since(h0)))
			}
			w.ops++
			if err != nil {
				w.failed++
				continue
			}
			held = append(held, heldBlock{b, size, w.own.stamp(b, size)})
		}
		for _, h := range held {
			w.own.check(h.addr, h.size, h.stamp)
			if timed {
				h0 = time.Now()
			}
			w.sys.Free(w.c, h.addr, h.size)
			if timed {
				w.freeNS.add(int64(time.Since(h0)))
			}
			w.ops++
		}
		w.held = held
	}
}

// nativeSystem is one Native build of the workload.
type nativeSystem struct {
	sys     *kmem.System
	workers []*nativeWorker
	passOps uint64 // calls one pass over every worker's inputs makes
	setup   time.Duration
}

// newNativeSystem builds a Native system and runs one warm-up pass on
// every worker: the caches start empty and fill there.
func newNativeSystem(sh shape, seed uint64) (*nativeSystem, error) {
	t0 := time.Now()
	in := genNative(sh, seed)
	sys, err := kmem.NewSystem(kmem.Config{Mode: kmem.Native, CPUs: nativeCPUs})
	if err != nil {
		return nil, err
	}
	ns := &nativeSystem{sys: sys}
	for i := range in {
		ns.workers = append(ns.workers, &nativeWorker{
			sys: sys,
			c:   sys.CPU(i),
			in:  &in[i],
			own: newOwner(sys.Machine().Mem(), 16+uint64(i)),
		})
	}
	ns.round(1, false)
	ns.passOps, _ = ns.ops()
	ns.setup = time.Since(t0)
	return ns, nil
}

// round runs passes passes on every worker concurrently and returns
// the wall time.
func (ns *nativeSystem) round(passes int, timed bool) time.Duration {
	var wg sync.WaitGroup
	t0 := time.Now()
	for _, w := range ns.workers {
		wg.Add(1)
		go func(w *nativeWorker) {
			defer wg.Done()
			for p := 0; p < passes; p++ {
				w.pass(timed)
			}
		}(w)
	}
	wg.Wait()
	return time.Since(t0)
}

func (ns *nativeSystem) ops() (ops, failed uint64) {
	for _, w := range ns.workers {
		ops += w.ops
		failed += w.failed
	}
	return ops, failed
}

// measure runs timed rounds until d has passed (at least one) and
// returns each round's host ns per op.
func (ns *nativeSystem) measure(d time.Duration, timed bool) []float64 {
	passes := int((nativeRoundOps + ns.passOps - 1) / ns.passOps)
	var out []float64
	t0 := time.Now()
	for len(out) == 0 || time.Since(t0) < d {
		before, _ := ns.ops()
		wall := ns.round(passes, timed)
		after, _ := ns.ops()
		out = append(out, float64(wall.Nanoseconds())/float64(after-before))
	}
	return out
}

// finish runs the teardown checks.
func (ns *nativeSystem) finish() error {
	for _, w := range ns.workers {
		if w.own.fault != nil {
			return w.own.fault
		}
	}
	return audit(ns.sys)
}

// twinCPU walks one CPU's native inputs one call per scheduler turn.
type twinCPU struct {
	in      *nativeInput
	burst   int
	pos     int
	freeing bool
	next    int
	held    []heldBlock
}

// nativeTwin runs the native inputs on a simulated 2-CPU, 1-node
// machine with the same allocator configuration: one warm-up pass, then
// one measured pass.
func (sh shape) nativeTwin(seed uint64, traced bool) (*simRun, error) {
	t0 := time.Now()
	in := genNative(sh, seed)
	rec := newSimRec(1, traced)
	sys, err := kmem.NewSystem(kmem.Config{CPUs: nativeCPUs, Hook: rec.hook()})
	if err != nil {
		return nil, err
	}
	m := sys.Machine()
	m.EnableSchedHash()
	a := sys.Allocator()
	own := newOwner(m.Mem(), 3)
	out := &simRun{rec: rec}
	cpus := make([]twinCPU, nativeCPUs)
	var measuring bool
	var opNS time.Duration

	body := func(c *machine.CPU) bool {
		t := &cpus[c.ID()]
		for t.burst < len(t.in.ends) {
			var h0 time.Time
			if measuring && traced {
				h0 = time.Now()
			}
			if !t.freeing {
				if t.pos < t.in.ends[t.burst] {
					size := t.in.sizes[t.pos]
					t.pos++
					var tk tok
					if measuring {
						tk = rec.begin(c)
					}
					b, err := a.Alloc(c, size)
					if measuring {
						rec.end(c, tk, entAlloc, err != nil)
						out.ops++
						if err != nil {
							out.failed++
						}
					}
					if err == nil {
						t.held = append(t.held, heldBlock{b, size, own.stamp(b, size)})
					}
					if measuring && traced {
						opNS += time.Since(h0)
					}
					return true
				}
				t.freeing, t.next = true, 0
			}
			if t.next < len(t.held) {
				h := t.held[t.next]
				t.next++
				own.check(h.addr, h.size, h.stamp)
				var tk tok
				if measuring {
					tk = rec.begin(c)
				}
				a.Free(c, h.addr, h.size)
				if measuring {
					rec.end(c, tk, entFree, false)
					out.ops++
				}
				if measuring && traced {
					opNS += time.Since(h0)
				}
				return true
			}
			t.held, t.freeing = t.held[:0], false
			t.burst++
		}
		return false
	}
	reset := func() {
		for i := range cpus {
			cpus[i] = twinCPU{in: &in[i]}
		}
	}

	reset()
	m.Run(body)
	out.setup = time.Since(t0)

	reset()
	measuring = true
	own.peak = own.live
	open := openWindow(a, m)
	h0 := time.Now()
	start := m.SyncClocks()
	out.sched = runWindow(m, traced, body, &opNS)
	end := m.SyncClocks()
	out.run = time.Since(h0)
	win, hw := closeWindow(a, m, open)
	out.simSec = m.CyclesToSeconds(end - start)
	out.addWindow(m, win, hw, own.peak)
	if own.fault != nil {
		return nil, own.fault
	}
	if err := audit(sys); err != nil {
		return nil, err
	}
	return out, nil
}
