package main

import (
	"time"

	"kmem"
	"kmem/internal/arena"
	"kmem/internal/machine"
)

// The handoff workload: producer/consumer 128-byte cookie blocks on 8
// CPUs and 2 nodes. Even CPUs allocate and odd CPUs free; a producer
// hands two of every three blocks to its same-node partner and deals
// the third to a seeded choice among all consumers, so remote homes are
// interleaved into every consumer's free stream. Each op is preceded by
// a seeded think time. A warm-up runs before the measured window.
const (
	handoffCPUs     = 8
	handoffNodes    = 2
	handoffBlock    = 128
	handoffQueueCap = 64  // blocks a consumer's queue holds before its producers back off
	handoffMaxThink = 64  // think time before an op is uniform in [0, handoffMaxThink) cycles
	handoffBackoff  = 100 // cycles a producer (consumer) idles on a full (empty) queue
)

type queued struct {
	addr  arena.Addr
	stamp uint64
}

// handoffCPU is one CPU's generated input stream and its position in it:
// the k-th op's think time and, for producers, the k-th block's
// consumer. A producer that finds its target queue full retries the
// same block, so the inputs do not depend on the schedule.
type handoffCPU struct {
	g     *rng
	k     int // ops done
	think int64
	dest  int
}

func (h *handoffCPU) advance(id int) {
	h.think = int64(h.g.intn(handoffMaxThink))
	if id%2 == 0 {
		h.dest = id + 1
		if h.k%3 == 2 {
			h.dest = h.g.intn(handoffCPUs/2)*2 + 1
		}
	}
	h.k++
}

// handoff runs one warm-up and one measured window.
func (sh shape) handoff(seed uint64, traced, setupOnly bool) (*simRun, error) {
	t0 := time.Now()
	rec := newSimRec(1, traced)
	sys, err := kmem.NewSystem(kmem.Config{CPUs: handoffCPUs, Nodes: handoffNodes, Hook: rec.hook()})
	if err != nil {
		return nil, err
	}
	m := sys.Machine()
	m.EnableSchedHash()
	a := sys.Allocator()
	ck, err := a.GetCookie(handoffBlock)
	if err != nil {
		return nil, err
	}
	own := newOwner(m.Mem(), 2)
	cpus := make([]handoffCPU, handoffCPUs)
	for i := range cpus {
		cpus[i].g = newRng(seed, uint64(i)+1)
		cpus[i].advance(i)
	}
	queues := make([][]queued, handoffCPUs)
	out := &simRun{rec: rec}

	var measuring bool
	var opNS time.Duration
	var deadline int64
	body := func(c *machine.CPU) bool {
		if c.Now() >= deadline {
			return false
		}
		id := c.ID()
		h := &cpus[id]
		c.Idle(h.think)
		var h0 time.Time
		if measuring && traced {
			h0 = time.Now()
		}
		if id%2 == 0 {
			q := &queues[h.dest]
			if len(*q) >= handoffQueueCap {
				c.Idle(handoffBackoff)
				return true
			}
			var t tok
			if measuring {
				t = rec.begin(c)
			}
			b, err := a.AllocCookie(c, ck)
			if measuring {
				rec.end(c, t, entAlloc, err != nil)
				out.ops++
			}
			if err != nil {
				if measuring {
					out.failed++
				}
				c.Idle(handoffBackoff)
				return true
			}
			*q = append(*q, queued{b, own.stamp(b, handoffBlock)})
		} else {
			q := &queues[id]
			if len(*q) == 0 {
				c.Idle(handoffBackoff)
				return true
			}
			b := (*q)[0]
			*q = (*q)[1:]
			own.check(b.addr, handoffBlock, b.stamp)
			var t tok
			if measuring {
				t = rec.begin(c)
			}
			a.FreeCookie(c, b.addr, ck)
			if measuring {
				rec.end(c, t, entFree, false)
				out.ops++
			}
		}
		h.advance(id)
		if measuring && traced {
			opNS += time.Since(h0)
		}
		return true
	}

	// Warm-up: the caches start empty and fill here.
	deadline = m.SyncClocks() + m.SecondsToCycles(sh.handoffWarmSec)
	m.Run(body)
	out.setup = time.Since(t0)
	if setupOnly {
		return out, nil
	}

	open := openWindow(a, m)
	measuring = true
	own.peak = own.live
	h0 := time.Now()
	start := m.SyncClocks()
	deadline = start + m.SecondsToCycles(sh.handoffSec)
	out.sched = runWindow(m, traced, body, &opNS)
	end := m.SyncClocks()
	out.run = time.Since(h0)
	win, hw := closeWindow(a, m, open)
	out.simSec = m.CyclesToSeconds(end - start)
	out.addWindow(m, win, hw, own.peak)

	c := m.CPU(0)
	for id := range queues {
		for _, b := range queues[id] {
			own.check(b.addr, handoffBlock, b.stamp)
			a.FreeCookie(c, b.addr, ck)
		}
	}
	if own.fault != nil {
		return nil, own.fault
	}
	if err := audit(sys); err != nil {
		return nil, err
	}
	return out, nil
}
