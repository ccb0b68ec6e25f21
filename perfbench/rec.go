package main

import (
	"time"

	"kmem/internal/core"
	"kmem/internal/machine"
)

// simRec times every call a Sim workload makes into core, streams and
// dlm from outside, with CPU.Now(): reading the virtual clock charges
// nothing, so timing cannot perturb the schedule. In the traced run it
// also reads the host clock around each call and records a span with
// the deepest layer the tracer saw.
type simRec struct {
	phase   int
	calls   uint64
	cycles  [numEntries]hist
	allocPh []hist // alloc cycles per phase
	tr      *tracer
}

func newSimRec(phases int, traced bool) *simRec {
	r := &simRec{allocPh: make([]hist, phases)}
	if traced {
		r.tr = &tracer{}
	}
	return r
}

// hook returns the core.Hook for the allocator under test: the tracer's
// in the traced run, nil otherwise.
func (r *simRec) hook() core.Hook {
	if r.tr == nil {
		return nil
	}
	return r.tr.hook
}

type tok struct {
	t0 int64
	h0 time.Time
}

func (r *simRec) begin(c *machine.CPU) tok {
	t := tok{t0: c.Now()}
	if r.tr != nil {
		r.tr.begin()
		t.h0 = time.Now()
	}
	return t
}

func (r *simRec) end(c *machine.CPU, t tok, e entry, failed bool) {
	d := c.Now() - t.t0
	r.calls++
	r.cycles[e].add(d)
	if e == entAlloc {
		r.allocPh[r.phase].add(d)
	}
	if tr := r.tr; tr != nil {
		host := time.Since(t.h0)
		tr.open = false
		tr.spans = append(tr.spans, span{
			id:     uint32(len(tr.spans)),
			ent:    e,
			cpu:    uint8(c.ID()),
			phase:  uint8(r.phase),
			depth:  tr.depth,
			failed: failed,
			start:  t.t0,
			end:    c.Now(),
			hostNS: int64(host),
		})
	}
}

// Indices into a window's counter vector: the public counters the
// per-layer metrics are built from, read at the window's edges from
// CPU.Stats, the interconnect transaction count and Allocator.Stats
// (which carries physmem.Pool.Stats).
const (
	cInsns = iota
	cMisses
	cRemoteMisses
	cBusWait
	cSpinWait
	cInterconnect
	cAllocs
	cFrees
	cAllocRefills
	cFreeSpills
	cGlobalGets
	cGlobalPuts
	cGlobalRefills
	cGlobalLockSpin
	cGlobalLockHold
	cGlobalLockAcqs
	cGlobalLockContended
	cRemotePuts
	cShardFlushes
	cNodeSteals
	cPageCarves
	cPageFrees
	cPageLockSpin
	cSpanAllocs
	cPagesMapped
	cPagesUnmapped
	cMapFailures
	cReclaims
	cReclaimSteps
	cPressureTransitions
	cPhysFailures
	numCounters
)

// counters is a counter vector: a snapshot, or the difference of two.
type counters [numCounters]float64

func (c counters) sub(o counters) counters {
	for i := range c {
		c[i] -= o[i]
	}
	return c
}

func (c *counters) add(o counters) {
	for i := range c {
		c[i] += o[i]
	}
}

// readMachine fills the machine's counters: the CPUs' summed Stats and
// the interconnect transaction count.
func (c *counters) readMachine(m *machine.Machine) {
	for i := 0; i < m.NumCPUs(); i++ {
		x := m.CPU(i).Stats()
		c[cInsns] += float64(x.Instructions)
		c[cMisses] += float64(x.Misses)
		c[cRemoteMisses] += float64(x.RemoteMisses)
		c[cBusWait] += float64(x.BusWait)
		c[cSpinWait] += float64(x.SpinWait)
	}
	c[cInterconnect] = float64(m.InterconnectTransactions())
}

// readAlloc fills the allocator's counters from one Stats snapshot.
func (c *counters) readAlloc(st *core.Stats) {
	for i := range st.Classes {
		cs := &st.Classes[i]
		c[cAllocs] += float64(cs.Allocs)
		c[cFrees] += float64(cs.Frees)
		c[cAllocRefills] += float64(cs.AllocRefills)
		c[cFreeSpills] += float64(cs.FreeSpills)
		c[cGlobalGets] += float64(cs.GlobalGets)
		c[cGlobalPuts] += float64(cs.GlobalPuts)
		c[cGlobalRefills] += float64(cs.GlobalRefills)
		c[cGlobalLockSpin] += float64(cs.GlobalLock.SpinCycles)
		c[cGlobalLockHold] += float64(cs.GlobalLock.HoldCycles)
		c[cGlobalLockAcqs] += float64(cs.GlobalLock.Acquisitions)
		c[cGlobalLockContended] += float64(cs.GlobalLock.Contended)
		c[cRemotePuts] += float64(cs.RemotePuts)
		c[cShardFlushes] += float64(cs.ShardFlushes)
		c[cNodeSteals] += float64(cs.NodeSteals)
		c[cPageCarves] += float64(cs.PageAllocs)
		c[cPageFrees] += float64(cs.PageFrees)
		c[cPageLockSpin] += float64(cs.PageLock.SpinCycles)
	}
	c[cSpanAllocs] = float64(st.VM.SpanAllocs)
	c[cPagesMapped] = float64(st.VM.PagesMapped)
	c[cPagesUnmapped] = float64(st.VM.PagesUnmap)
	c[cMapFailures] = float64(st.VM.MapFailures)
	c[cReclaims] = float64(st.Reclaims)
	c[cReclaimSteps] = float64(st.Pressure.ReclaimSteps)
	c[cPressureTransitions] = float64(st.Pressure.Transitions)
	c[cPhysFailures] = float64(st.Phys.Failures)
}

// openWindow reads the counters at a window's start. Allocator.Stats
// takes locks and so charges cycles in Sim mode; it is read before the
// CPU counters here and after them in closeWindow, so the window holds
// only the workload's own instructions.
func openWindow(a *core.Allocator, m *machine.Machine) counters {
	var c counters
	st := a.Stats(m.CPU(0))
	c.readAlloc(&st)
	c.readMachine(m)
	return c
}

// closeWindow returns the window's counter deltas and physmem's
// high-water mark in pages.
func closeWindow(a *core.Allocator, m *machine.Machine, open counters) (counters, int64) {
	var c counters
	c.readMachine(m)
	st := a.Stats(m.CPU(0))
	c.readAlloc(&st)
	return c.sub(open), st.Phys.HighWater
}
