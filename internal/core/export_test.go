package core

import "kmem/internal/machine"

// Hooks for the external tests (package core_test), which can import
// the packages layered on core — objcache — that the internal tests
// cannot.

// InsnReclaimStep is the fixed instruction charge of one reclaim step.
const InsnReclaimStep = insnReclaimStep

// InsnSummaryTest is the instruction charge of one look at the
// occupancy summary, beside the read of its line.
const InsnSummaryTest = insnSummaryTest

// SummaryLine is the occupancy summary's line.
func (a *Allocator) SummaryLine() machine.Line { return a.occ.line }

// ReclaimRunAt runs reclaimRun with the rotation cursor at slot i and
// at most max steps, and returns what it released and how many steps
// it ran.
func (a *Allocator) ReclaimRunAt(c *machine.CPU, i, max int) (released, steps int) {
	a.reclaimCursor.Store(uint32(i))
	return a.reclaimRun(c, max)
}

// ReclaimCursor is the rotation cursor: the number of steps claimed
// since it was last set.
func (a *Allocator) ReclaimCursor() uint32 { return a.reclaimCursor.Load() }

// SetStepLog has fn see the rotation position and release count of
// every incremental reclaim step, in the order they run.
func (a *Allocator) SetStepLog(fn func(pos, released int)) { a.stepLog = fn }

// NumReclaimSteps is the length of the reclaim rotation.
func (a *Allocator) NumReclaimSteps() int { return a.reclaimSteps() }

// CacheLine is the line holding CPU cpu's cache state for class cls.
func (a *Allocator) CacheLine(cpu, cls int) machine.Line { return a.percpu[cpu][cls].line }

// ClassOf is the size class serving size.
func (a *Allocator) ClassOf(size uint64) int { return a.classFor(size) }

// GlobalPool returns the line and lock statistics of class cls's global
// pool on node.
func (a *Allocator) GlobalPool(cls, node int) (machine.Line, machine.LockStats) {
	g := a.classes[cls].globals[node]
	return g.line, g.lk.Stats()
}

// AuditOccupancy is CheckConsistency's audit of the occupancy summary
// alone: every global pool's bit against its contents.
func (a *Allocator) AuditOccupancy() error { return a.checkOccupancy() }

// AnyPoolBit reports whether any global pool's summary bit is set.
func (a *Allocator) AnyPoolBit() bool {
	for b := 0; b < a.occ.cacheBase; b++ {
		if a.occ.has(b) {
			return true
		}
	}
	return false
}

// CacheOccupancy reports, uncharged, the summary bits of every
// registered cache shed in registration order: one entry per node, or
// nil for a cache that does not report.
func (a *Allocator) CacheOccupancy() [][]bool {
	o := &a.occ
	a.shedMu.Lock()
	defer a.shedMu.Unlock()
	out := make([][]bool, len(a.shedFns))
	for i, e := range a.shedFns {
		if e.slot < 0 {
			continue
		}
		out[i] = make([]bool, o.nodes)
		for node := range out[i] {
			out[i][node] = o.has(o.cacheBit(e.slot, node))
		}
	}
	return out
}

// RegisterCacheShed registers a shed callback for a cache that does not
// report its depots, so its reclaim steps always call fn.
func (a *Allocator) RegisterCacheShed(fn CacheShedFunc) func() {
	_, unregister := a.registerShed(fn, false)
	return unregister
}
