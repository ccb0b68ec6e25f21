package core

import (
	"fmt"
	"sync/atomic"

	"kmem/internal/machine"
)

// occupancy is the allocator's exact occupancy summary: one bit per
// non-CPU reclaim target, all on one metadata line. Bit cls*nodes+node
// belongs to that class's global pool on that node and is set exactly
// when the pool's drainAll would move something (a cached list or a
// bucket block). After the pools come the object caches that report
// their depots (RegisterCacheShedNotify): each holds one of
// occCacheSlots slots of nodes bits, bit node set exactly when that
// node's depot holds a full magazine.
//
// A bit flips under its own target's lock, and only on the target's
// empty <-> non-empty transitions, with one charged atomic on the
// summary line. Between flips the line stays shared in every reader's
// cache, so a consumer — a reclaim step, a steal, the depot step —
// learns that its target is empty for a few instructions and one
// (usually hitting) read instead of a trip to the target's own line.
//
// The summary is armed exactly when the pressure model is
// (Params.Pressure != nil), except under Params.LockFree: the Treiber
// paths move lists and parked pages without the pool lock, so no bit is
// kept there and the consumers fall back to their peeks. Disarmed it
// owns no line and charges nothing, so every non-pressure path keeps
// its cycles.
type occupancy struct {
	armed bool
	line  machine.Line
	words []atomic.Uint64

	nodes     int
	cacheBase int    // first cache bit; pool bits are [0, cacheBase)
	slots     []bool // cache slots in use, guarded by Allocator.shedMu
}

// occCacheSlots bounds the reporting object caches. A cache registered
// while every slot is taken simply does not report, and its depot step
// is never skipped.
const occCacheSlots = 64

// initOccupancy arms the summary when the pressure model is on and the
// lock-free commit model is off. Called last in New, so the summary
// line is the last line the allocator itself reserves.
func (a *Allocator) initOccupancy() {
	if a.params.Pressure == nil || a.lockFree {
		return
	}
	o := &a.occ
	o.armed = true
	o.line = a.m.NewMetaLine()
	o.nodes = a.nodes
	o.cacheBase = len(a.classes) * a.nodes
	o.words = make([]atomic.Uint64, (o.cacheBase+occCacheSlots*a.nodes+63)/64)
	o.slots = make([]bool, occCacheSlots)
}

// has reports bit b without charge: the owner of b's lock reading its
// own bit, or a consumer that already paid for the line with look.
func (o *occupancy) has(b int) bool {
	return o.words[b/64].Load()&(1<<(b%64)) != 0
}

// look charges a consumer's read of the summary: the mask-and-test
// instructions and one read of the line.
func (o *occupancy) look(c *machine.CPU) {
	c.Work(insnSummaryTest)
	c.Read(o.line)
}

// anyOf charges one look and reports whether any of the n bits from b
// is set.
func (o *occupancy) anyOf(c *machine.CPU, b, n int) bool {
	o.look(c)
	for i := b; i < b+n; i++ {
		if o.has(i) {
			return true
		}
	}
	return false
}

// flip sets or clears bit b with one charged atomic on the summary
// line. The caller holds the lock of b's target and has just moved the
// target across empty <-> non-empty.
func (o *occupancy) flip(c *machine.CPU, b int, on bool) {
	c.Atomic(o.line)
	o.set(b, on)
}

// set sets or clears bit b without charge.
func (o *occupancy) set(b int, on bool) {
	w, mask := &o.words[b/64], uint64(1)<<(b%64)
	for {
		old := w.Load()
		next := old &^ mask
		if on {
			next = old | mask
		}
		if w.CompareAndSwap(old, next) {
			return
		}
	}
}

// cacheBit is the bit of node's depot in cache slot s.
func (o *occupancy) cacheBit(s, node int) int { return o.cacheBase + s*o.nodes + node }

// bit is the pool's bit in the summary.
func (g *globalPool) bit() int { return g.cls*g.al.nodes + g.node }

// cached reports whether the pool caches a list or a bucket block. The
// caller holds lk, peeks under it, or audits a quiescent allocator.
func (g *globalPool) cached() bool { return len(g.lists) > 0 || !g.bucket.Empty() }

// noteOcc brings the pool's summary bit in line with its contents. The
// caller holds lk and has just changed lists or bucket; only a change
// of emptiness costs anything.
func (g *globalPool) noteOcc(c *machine.CPU) {
	o := &g.al.occ
	if !o.armed {
		return
	}
	if held := g.cached(); held != o.has(g.bit()) {
		o.flip(c, g.bit(), held)
	}
}

// checkOccupancy audits the summary against the targets on a quiescent
// allocator, uncharged: every pool's bit matches its contents, and no
// bit of a free cache slot is set. A reporting cache's depots live in
// its own package, so the tests audit those bits.
func (a *Allocator) checkOccupancy() error {
	o := &a.occ
	if !o.armed {
		return nil
	}
	for cls := range a.classes {
		for _, g := range a.classes[cls].globals {
			if held := g.cached(); held != o.has(g.bit()) {
				return fmt.Errorf("kmem: class %d node %d global pool holds=%v but its summary bit is %v",
					cls, g.node, held, !held)
			}
		}
	}
	a.shedMu.Lock()
	defer a.shedMu.Unlock()
	for s, used := range o.slots {
		for node := 0; node < o.nodes && !used; node++ {
			if o.has(o.cacheBit(s, node)) {
				return fmt.Errorf("kmem: free cache slot %d has node %d's summary bit set", s, node)
			}
		}
	}
	return nil
}
