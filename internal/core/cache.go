package core

import (
	"sync"

	"kmem/internal/machine"
)

// This file is the allocator side of the typed object-cache layer
// (internal/objcache): caches of constructed objects sit above the
// cookie path and hold buffers the allocator considers allocated. Two
// hooks connect the layers without core importing objcache:
//
//   - RegisterCacheShedNotify lets a cache participate in the reclaim and
//     pressure machinery: when the allocator needs memory back, it asks
//     every registered cache to shed constructed buffers (destructing
//     them and freeing their backing blocks) before — and in addition
//     to — its own drains.
//   - EmitCacheEvent routes the caches' slow-path events (EvCtorRun,
//     EvCacheShed) through the allocator's Hook so the event spine stays
//     the single observation point.
//
// With no caches registered every branch below is a nil/len-0 check on
// slow paths only, so the allocator remains cycle-identical to the
// pre-objcache goldens.

// CacheShedFunc is one cache's reclaim callback. A non-aggressive call
// asks for the cheap give-back — the cache's depot of full magazines is
// shrunk, destructing those cold constructed buffers and freeing their
// backing; every PressureCritical reclaim step makes one, so it should
// cost only reads when the depot is empty — while an aggressive call
// (the stop-the-world reclaim and DrainAll paths) also flushes the
// per-CPU magazines. It returns the
// number of buffers released to the allocator, and that count decides
// what follows an incremental reclaim step under PressureCritical: a
// positive return makes the allocation that ran the step retry, while
// zero lets it move straight on to the next step. A callback that frees
// buffers but reports 0 therefore hides them from that retry until the
// budget's final one. The callback runs with no allocator locks held and
// may call Free/FreeCookie.
type CacheShedFunc func(c *machine.CPU, aggressive bool) int

type cacheShedEntry struct {
	id int
	fn CacheShedFunc
	// slot is the cache's slot in the occupancy summary, or -1 for a
	// cache that does not report its depots.
	slot int
}

// DepotNotifier keeps a reporting cache's bits of the occupancy summary
// exact. The cache calls it with node's depot lock held, each time that
// depot goes from holding no full magazine to holding one (holds true)
// and back (holds false), and at no other time.
type DepotNotifier func(c *machine.CPU, node int, holds bool)

// RegisterCacheShedNotify registers a cache shed callback with the
// reclaim and pressure layers and returns the cache's DepotNotifier and
// a function that unregisters it. Sheds run in registration order: on
// the stop-the-world reclaim path and DrainAll (aggressive), before
// Trim's decommit pass (non-aggressive, so depot buffers coalesce into
// trimmable spans), and as extra steps in the incremental reclaimStep
// rotation under PressureCritical.
//
// While the occupancy summary is armed the cache gets a slot there, and
// a reclaim step that lands on it reads the slot's bits instead of
// calling fn when no depot holds a full magazine. The cache must call
// the notifier on every depot transition (see DepotNotifier), and its
// depots must be empty when it registers. The notifier is nil when the
// summary is disarmed or has no free slot; the cache then reports
// nothing and its steps always call fn.
func (a *Allocator) RegisterCacheShedNotify(fn CacheShedFunc) (DepotNotifier, func()) {
	return a.registerShed(fn, true)
}

// registerShed registers fn, taking a summary slot when report is set
// and the summary has one free.
func (a *Allocator) registerShed(fn CacheShedFunc, report bool) (DepotNotifier, func()) {
	o := &a.occ
	a.shedMu.Lock()
	a.shedSeq++
	id := a.shedSeq
	slot := -1
	if report && o.armed {
		for s, used := range o.slots {
			if !used {
				o.slots[s], slot = true, s
				break
			}
		}
	}
	a.shedFns = append(a.shedFns, cacheShedEntry{id: id, fn: fn, slot: slot})
	a.shedMu.Unlock()
	var notify DepotNotifier
	// live and the flips it admits are guarded by mu, so a flip that
	// passed the check finishes before unregister clears the slot. A
	// cache can still be inside a shed (and so a notify) while another
	// goroutine destroys it; without mu, that late flip could land on
	// the next cache to take the slot.
	var mu sync.Mutex
	live := slot >= 0
	if live {
		notify = func(c *machine.CPU, node int, holds bool) {
			mu.Lock()
			if live {
				o.flip(c, o.cacheBit(slot, node), holds)
			}
			mu.Unlock()
		}
	}
	return notify, func() {
		mu.Lock()
		live = false
		mu.Unlock()
		a.shedMu.Lock()
		for i := range a.shedFns {
			if a.shedFns[i].id == id {
				a.shedFns = append(a.shedFns[:i], a.shedFns[i+1:]...)
				break
			}
		}
		if slot >= 0 {
			// The next cache to take the slot starts with empty depots.
			for node := 0; node < o.nodes; node++ {
				o.set(o.cacheBit(slot, node), false)
			}
			o.slots[slot] = false
		}
		a.shedMu.Unlock()
	}
}

// shedSnapshot returns the current shed callbacks (nil when no caches
// are registered — the common case, one uncharged mutex on slow paths).
func (a *Allocator) shedSnapshot() []cacheShedEntry {
	a.shedMu.Lock()
	fns := a.shedFns
	a.shedMu.Unlock()
	return fns
}

// shedCaches asks every registered cache to shed; returns buffers freed.
func (a *Allocator) shedCaches(c *machine.CPU, aggressive bool) int {
	var n int
	for _, e := range a.shedSnapshot() {
		n += e.fn(c, aggressive)
	}
	return n
}

// numShedders reports the registered cache count, for the reclaimStep
// rotation.
func (a *Allocator) numShedders() int {
	a.shedMu.Lock()
	n := len(a.shedFns)
	a.shedMu.Unlock()
	return n
}

// shedOne runs one registered cache's non-aggressive shed — one
// increment of the reclaimStep rotation. The rotation works a sweep
// queue of registration ids, snapshotted whenever the previous sweep is
// exhausted: every cache registered at sweep start (and still registered
// at its turn) is visited exactly once per sweep, and ids popped for
// caches that unregistered mid-sweep are skipped. Ids are stable under
// churn, so no amount of unregister/re-register reshuffling between
// steps can starve a cache that stays registered — the position-modulo
// selection this replaces could land on the same slot every step while a
// neighbor was never visited. The step charges insnReclaimStep, except
// that a reporting cache whose summary bits show every depot empty
// costs one look at the summary instead. Returns the buffers the shed
// released.
func (a *Allocator) shedOne(c *machine.CPU) int {
	a.shedMu.Lock()
	var e cacheShedEntry
	for e.fn == nil {
		if len(a.shedQueue) == 0 {
			if len(a.shedFns) == 0 {
				a.shedMu.Unlock()
				c.Work(insnReclaimStep)
				return 0
			}
			for _, e := range a.shedFns {
				a.shedQueue = append(a.shedQueue, e.id)
			}
		}
		id := a.shedQueue[0]
		a.shedQueue = a.shedQueue[1:]
		for _, f := range a.shedFns {
			if f.id == id {
				e = f
				break
			}
		}
	}
	a.shedMu.Unlock()
	if e.slot >= 0 && !a.occ.anyOf(c, a.occ.cacheBit(e.slot, 0), a.occ.nodes) {
		// The cache reports every depot empty: the shed would only
		// peek them and release nothing.
		return 0
	}
	c.Work(insnReclaimStep)
	return e.fn(c, false)
}

// EmitCacheEvent pushes an object-cache event (EvCtorRun, EvCacheShed)
// through the allocator's Hook on behalf of the objcache layer. Cache
// events are classless (-1): a cache's backing class is its own affair.
// Like every Hook emission this must only be called on slow paths.
func (a *Allocator) EmitCacheEvent(ev LayerEvent, n int) {
	a.emit(-1, ev, n)
}
