package allocif

import (
	"kmem/internal/arena"
	"kmem/internal/core"
	"kmem/internal/machine"
)

// NewKMA adapts the paper's allocator behind its standard (kmem_alloc)
// interface. This is the "newkma" trace in Figures 7 and 8.
type NewKMA struct {
	*core.Allocator
}

// Name implements Allocator.
func (NewKMA) Name() string { return "newkma" }

// CookieKMA adapts the paper's allocator behind the cookie interface:
// cookies for every size class are translated once at construction, as a
// kernel subsystem would do at compile/init time. This is the "cookie"
// trace in Figures 7 and 8.
type CookieKMA struct {
	A       *core.Allocator
	cookies []core.Cookie // per class
}

// NewCookieKMA precomputes a cookie per size class.
func NewCookieKMA(a *core.Allocator) *CookieKMA {
	ck := &CookieKMA{A: a}
	for i := 0; i < a.NumClasses(); i++ {
		c, err := a.GetCookie(uint64(a.ClassSize(i)))
		if err != nil {
			panic(err)
		}
		ck.cookies = append(ck.cookies, c)
	}
	return ck
}

// Name implements Allocator.
func (*CookieKMA) Name() string { return "cookie" }

// cookieFor finds the precomputed cookie whose class covers size.
func (k *CookieKMA) cookieFor(size uint64) (core.Cookie, bool) {
	for i := range k.cookies {
		if uint64(k.cookies[i].Size()) >= size {
			return k.cookies[i], true
		}
	}
	return core.Cookie{}, false
}

// Alloc implements Allocator via the cookie fast path; requests beyond
// the largest class fall back to the standard interface (as callers
// without a compile-time size must).
func (k *CookieKMA) Alloc(c *machine.CPU, size uint64) (arena.Addr, error) {
	if ck, ok := k.cookieFor(size); ok {
		return k.A.AllocCookie(c, ck)
	}
	return k.A.Alloc(c, size)
}

// Free implements Allocator.
func (k *CookieKMA) Free(c *machine.CPU, addr arena.Addr, size uint64) {
	if ck, ok := k.cookieFor(size); ok {
		k.A.FreeCookie(c, addr, ck)
		return
	}
	k.A.Free(c, addr, size)
}

// DrainAll implements Coalescer.
func (k *CookieKMA) DrainAll(c *machine.CPU) { k.A.DrainAll(c) }

// AllocWait implements Waiter via the core allocator's blocking path
// (cookies carry no wait semantics of their own).
func (k *CookieKMA) AllocWait(c *machine.CPU, size uint64) (arena.Addr, error) {
	return k.A.AllocWait(c, size)
}

// Trim implements Trimmer (cookies change nothing about page backing).
func (k *CookieKMA) Trim(c *machine.CPU, maxPages int64) int64 {
	return k.A.Trim(c, maxPages)
}

// The remaining forwarders expose the core allocator's cookie,
// cache-shed, sizing, and event-spine hooks, so typed object caches
// (internal/objcache) layer over a CookieKMA exactly as over the core
// allocator itself.

// GetCookie forwards cookie resolution to the core allocator.
func (k *CookieKMA) GetCookie(size uint64) (core.Cookie, error) { return k.A.GetCookie(size) }

// AllocCookie forwards a cookie allocation to the core allocator.
func (k *CookieKMA) AllocCookie(c *machine.CPU, ck core.Cookie) (arena.Addr, error) {
	return k.A.AllocCookie(c, ck)
}

// FreeCookie forwards a cookie free to the core allocator.
func (k *CookieKMA) FreeCookie(c *machine.CPU, addr arena.Addr, ck core.Cookie) {
	k.A.FreeCookie(c, addr, ck)
}

// RoundedSize forwards class rounding to the core allocator.
func (k *CookieKMA) RoundedSize(size uint64) uint64 { return k.A.RoundedSize(size) }

// RegisterCacheShedNotify forwards object-cache reclaim registration.
func (k *CookieKMA) RegisterCacheShedNotify(fn core.CacheShedFunc) (core.DepotNotifier, func()) {
	return k.A.RegisterCacheShedNotify(fn)
}

// EmitCacheEvent forwards object-cache events to the event spine.
func (k *CookieKMA) EmitCacheEvent(ev core.LayerEvent, n int) { k.A.EmitCacheEvent(ev, n) }

var (
	_ Allocator = NewKMA{}
	_ Coalescer = NewKMA{}
	_ Waiter    = NewKMA{}
	_ Trimmer   = NewKMA{}
	_ Allocator = (*CookieKMA)(nil)
	_ Coalescer = (*CookieKMA)(nil)
	_ Waiter    = (*CookieKMA)(nil)
	_ Trimmer   = (*CookieKMA)(nil)
	_ Waiter    = RetryWait{}
)
