package main

import (
	"encoding/binary"
	"fmt"
	"time"

	"kmem"
	"kmem/internal/arena"
	"kmem/internal/machine"
)

// simRun is one repetition of a Sim workload: set-up, the measured
// window, teardown and the output checks.
type simRun struct {
	hash   uint64
	ops    uint64 // workload ops attempted in the window
	failed uint64 // of those, ops that failed or were refused
	simSec float64
	rec    *simRec

	win       counters // the window's counter deltas
	highWater int64    // physmem's high-water mark, in pages
	resident  float64  // physmem's high-water mark, in bytes
	peakLive  float64  // peak bytes the benchmark itself held live
	phases    []phaseRun

	ctorRuns, ctorSkips uint64 // streams' object caches, over the window

	setup time.Duration // input generation, system build and warm-up
	run   time.Duration // host wall time of the measured window
	sched time.Duration // traced runs: host time of Machine.Run outside op bodies
}

// addWindow adds one measured window of machine m to r: its counter
// deltas, physmem high-water mark and the benchmark's peak live bytes,
// and its schedule hash. A run that pools several windows sums them.
func (r *simRun) addWindow(m *machine.Machine, win counters, highWater int64, peakLive uint64) {
	r.win.add(win)
	r.highWater = max(r.highWater, highWater)
	r.resident += float64(highWater) * float64(m.Config().PageBytes)
	r.peakLive += float64(peakLive)
	r.hash = r.hash*1099511628211 ^ m.SchedHash()
}

// phaseRun is one phase of the serve window.
type phaseRun struct {
	name        string
	ops, failed uint64
	simSec      float64
}

// owner is the benchmark's host-side bookkeeping for the blocks it
// holds: an owner stamp written into each block's first bytes at
// allocation (through Mem().Bytes, which costs no simulated cycles) and
// verified at free, so a block handed out twice is caught; plus the
// live-byte count whose peak is the denominator of
// peak_resident_per_live. A single owner is used by one goroutine.
type owner struct {
	mem   *arena.Arena
	tag   uint64
	next  uint64
	live  uint64
	peak  uint64
	fault error
}

func newOwner(mem *arena.Arena, tag uint64) *owner {
	return &owner{mem: mem, tag: tag << 48}
}

// stamp marks a freshly allocated block of size bytes and returns the
// stamp to verify at free.
func (o *owner) stamp(b arena.Addr, size uint64) uint64 {
	o.next++
	s := o.tag | o.next
	binary.LittleEndian.PutUint64(o.mem.Bytes(b, 8), s)
	o.hold(size)
	return s
}

// check verifies a block's stamp just before it is freed.
func (o *owner) check(b arena.Addr, size, s uint64) {
	if got := binary.LittleEndian.Uint64(o.mem.Bytes(b, 8)); got != s && o.fault == nil {
		o.fault = fmt.Errorf("block %#x: owner stamp %#x, want %#x (handed out twice?)", b, got, s)
	}
	o.release(size)
}

func (o *owner) hold(size uint64) {
	o.live += size
	if o.live > o.peak {
		o.peak = o.live
	}
}

func (o *owner) release(size uint64) { o.live -= size }

// audit is the teardown check every workload runs once its blocks are
// freed: drain every cache, then the structures must be consistent and
// no class may hold live bytes.
func audit(sys *kmem.System) error {
	c := sys.CPU(0)
	sys.DrainAll(c)
	if err := sys.CheckConsistency(); err != nil {
		return fmt.Errorf("consistency: %w", err)
	}
	st := sys.Stats(c)
	for _, cs := range st.Classes {
		if cs.LiveBytes != 0 {
			return fmt.Errorf("leak: class %d holds %d live bytes after teardown", cs.Size, cs.LiveBytes)
		}
	}
	if st.VM.LargeLivePages != 0 {
		return fmt.Errorf("leak: %d large pages live after teardown", st.VM.LargeLivePages)
	}
	return nil
}

// runWindow drives m.Run(body) and, when timing, returns the host time
// Run spent outside the op bodies; body reports the host time it spent
// executing ops.
func runWindow(m *machine.Machine, timing bool, body func(c *machine.CPU) bool, opNS *time.Duration) time.Duration {
	if !timing {
		m.Run(body)
		return 0
	}
	before := *opNS
	t0 := time.Now()
	m.Run(body)
	return time.Since(t0) - (*opNS - before)
}

// rng is splitmix64: the benchmark's input generator.
type rng struct{ x uint64 }

func newRng(seed, stream uint64) *rng {
	return &rng{x: seed*0x9e3779b97f4a7c15 ^ stream*0xbf58476d1ce4e5b9}
}

func (r *rng) next() uint64 {
	r.x += 0x9e3779b97f4a7c15
	z := r.x
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }
