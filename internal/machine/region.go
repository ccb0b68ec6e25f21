package machine

import (
	"fmt"
	"runtime"
	"sync/atomic"
)

// Region is one CPU's per-CPU critical section: the protection the
// paper gets from masking interrupts, justified because "CPUs are
// prohibited from accessing other CPUs' per-CPU caches". The owning
// CPU enters through Run; a foreign instruction stream that must touch
// the CPU's state (drains, stats) enters through Interfere. Regions are
// held by value, one per CPU in a slice, and the zero value is ready to
// use.
//
// In Sim mode the cost model is the point, and there are two. The zero
// Region charges the cli/sti pair (2 insns + IntrCycles, after a
// possible lock-boundary jitter delay) and has no shared word, so a
// drain costs the same as the owner's own entry. After InitRseq it is a
// restartable sequence instead. An undisturbed sequence charges:
//
//	begin:  1 insn   (arm the per-CPU critical-section descriptor)
//	body:   whatever the body charges
//	commit: 1 insn + CommitCycles (single store to an owned line,
//	        plus the abort-ip window check)
//
// — the same instruction count as cli/sti, IntrCycles-CommitCycles
// fewer cycles, and no window with interrupts off. Aborts are injected
// from the machine's seeded jitter stream (JitterConfig.RestartEvery):
// an aborted attempt charges the adversarially chosen slice of wasted
// body work plus RestartCycles for the vector through the abort
// handler, then the sequence re-runs. The body's side effects must
// therefore be confined so that re-running it is harmless; the
// simulator models an aborted attempt as pure wasted work (the
// published state is untouched), which is exactly the contract a
// commit-store sequence provides. Interfere bumps the sequence's epoch:
// a bus-locked RMW on the descriptor line plus a fence.
//
// In Native mode both models run the same optimistic protocol over
// atomics: the owner samples the region's epoch, claims the region
// word with a CAS, and re-checks the epoch — any interferer that got
// in between bumped it, aborting the attempt and restarting the
// sequence. Interfere claims the word, bumps the epoch and runs under
// the claim. Peek claims the word the same way but leaves the epoch
// alone, so a read-only look never restarts the owner. The atomics
// give the race detector its happens-before edges. The claim word also
// enforces the per-CPU discipline for free: an owner that finds the
// word held by another owner — a second goroutine driving the same CPU
// handle — panics instead of waiting.
type Region struct {
	claim atomic.Int32  // Native: claimFree, claimOwner or claimInterferer
	rseq  bool          // Sim: charge the restartable sequence, not cli/sti
	epoch atomic.Uint64 // Native: bumped by every interferer

	// Sim, with rseq set: the per-CPU descriptor/epoch word's cache
	// line. The owner keeps it resident; interferers take it exclusive
	// when they bump the epoch, which is what makes interference
	// visible.
	line Line

	// Adjacent CPUs' regions share a slice; the pad fills the region
	// out to one 64-byte line, so one CPU's fast path never invalidates
	// a neighbour's claim word (BenchmarkRegionFalseSharing).
	_ [regionPad]byte
}

// regionPad fills Region to 64 bytes: claim and rseq share the first
// 8-byte word, then epoch and line take one word each.
const regionPad = 64 - 24

// Claim word states.
const (
	claimFree int32 = iota
	claimOwner
	claimInterferer
)

// InitRseq switches r's Sim cost model from the cli/sti pair to the
// restartable sequence, with its descriptor line homed on the given
// NUMA node (the owning CPU's node, so the owner fast path stays
// node-local). Native mode runs the same protocol either way.
func (r *Region) InitRseq(m *Machine, node int) {
	r.rseq = true
	r.line = m.NewMetaLineOn(node)
}

// Run executes body as CPU c's critical section and returns the number
// of aborted attempts; the same count is passed to body, so callers can
// tally restarts into state the section itself protects (in Native
// mode, writing shared counters after Run returns would race with
// interferers). The body is invoked exactly once per call: in Sim mode
// aborted attempts are charged as wasted work (see the type comment),
// in Native mode the body runs once the claim succeeds with an
// unchanged epoch. Only the goroutine driving c may call Run on c's
// region; Native mode panics when it catches a second one inside.
func (r *Region) Run(c *CPU, body func(restarts int)) int {
	m := c.m
	aborted := 0
	if m.cfg.Mode == Sim {
		if !r.rseq {
			m.lockJitter(c)
			c.DisableIntr()
			body(0)
			return 0
		}
		for {
			abort, wasted := m.rseqAbort(c)
			if !abort {
				break
			}
			aborted++
			c.restarts++
			// The aborted attempt: begin, a jitter-chosen slice of the
			// body, then the vector through the abort handler back to
			// the sequence head.
			c.Work(1 + wasted)
			c.clock += m.cfg.RestartCycles
		}
		c.Work(1) // begin: arm the descriptor
		body(aborted)
		c.Work(1) // commit store
		c.clock += m.cfg.CommitCycles
		return aborted
	}
	for {
		e := r.epoch.Load()
		if !r.claim.CompareAndSwap(claimFree, claimOwner) {
			if r.claim.Load() == claimOwner {
				panic(fmt.Sprintf(
					"machine: CPU %d entered concurrently by two goroutines; one goroutine must own a CPU handle at a time",
					c.id))
			}
			runtime.Gosched() // an interferer holds it: wait it out
			continue
		}
		if r.epoch.Load() != e {
			// An interferer completed between the epoch sample and the
			// claim: abort and restart from the top.
			r.claim.Store(claimFree)
			aborted++
			continue
		}
		body(aborted)
		r.claim.Store(claimFree)
		return aborted
	}
}

// Interfere executes body against the region's per-CPU state from a
// foreign CPU, aborting any sequence the owner starts meanwhile.
func (r *Region) Interfere(c *CPU, body func()) {
	m := c.m
	if m.cfg.Mode == Sim {
		if !r.rseq {
			m.lockJitter(c)
			c.DisableIntr()
		} else {
			c.Atomic(r.line)
			c.clock += m.cfg.FenceCycles
		}
		body()
		return
	}
	r.claimForeign()
	r.epoch.Add(1)
	body()
	r.claim.Store(claimFree)
}

// claimForeign takes the claim word for a foreign CPU (Native mode),
// yielding while the owner or another foreigner holds it.
func (r *Region) claimForeign() {
	for !r.claim.CompareAndSwap(claimFree, claimInterferer) {
		runtime.Gosched()
	}
}

// Peek executes fn, a read-only look at the region's per-CPU state from
// a foreign CPU — the kernel's READ_ONCE of another CPU's count word.
// In Sim mode it charges nothing of its own: no interrupt window, no
// epoch bump, only the accesses fn itself charges. In Native mode it
// holds the claim word as an interferer for fn's duration but does not
// bump the epoch, so an owner that arrives meanwhile waits the peek out
// and then runs without restarting. fn must not modify the state.
func (r *Region) Peek(c *CPU, fn func()) {
	if c.m.cfg.Mode == Sim {
		fn()
		return
	}
	r.claimForeign()
	fn()
	r.claim.Store(claimFree)
}
