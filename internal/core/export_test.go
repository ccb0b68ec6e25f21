package core

import "kmem/internal/machine"

// Hooks for the external tests (package core_test), which can import
// the packages layered on core — objcache — that the internal tests
// cannot.

// InsnReclaimStep is the fixed instruction charge of one reclaim step.
const InsnReclaimStep = insnReclaimStep

// ReclaimStepAt runs one incremental reclaim step with the rotation
// cursor at slot i and returns what the step released.
func (a *Allocator) ReclaimStepAt(c *machine.CPU, i int) int {
	a.reclaimCursor.Store(uint32(i))
	return a.reclaimStep(c)
}

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
