package main

import (
	"fmt"

	"kmem/internal/core"
)

// layer is an allocator layer an op can reach, ordered by depth so the
// deepest layer of an op is the maximum over its events.
type layer int8

const (
	// layerUnmapped is the zero value: an event kind the table below
	// does not name. A traced run that meets one fails.
	layerUnmapped layer = iota
	// layerNone marks events that say nothing about how deep an op went
	// (object-cache constructor bookkeeping, hardening reports).
	layerNone
	layerPercpu
	layerGlobal
	layerPage
	layerVmblk
	layerReclaim
)

// depthLayers lists the layers an op's depth is reported in, shallowest
// first.
var depthLayers = []layer{layerPercpu, layerGlobal, layerPage, layerVmblk, layerReclaim}

func (l layer) String() string {
	switch l {
	case layerNone:
		return "none"
	case layerPercpu:
		return "percpu"
	case layerGlobal:
		return "global"
	case layerPage:
		return "page"
	case layerVmblk:
		return "vmblk"
	case layerReclaim:
		return "reclaim"
	}
	return fmt.Sprintf("unmapped(%d)", int8(l))
}

// eventLayer names, for every LayerEvent kind, the layer whose work the
// event shows. A kind added to core without an entry here stays
// layerUnmapped, which TestEveryEventMapped reports.
var eventLayer = [core.NumLayerEvents]layer{
	core.EvAlloc:           layerPercpu,
	core.EvFree:            layerPercpu,
	core.EvHomeMemoHit:     layerPercpu,
	core.EvRseqRestart:     layerPercpu,
	core.EvTargetGrow:      layerPercpu,
	core.EvTargetShrink:    layerPercpu,
	core.EvCPURefill:       layerGlobal, // the refill is served by the global layer
	core.EvCPUSpill:        layerGlobal,
	core.EvGlobalGet:       layerGlobal,
	core.EvGlobalPut:       layerGlobal,
	core.EvGblTargetGrow:   layerGlobal,
	core.EvGblTargetShrink: layerGlobal,
	core.EvRemoteFree:      layerGlobal,
	core.EvNodeSteal:       layerGlobal,
	core.EvInterconnect:    layerGlobal,
	core.EvShardFlush:      layerGlobal,
	core.EvRemotePut:       layerGlobal,
	core.EvCASRetry:        layerGlobal,
	core.EvLockWait:        layerGlobal, // class -1 (the vmblk lock) is handled in layerOf
	core.EvGlobalRefill:    layerPage,   // the global layer went to the page layer
	core.EvGlobalSpill:     layerPage,
	core.EvBlockGet:        layerPage,
	core.EvBlockPut:        layerPage,
	core.EvPageCarve:       layerPage,
	core.EvPageFree:        layerPage,
	core.EvSpanAlloc:       layerVmblk,
	core.EvSpanFree:        layerVmblk,
	core.EvVmblkCreate:     layerVmblk,
	core.EvLargeAlloc:      layerVmblk,
	core.EvLargeFree:       layerVmblk,
	core.EvPagesMap:        layerVmblk,
	core.EvPagesUnmap:      layerVmblk,
	core.EvMapFail:         layerVmblk,
	core.EvPagesReserve:    layerVmblk,
	core.EvPagesCommit:     layerVmblk,
	core.EvPagesDecommit:   layerVmblk,
	core.EvReclaim:         layerReclaim,
	core.EvReclaimStep:     layerReclaim,
	core.EvPressure:        layerReclaim,
	core.EvWait:            layerReclaim,
	core.EvWake:            layerReclaim,
	core.EvFaultInjected:   layerReclaim,
	core.EvCtorRun:         layerNone,
	core.EvCtorSkip:        layerNone,
	core.EvCacheShed:       layerNone,
	core.EvCorruption:      layerNone,
	core.EvQuarantine:      layerNone,
}

// layerOf maps one hook event to the layer it shows. Lock waits carry
// the class of the pool whose lock spun, or -1 for the vmblk layer's.
func layerOf(cls int, ev core.LayerEvent) layer {
	if int(ev) >= len(eventLayer) {
		return layerUnmapped
	}
	if ev == core.EvLockWait && cls < 0 {
		return layerVmblk
	}
	return eventLayer[ev]
}

// entry is the public call a timed op went through.
type entry uint8

const (
	entAlloc   entry = iota // core Alloc / AllocCookie
	entFree                 // core Free / FreeCookie
	entAllocb               // streams Allocb
	entFreemsg              // streams Freemsg
	entWrite                // streams Write
	entRead                 // streams Read
	entLock                 // dlm Lock
	entConvert              // dlm Convert
	entUnlock               // dlm Unlock
	numEntries
)

var entryNames = [numEntries]string{"alloc", "free", "allocb", "freemsg", "write", "read", "lock", "convert", "unlock"}

// span is one traced op: which call, where, when, and how deep it went.
type span struct {
	id     uint32
	ent    entry
	cpu    uint8
	phase  uint8
	depth  layer
	failed bool
	start  int64 // simulated cycles at entry
	end    int64 // simulated cycles at exit
	hostNS int64
}

// tracer is the traced run's core.Hook sink. In Sim mode ops run one at
// a time on the host, so every event that fires while an op is open
// belongs to that op; events outside any op (window snapshots,
// teardown) are ignored. It charges no simulated cycles.
type tracer struct {
	open     bool
	depth    layer
	unmapped []core.LayerEvent
	spans    []span
}

func (t *tracer) hook(cls int, ev core.LayerEvent, n int) {
	if !t.open {
		return
	}
	l := layerOf(cls, ev)
	if l == layerUnmapped {
		t.unmapped = append(t.unmapped, ev)
		return
	}
	if l > t.depth {
		t.depth = l
	}
}

func (t *tracer) begin() {
	t.open = true
	t.depth = layerPercpu
}

func (t *tracer) err() error {
	if len(t.unmapped) > 0 {
		return fmt.Errorf("traced run saw %d events with no layer (first: %v)", len(t.unmapped), t.unmapped[0])
	}
	return nil
}
