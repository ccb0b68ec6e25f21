package main

import (
	"strings"
	"testing"

	"kmem/internal/core"
)

// TestEveryEventMapped fails when core gains a LayerEvent kind the
// depth table does not name, so a new kind cannot fall through to
// "no layer" silently.
func TestEveryEventMapped(t *testing.T) {
	for i := 0; i < core.NumLayerEvents; i++ {
		ev := core.LayerEvent(i)
		if strings.HasPrefix(ev.String(), "event(") {
			t.Errorf("event %d has no name", i)
		}
		for _, cls := range []int{-1, 0} {
			if l := layerOf(cls, ev); l == layerUnmapped {
				t.Errorf("event %v (class %d) maps to no layer", ev, cls)
			}
		}
	}
	if l := layerOf(0, core.LayerEvent(core.NumLayerEvents)); l != layerUnmapped {
		t.Errorf("an out-of-range event maps to %v, want unmapped", l)
	}
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		cls  int
		ev   core.LayerEvent
		want layer
	}{
		{3, core.EvCPURefill, layerGlobal},
		{3, core.EvLockWait, layerGlobal},
		{-1, core.EvLockWait, layerVmblk},
		{3, core.EvGlobalRefill, layerPage},
		{-1, core.EvPagesMap, layerVmblk},
		{-1, core.EvReclaimStep, layerReclaim},
		{3, core.EvCtorRun, layerNone},
	} {
		if got := layerOf(c.cls, c.ev); got != c.want {
			t.Errorf("layerOf(%d, %v) = %v, want %v", c.cls, c.ev, got, c.want)
		}
	}
}

func TestTracerDepth(t *testing.T) {
	var tr tracer
	tr.hook(0, core.EvReclaimStep, 1) // no op open: ignored
	tr.begin()
	if tr.depth != layerPercpu {
		t.Fatalf("fresh op depth = %v, want percpu", tr.depth)
	}
	tr.hook(0, core.EvCPURefill, 10)
	tr.hook(0, core.EvCtorRun, 1)
	tr.hook(-1, core.EvPagesMap, 1)
	tr.hook(0, core.EvGlobalGet, 1)
	if tr.depth != layerVmblk {
		t.Errorf("depth = %v, want vmblk (the deepest event seen)", tr.depth)
	}
	if err := tr.err(); err != nil {
		t.Errorf("err = %v", err)
	}
	tr.hook(0, core.LayerEvent(core.NumLayerEvents), 1)
	if tr.err() == nil {
		t.Error("an unmapped event did not fail the trace")
	}
}

func TestTailShares(t *testing.T) {
	var spans []span
	add := func(n int, cycles int64, depth layer, phase uint8) {
		for i := 0; i < n; i++ {
			spans = append(spans, span{ent: entAlloc, depth: depth, phase: phase, end: cycles})
		}
	}
	add(980, 50, layerPercpu, 0)
	add(10, 300, layerGlobal, 0) // the p99 value: not above it
	add(6, 5000, layerVmblk, 0)
	add(4, 90000, layerReclaim, 0)
	spans = append(spans, span{ent: entFree, depth: layerPage, end: 1 << 20})
	got := tailShares(spans, -1)
	for l, want := range map[layer]float64{layerVmblk: 0.6, layerReclaim: 0.4, layerPercpu: 0, layerGlobal: 0, layerPage: 0} {
		if got[l] != want {
			t.Errorf("tail share of %v = %v, want %v", l, got[l], want)
		}
	}
	if got := tailShares(spans, 1); got[layerVmblk] != 0 {
		t.Errorf("an empty phase has tail share %v, want 0", got[layerVmblk])
	}
	m := traceMetrics(spans, nil)
	if m["trace.depth_share.percpu"] != 0.98 || m["trace.cycles_p50.percpu"] != 50 || m["trace.cycles_p999.reclaim"] != 90000 {
		t.Errorf("trace metrics = %v", m)
	}
}
