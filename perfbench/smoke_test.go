package main

import (
	"math"
	"strings"
	"testing"

	"kmem/internal/arena"
)

// smallShape keeps every workload to a fraction of a second.
var smallShape = shape{
	serveTraces:      2,
	serveSessions:    64,
	serveOpsPerPhase: 1500,
	handoffWarmSec:   0.0005,
	handoffSec:       0.002,
	nativeBursts:     16,
}

// TestTracedRunIsExact runs each Sim workload untraced and traced: the
// traced run must reproduce the schedule hash and every simulated
// end-to-end metric, see no unmapped event, and attribute every alloc.
func TestTracedRunIsExact(t *testing.T) {
	for name, fn := range map[string]simFn{
		"serve":   smallShape.serve,
		"handoff": smallShape.handoff,
		"native": func(seed uint64, traced, _ bool) (*simRun, error) {
			return smallShape.nativeTwin(seed, traced)
		},
	} {
		t.Run(name, func(t *testing.T) {
			plain, err := fn(7, false, false)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := fn(7, true, false)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameSim(plain, traced); err != nil {
				t.Fatal(err)
			}
			if err := traced.rec.tr.err(); err != nil {
				t.Fatal(err)
			}
			if plain.ops == 0 || plain.rec.cycles[entAlloc].count() == 0 {
				t.Fatalf("ran %d ops, %d allocs", plain.ops, plain.rec.cycles[entAlloc].count())
			}
			m := simLayer(traced)
			var share float64
			for _, l := range depthLayers {
				share += m["trace.depth_share."+l.String()]
			}
			if math.Abs(share-1) > 1e-9 {
				t.Errorf("depth shares sum to %v, want 1", share)
			}
		})
	}
}

// TestRunPrintsEveryMetric runs each workload through run() in both
// modes and checks that every catalogued metric is printed, with its
// unit, as a finite number.
func TestRunPrintsEveryMetric(t *testing.T) {
	for _, wl := range []string{"serve", "handoff", "native"} {
		for _, traced := range []bool{false, true} {
			res, err := run(smallShape, wl, 3, 0, traced, "")
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl, traced, err)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if !res.Correct || res.Attempted == 0 || len(res.Metrics) != len(defs) {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d metrics=%d, want %d",
					wl, traced, res.Correct, res.Attempted, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				got, ok := res.Metrics[d.name]
				if !ok || got.Unit != d.unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s traced=%v: %s = %+v", wl, traced, d.name, got)
				}
				if !traced && got.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", wl, d.name)
				}
			}
			if traced && wl == "serve" {
				var tail float64
				for name, v := range res.Metrics {
					if strings.HasPrefix(name, "trace.tail_share.") {
						tail += v.Value
					}
				}
				if math.Abs(tail-1) > 1e-9 {
					t.Errorf("serve tail shares sum to %v, want 1", tail)
				}
			}
		}
	}
	if _, err := run(smallShape, "nope", 1, 0, false, ""); err == nil {
		t.Error("an unknown workload ran")
	}
}

// TestOwnerStampCatchesDoubleHandOut hands one block to two owners: the
// first owner's free must report the overwritten stamp.
func TestOwnerStampCatchesDoubleHandOut(t *testing.T) {
	mem := arena.New(1 << 16)
	first, second := newOwner(mem, 1), newOwner(mem, 2)
	const b, size = arena.Addr(4096), 64
	s1 := first.stamp(b, size)
	second.stamp(b, size) // the allocator hands b out again while first holds it
	first.check(b, size, s1)
	if first.fault == nil {
		t.Fatal("a block held by two owners passed the stamp check")
	}
	if first.live != 0 || first.peak != size {
		t.Errorf("live = %d, peak = %d; want 0 and %d", first.live, first.peak, size)
	}
}
