package main

import (
	"math"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestGroupOf(t *testing.T) {
	for fn, want := range map[string]string{
		"kmem/internal/machine.fnvMix":               "machine.host_share.schedhash",
		"kmem/internal/machine.(*busState).chase":    "machine.host_share.bus",
		"kmem/internal/machine.(*CPU).access":        "machine.host_share.bus",
		"kmem/internal/machine.(*SpinLock).Acquire":  "machine.host_share.spinlock",
		"kmem/internal/machine.(*IntrLock).Acquire":  "machine.host_share.spinlock",
		"kmem/internal/machine.(*Machine).runSim":    "machine.host_share.sched",
		"kmem/internal/machine.cpuHeap.Less":         "machine.host_share.sched",
		"container/heap.Fix":                         "machine.host_share.sched",
		"kmem/internal/core.(*Allocator).allocClass": "core.host_share",
		"kmem/internal/physmem.(*Pool).Commit":       "core.host_share",
		"kmem.(*System).Alloc":                       "core.host_share",
		"kmem/internal/streams.(*Subsystem).Allocb":  "objcache_streams_dlm.host_share",
		"kmem/internal/dlm.(*Manager).Lock":          "objcache_streams_dlm.host_share",
		"kmem/internal/objcache.(*Cache).Get":        "objcache_streams_dlm.host_share",
		"main.(*serveRunner).exec":                   "perfbench.host_share",
		"runtime.mallocgc":                           "",
		"sync.(*Mutex).Lock":                         "",
	} {
		if got := groupOf(fn); got != want {
			t.Errorf("groupOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

var sink uint64

//go:noinline
func burnCPU(d time.Duration) {
	for t0 := time.Now(); time.Since(t0) < d; {
		for i := 0; i < 1000; i++ {
			sink = sink*6364136223846793005 + 1442695040888963407
		}
	}
}

func TestProfileDecodeAndGroup(t *testing.T) {
	p, err := startProfile()
	if err != nil {
		t.Skipf("cpu profile unavailable: %v", err)
	}
	burnCPU(300 * time.Millisecond)
	pprof.StopCPUProfile()
	stacks, err := decodeProfile(p.buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range stacks {
		for _, fn := range s.frames {
			if strings.HasSuffix(fn, ".burnCPU") { // main. in the binary, the import path under test
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("no sample names burnCPU in %v", stacks)
	}
	shares := groupShares(stacks)
	var sum float64
	for _, g := range hostGroups {
		sum += shares[g]
	}
	if math.Abs(sum-1) > 1e-9 || shares["perfbench.host_share"] < 0.5 {
		t.Errorf("shares = %v (sum %v), want them to sum to 1 with the benchmark dominant", shares, sum)
	}
	if _, err := decodeProfile([]byte("not a profile")); err == nil {
		t.Error("garbage decoded without error")
	}
}
