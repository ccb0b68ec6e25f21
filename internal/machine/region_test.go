package machine

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

func nativeMachine(ncpu int) *Machine {
	cfg := DefaultConfig()
	cfg.Mode = Native
	cfg.NumCPUs = ncpu
	return New(cfg)
}

func TestRegionFillsOneLine(t *testing.T) {
	if got := unsafe.Sizeof(Region{}); got != 64 {
		t.Fatalf("sizeof(Region) = %d, want one 64-byte line", got)
	}
}

// TestRegionSimCharges pins both Sim cost models: the zero Region is
// the cli/sti pair on either side, and InitRseq switches it to the
// begin/commit pair (owner) and the epoch bump (interferer).
func TestRegionSimCharges(t *testing.T) {
	m := simMachine(1)
	cfg := m.Config()
	c := m.CPU(0)
	charge := func(f func()) (int64, uint64) {
		before := c.Stats()
		f()
		after := c.Stats()
		return after.Cycles - before.Cycles, after.Instructions - before.Instructions
	}
	runs := 0
	body := func(restarts int) {
		if restarts != 0 {
			t.Fatalf("restarts = %d with jitter off", restarts)
		}
		runs++
	}

	var intr Region
	if cyc, ins := charge(func() { intr.Run(c, body) }); cyc != cfg.IntrCycles || ins != 2 {
		t.Errorf("intr Run = %d cycles / %d insns, want %d / 2", cyc, ins, cfg.IntrCycles)
	}
	if cyc, ins := charge(func() { intr.Interfere(c, func() { body(0) }) }); cyc != cfg.IntrCycles || ins != 2 {
		t.Errorf("intr Interfere = %d cycles / %d insns, want %d / 2", cyc, ins, cfg.IntrCycles)
	}

	var rs Region
	rs.InitRseq(m, 0)
	want := 2*cfg.CyclesPerInsn + cfg.CommitCycles
	if cyc, ins := charge(func() { rs.Run(c, body) }); cyc != want || ins != 2 {
		t.Errorf("rseq Run = %d cycles / %d insns, want %d / 2", cyc, ins, want)
	}
	if runs != 3 {
		t.Errorf("bodies run %d times, want 3", runs)
	}
}

// TestRegionSimNeverPanics: Sim mode drives every CPU from one
// goroutine and never touches the claim word, so even entries that
// would overlap in Native mode are legitimate there.
func TestRegionSimNeverPanics(t *testing.T) {
	m := simMachine(1)
	c := m.CPU(0)
	var intr, rs Region
	rs.InitRseq(m, 0)
	for _, r := range []*Region{&intr, &rs} {
		r.Run(c, func(int) {
			r.Run(c, func(int) {})
			r.Interfere(c, func() {})
		})
	}
}

// TestRegionOwnershipOverlapPanics: an owner entry that finds another
// owner inside the region is two goroutines driving one CPU handle,
// and panics instead of waiting. The nested Run stands in for the
// second goroutine deterministically.
func TestRegionOwnershipOverlapPanics(t *testing.T) {
	m := nativeMachine(1)
	c := m.CPU(0)
	var r Region
	r.Run(c, func(int) {
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, "entered concurrently by two goroutines") {
				t.Errorf("overlapping owner: recovered %q, want the ownership panic", msg)
			}
		}()
		r.Run(c, func(int) { t.Error("second owner ran") })
	})
	// The outer section released the claim: entry works again.
	ran := false
	r.Run(c, func(int) { ran = true })
	if !ran {
		t.Fatal("region unusable after the caught overlap")
	}
}

// holdRegion enters r through enter on its own goroutine and blocks in
// the body until release is closed; it returns once the body is
// running.
func holdRegion(enter func(body func()), release <-chan struct{}, done *sync.WaitGroup) {
	entered := make(chan struct{})
	done.Add(1)
	go func() {
		defer done.Done()
		enter(func() {
			close(entered)
			<-release
		})
	}()
	<-entered
}

// assertBlocked yields for a while and fails if ran became true: the
// entry under test must still be waiting for the holder.
func assertBlocked(t *testing.T, ran *atomic.Bool, what string) {
	t.Helper()
	for i := 0; i < 1000; i++ {
		runtime.Gosched()
	}
	if ran.Load() {
		t.Fatalf("%s ran while the region was held", what)
	}
}

// TestRegionOwnerWaitsOutInterferer: an owner that finds an interferer
// inside waits for it, then runs once with no restart — the epoch bump
// happened before the owner sampled it.
func TestRegionOwnerWaitsOutInterferer(t *testing.T) {
	m := nativeMachine(2)
	owner, foreign := m.CPU(0), m.CPU(1)
	var r Region
	var wg sync.WaitGroup
	release := make(chan struct{})
	holdRegion(func(body func()) { r.Interfere(foreign, body) }, release, &wg)

	var ran atomic.Bool
	restarts := make(chan int, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		restarts <- r.Run(owner, func(int) { ran.Store(true) })
	}()
	assertBlocked(t, &ran, "owner")
	close(release)
	wg.Wait()
	if !ran.Load() {
		t.Fatal("owner never ran")
	}
	if n := <-restarts; n != 0 {
		t.Fatalf("owner restarts = %d, want 0", n)
	}
}

// TestRegionInterfererWaitsOutOwner: the other direction — a drain
// that finds the owner inside waits, never panics, and then runs.
func TestRegionInterfererWaitsOutOwner(t *testing.T) {
	m := nativeMachine(2)
	owner, foreign := m.CPU(0), m.CPU(1)
	var r Region
	var wg sync.WaitGroup
	release := make(chan struct{})
	holdRegion(func(body func()) { r.Run(owner, func(int) { body() }) }, release, &wg)

	var ran atomic.Bool
	wg.Add(1)
	go func() {
		defer wg.Done()
		r.Interfere(foreign, func() { ran.Store(true) })
	}()
	assertBlocked(t, &ran, "interferer")
	close(release)
	wg.Wait()
	if !ran.Load() {
		t.Fatal("interferer never ran")
	}
}
