package main

import (
	"bytes"
	"fmt"
	"time"

	"kmem"
	"kmem/internal/arena"
	"kmem/internal/core"
	"kmem/internal/dlm"
	"kmem/internal/machine"
	"kmem/internal/serve"
	"kmem/internal/streams"
)

// The serve workload: the seeded three-phase session trace (steady,
// spike, pressure) on 8 CPUs and 4 nodes sharing 16 MB of physical
// memory, with the pressure model at its default watermarks. The
// machine starts empty; the steady phase is the warm-up.
const (
	serveCPUs       = 8
	serveNodes      = 4
	servePhysPages  = 4096 // 16 MB of 4 KB pages
	servePipeBytes  = 128
	serveDLMBuckets = 256
)

type heldBlock struct {
	addr  arena.Addr
	size  uint64
	stamp uint64
}

type session struct {
	open    bool
	payload heldBlock
	pipe    streams.Msg
	lock    arena.Addr
	held    []heldBlock
}

// serveRunner executes a trace in trace order with one cursor, as
// serve.Run does, but times every call it makes from outside.
type serveRunner struct {
	sys  *kmem.System
	a    *core.Allocator
	st   *streams.Subsystem
	dm   *dlm.Manager
	rec  *simRec
	own  *owner
	s    []session
	pat  []byte
	buf  []byte
	msgs uint64

	timing bool
	opNS   time.Duration
}

// serve runs sh.serveTraces independent traces and pools them. The first
// trace is the seed's own; the others are derived from it.
func (sh shape) serve(seed uint64, traced, setupOnly bool) (*simRun, error) {
	out := &simRun{rec: newSimRec(len(phaseNames), traced)}
	for i := 0; i < sh.serveTraces; i++ {
		gen := serve.GenConfig{Seed: seed + uint64(i)<<32, CPUs: serveCPUs, Sessions: sh.serveSessions, OpsPerPhase: sh.serveOpsPerPhase}
		if err := serveTrace(gen, out, setupOnly); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// serveTrace generates one trace, builds a fresh system, runs the trace
// and its checks, and adds the window to out.
func serveTrace(gen serve.GenConfig, out *simRun, setupOnly bool) error {
	t0 := time.Now()
	tr := serve.Generate(gen)
	rec := out.rec
	sys, err := kmem.NewSystem(kmem.Config{
		CPUs:      serveCPUs,
		Nodes:     serveNodes,
		PhysPages: servePhysPages,
		Pressure:  &kmem.PressureConfig{},
		Hook:      rec.hook(),
	})
	if err != nil {
		return err
	}
	m := sys.Machine()
	m.EnableSchedHash()
	a := sys.Allocator()
	r := &serveRunner{
		sys:    sys,
		a:      a,
		rec:    rec,
		own:    newOwner(m.Mem(), 1),
		s:      make([]session, tr.MaxSession()+1),
		pat:    make([]byte, 4096+256),
		buf:    make([]byte, 4096),
		timing: rec.tr != nil,
	}
	for i := range r.pat {
		r.pat[i] = byte(i*131 + 17)
	}
	if r.st, err = streams.New(a); err != nil {
		return fmt.Errorf("streams: %w", err)
	}
	if r.dm, err = dlm.NewManager(a, serveDLMBuckets); err != nil {
		return fmt.Errorf("dlm: %w", err)
	}
	out.setup += time.Since(t0)
	if setupOnly {
		return nil
	}

	open := openWindow(a, m)
	cs0 := r.st.Stats()
	h0 := time.Now()
	for pi := range tr.Phases {
		ph := &tr.Phases[pi]
		rec.phase = pi
		start := m.SyncClocks()
		drops, sched := r.runPhase(m, ph)
		end := m.SyncClocks()
		out.sched += sched
		if len(out.phases) <= pi {
			out.phases = append(out.phases, phaseRun{name: ph.Kind.String()})
		}
		p := &out.phases[pi]
		p.ops += uint64(len(ph.Ops))
		p.failed += uint64(drops)
		p.simSec += m.CyclesToSeconds(end - start)
		out.ops += uint64(len(ph.Ops))
		out.failed += uint64(drops)
		out.simSec += m.CyclesToSeconds(end - start)
	}
	out.run += time.Since(h0)
	win, hw := closeWindow(a, m, open)
	cs1 := r.st.Stats()
	out.ctorRuns += cs1.CtorRuns - cs0.CtorRuns
	out.ctorSkips += cs1.CtorSkips - cs0.CtorSkips
	out.addWindow(m, win, hw, r.own.peak)

	// Teardown: close what is still open, in id order on CPU 0, with a
	// recorder that keeps nothing, so the window's samples stay clean.
	r.rec = newSimRec(1, false)
	c := m.CPU(0)
	for id := range r.s {
		if r.s[id].open {
			r.closeSession(c, uint32(id))
		}
	}
	if r.own.fault != nil {
		return r.own.fault
	}
	return audit(sys)
}

// runPhase drives one phase: a single cursor walks the records, each
// executing on its record's CPU; other CPUs idle forward until the
// owner's clock lets it run.
func (r *serveRunner) runPhase(m *machine.Machine, ph *serve.Phase) (drops int, sched time.Duration) {
	cursor := 0
	remaining := make([]int, m.NumCPUs())
	for i := range ph.Ops {
		remaining[ph.Ops[i].CPU]++
	}
	sched = runWindow(m, r.timing, func(c *machine.CPU) bool {
		id := c.ID()
		if remaining[id] == 0 {
			return false
		}
		if cursor >= len(ph.Ops) || int(ph.Ops[cursor].CPU) != id {
			c.Idle(64)
			return true
		}
		var h0 time.Time
		if r.timing {
			h0 = time.Now()
		}
		op := ph.Ops[cursor]
		cursor++
		remaining[id]--
		if !r.exec(c, op) {
			drops++
		}
		if r.timing {
			r.opNS += time.Since(h0)
		}
		return remaining[id] > 0
	}, &r.opNS)
	return drops, sched
}

func (r *serveRunner) alloc(c *machine.CPU, size uint64) (heldBlock, bool) {
	t := r.rec.begin(c)
	b, err := r.a.Alloc(c, size)
	r.rec.end(c, t, entAlloc, err != nil)
	if err != nil {
		return heldBlock{}, false
	}
	return heldBlock{addr: b, size: size, stamp: r.own.stamp(b, size)}, true
}

func (r *serveRunner) free(c *machine.CPU, h heldBlock) {
	r.own.check(h.addr, h.size, h.stamp)
	t := r.rec.begin(c)
	r.a.Free(c, h.addr, h.size)
	r.rec.end(c, t, entFree, false)
}

func (r *serveRunner) allocb(c *machine.CPU, size uint64) (streams.Msg, bool) {
	t := r.rec.begin(c)
	mb, err := r.st.Allocb(c, size)
	r.rec.end(c, t, entAllocb, err != nil)
	if err != nil {
		return 0, false
	}
	r.own.hold(size)
	return mb, true
}

func (r *serveRunner) freemsg(c *machine.CPU, mb streams.Msg, size uint64) {
	t := r.rec.begin(c)
	r.st.Freemsg(c, mb)
	r.rec.end(c, t, entFreemsg, false)
	r.own.release(size)
}

func (r *serveRunner) unlock(c *machine.CPU, lk arena.Addr) {
	t := r.rec.begin(c)
	r.dm.Unlock(c, lk, nil)
	r.rec.end(c, t, entUnlock, false)
}

// exec runs one record and reports whether it completed; a record is
// dropped when an allocation or lock it needs is refused, or when its
// session never opened.
func (r *serveRunner) exec(c *machine.CPU, op serve.Op) bool {
	s := &r.s[op.Sess]
	switch op.Kind {
	case serve.OpOpen:
		payload, ok := r.alloc(c, uint64(op.Arg))
		if !ok {
			return false
		}
		pipe, ok := r.allocb(c, servePipeBytes)
		if !ok {
			r.free(c, payload)
			return false
		}
		t := r.rec.begin(c)
		lk, status, err := r.dm.Lock(c, uint64(op.Sess)+1, dlm.PR, c.ID())
		granted := err == nil && status == dlm.Granted
		r.rec.end(c, t, entLock, !granted)
		if !granted {
			if err == nil {
				r.unlock(c, lk)
			}
			r.freemsg(c, pipe, servePipeBytes)
			r.free(c, payload)
			return false
		}
		*s = session{open: true, payload: payload, pipe: pipe, lock: lk}
		return true

	case serve.OpClose:
		if !s.open {
			return false
		}
		r.closeSession(c, op.Sess)
		return true

	case serve.OpMsg:
		if !s.open {
			return false
		}
		mb, ok := r.allocb(c, uint64(op.Arg))
		if !ok {
			return false
		}
		r.roundTrip(c, mb, int(op.Arg))
		r.freemsg(c, mb, uint64(op.Arg))
		return true

	case serve.OpHold:
		if !s.open {
			return false
		}
		h, ok := r.alloc(c, uint64(op.Arg))
		if !ok {
			return false
		}
		s.held = append(s.held, h)
		return true

	case serve.OpRelease:
		if !s.open {
			return false
		}
		if len(s.held) > 0 {
			h := s.held[0]
			s.held = s.held[1:]
			r.free(c, h)
		}
		return true

	case serve.OpLockX:
		if !s.open {
			return false
		}
		t := r.rec.begin(c)
		status, _ := r.dm.Convert(c, s.lock, dlm.EX, nil)
		r.rec.end(c, t, entConvert, false)
		if status == dlm.Granted {
			t = r.rec.begin(c)
			r.dm.Convert(c, s.lock, dlm.PR, nil)
			r.rec.end(c, t, entConvert, false)
		}
		return true
	}
	return false
}

// roundTrip writes a slice of the pattern into the message and reads it
// back; the bytes must come back exactly. The slice's offset moves with
// every message so stale data cannot pass for fresh.
func (r *serveRunner) roundTrip(c *machine.CPU, mb streams.Msg, n int) {
	if n > len(r.buf) {
		n = len(r.buf)
	}
	off := int(r.msgs % 256)
	r.msgs++
	want := r.pat[off : off+n]
	t := r.rec.begin(c)
	err := r.st.Write(c, mb, want)
	r.rec.end(c, t, entWrite, err != nil)
	if err != nil {
		r.fail(fmt.Errorf("streams: write of %d bytes into a %d-byte message: %w", n, n, err))
		return
	}
	clear(r.buf[:n])
	t = r.rec.begin(c)
	got := r.st.Read(c, mb, r.buf[:n])
	r.rec.end(c, t, entRead, false)
	if got != n || !bytes.Equal(r.buf[:n], want) {
		r.fail(fmt.Errorf("streams: read back %d of %d bytes, payload mismatch=%v", got, n, !bytes.Equal(r.buf[:got], want[:got])))
	}
}

func (r *serveRunner) fail(err error) {
	if r.own.fault == nil {
		r.own.fault = err
	}
}

// closeSession releases everything session id owns.
func (r *serveRunner) closeSession(c *machine.CPU, id uint32) {
	s := &r.s[id]
	for _, h := range s.held {
		r.free(c, h)
	}
	s.held = nil
	r.freemsg(c, s.pipe, servePipeBytes)
	r.unlock(c, s.lock)
	r.free(c, s.payload)
	s.open = false
}
