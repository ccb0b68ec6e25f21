package machine

// Schedule jitter is the torture subsystem's lever on the simulator: an
// opt-in, seeded perturbation of the discrete-event schedule. The
// conservative scheduler in runSim always runs the lowest-clock CPU and
// breaks ties by CPU id, so one configuration explores exactly one
// interleaving. With jitter armed, three perturbations — all drawn from
// one xorshift64* stream, so a seed names an interleaving exactly:
//
//   - tie-breaking: each CPU carries a pseudo-random tie priority,
//     refreshed after every operation it executes, that orders CPUs
//     whose clocks are equal (id remains the final tie-break so the
//     order is still total);
//   - preemption points: after an operation completes, the CPU's clock
//     may jump forward a bounded random amount, modelling an interrupt
//     or preemption that lets other CPUs' operations slide in front;
//   - lock boundaries: a SpinLock acquire, or an entry to a Region
//     charged as cli/sti, may be delayed a bounded random amount before
//     it contends, reordering lock arbitration specifically.
//
// Everything is charged to virtual clocks, so a jittered run is exactly
// as replayable as a plain one: same seed, same config, same workload =>
// the same interleaving, cycle for cycle. With jitter disabled (nil
// config or Seed 0) every hook reduces to a nil check and the schedule
// is byte-identical to the unjittered simulator — pinned by the cycle
// goldens in internal/core's shard conformance tests.

// JitterConfig configures seeded schedule perturbation. The zero value
// of every field but Seed selects a sensible default; Seed 0 disables
// jitter entirely.
type JitterConfig struct {
	// Seed selects the interleaving. 0 disables jitter.
	Seed uint64
	// PreemptEvery is the mean number of operations between injected
	// preemption points (default 7).
	PreemptEvery int
	// MaxPreemptCycles bounds one injected preemption delay (default 1500).
	MaxPreemptCycles int64
	// LockEvery is the mean number of lock acquisitions between injected
	// lock-boundary delays (default 5).
	LockEvery int
	// MaxLockCycles bounds one injected lock-boundary delay (default 400).
	MaxLockCycles int64

	// RestartEvery is the mean number of restartable-sequence attempts
	// between injected aborts (default 9). A restart-storm config sets
	// this to 2 to abort sequences at a high rate; see Region.Run for how
	// each abort picks an adversarial abort point. Only consulted while
	// a sequence is running, so runs without Rseq enabled draw exactly
	// the same jitter stream as before the knob existed.
	RestartEvery int
	// MaxRestartWork bounds the wasted straight-line instructions charged
	// for one aborted attempt — the adversarial abort point is drawn in
	// [1, MaxRestartWork], so a sequence can be aborted anywhere from its
	// first instruction to just shy of its commit (default 16).
	MaxRestartWork int64
}

func (c JitterConfig) withDefaults() JitterConfig {
	if c.PreemptEvery <= 0 {
		c.PreemptEvery = 7
	}
	if c.MaxPreemptCycles <= 0 {
		c.MaxPreemptCycles = 1500
	}
	if c.LockEvery <= 0 {
		c.LockEvery = 5
	}
	if c.MaxLockCycles <= 0 {
		c.MaxLockCycles = 400
	}
	if c.RestartEvery <= 0 {
		c.RestartEvery = 9
	}
	if c.MaxRestartWork <= 0 {
		c.MaxRestartWork = 16
	}
	return c
}

// jitter holds the armed configuration and the PRNG stream.
type jitter struct {
	cfg   JitterConfig
	state uint64
}

// next steps the xorshift64* generator. The stream is consumed in
// schedule order, which is itself deterministic, so the whole run is a
// pure function of (seed, config, workload).
func (j *jitter) next() uint64 {
	x := j.state
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	j.state = x
	return x * 0x2545f4914f6cdd1d
}

// delay draws a delay in [1, max].
func (j *jitter) delay(max int64) int64 {
	return 1 + int64(j.next()%uint64(max))
}

// SetScheduleJitter arms (or, with a nil config or zero seed, disarms)
// seeded schedule perturbation. Sim mode only: Native scheduling belongs
// to the Go runtime. Call before Run; arming mid-run is not supported.
func (m *Machine) SetScheduleJitter(cfg *JitterConfig) {
	if cfg == nil || cfg.Seed == 0 {
		m.jit = nil
		for i := range m.cpus {
			m.cpus[i].tiePri = 0
		}
		return
	}
	if m.cfg.Mode != Sim {
		panic("machine: schedule jitter requires Sim mode")
	}
	m.jit = &jitter{cfg: cfg.withDefaults(), state: cfg.Seed}
	// Seed every CPU's tie priority up front so the very first tie is
	// already perturbed.
	for i := range m.cpus {
		m.cpus[i].tiePri = m.jit.next()
	}
}

// lockJitter possibly injects a bounded seeded delay at a lock boundary.
// Called from the Sim branches of SpinLock.Acquire and of Region.Run and
// Region.Interfere under the cli/sti model;
// with jitter disarmed it is a nil check.
func (m *Machine) lockJitter(c *CPU) {
	j := m.jit
	if j == nil {
		return
	}
	if j.next()%uint64(j.cfg.LockEvery) != 0 {
		return
	}
	c.clock += j.delay(j.cfg.MaxLockCycles)
}

// rseqAbort decides whether the next restartable-sequence attempt on c
// is aborted, and if so at which point: it returns the number of wasted
// straight-line instructions the aborted attempt executed before the
// preemption hit. With jitter disarmed sequences never abort in Sim —
// the conservative schedule has no preemption to restart from.
func (m *Machine) rseqAbort(c *CPU) (abort bool, wasted int64) {
	j := m.jit
	if j == nil {
		return false, 0
	}
	if j.next()%uint64(j.cfg.RestartEvery) != 0 {
		return false, 0
	}
	return true, j.delay(j.cfg.MaxRestartWork)
}

// --- schedule hashing ----------------------------------------------------

// FNV-1a over the scheduled (cpu, clock) pairs. The hash names an
// interleaving: two runs with the same hash scheduled the same CPUs at
// the same virtual times in the same order.
const (
	fnvOffset uint64 = 0xcbf29ce484222325
	fnvPrime  uint64 = 0x100000001b3
)

func fnvMix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

// EnableSchedHash starts (re)accumulating the schedule hash: one FNV-1a
// update per scheduled operation, folding in the chosen CPU's id and
// clock. Hashing never touches virtual clocks, so it can be enabled in
// golden runs without perturbing them.
func (m *Machine) EnableSchedHash() {
	m.schedHashOn = true
	m.schedHash = fnvOffset
}

// SchedHash returns the accumulated schedule hash.
func (m *Machine) SchedHash() uint64 { return m.schedHash }
