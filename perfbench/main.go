// Command perfbench is the repository's benchmark. It drives one of
// three workloads (serve, handoff, native) through the allocator's
// public APIs and prints, as the last line of standard output, one JSON
// object with the run's end-to-end metrics (--trace 0) or per-layer
// metrics from a separate traced run (--trace 1). See README.md.
//
//	go run . --workload serve --seed 10 --seconds 10 --trace 0
package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted uint64               `json:"attempted"`
	Failed    uint64               `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: serve, handoff or native")
	seed := flag.Uint64("seed", 10, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "host seconds to measure for")
	trace := flag.Int("trace", 0, "0 prints end-to-end metrics; 1 prints per-layer metrics from a traced run")
	spans := flag.String("spans", "", "with --trace 1, write the traced run's spans to this file (gzipped TSV)")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}

	res, err := run(defaultShape, *workload, *seed, *seconds, *trace == 1, *spans)
	if err != nil {
		// A failed output check prints no result at all.
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// run measures one workload and returns the result to print.
func run(sh shape, workload string, seed uint64, seconds float64, traced bool, spansPath string) (*result, error) {
	d := time.Duration(seconds * float64(time.Second))
	var (
		m              metrics
		attempted, bad uint64
		err            error
	)
	switch workload {
	case "serve":
		m, attempted, bad, err = measureSim(sh.serve, seed, d, traced, spansPath)
	case "handoff":
		m, attempted, bad, err = measureSim(sh.handoff, seed, d, traced, spansPath)
	case "native":
		m, attempted, bad, err = measureNative(sh, seed, d, traced, spansPath)
	default:
		return nil, fmt.Errorf("unknown workload %q (want serve, handoff or native)", workload)
	}
	if err != nil {
		return nil, err
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	res := &result{Correct: true, Attempted: attempted, Failed: bad, Metrics: map[string]metricOut{}}
	for _, def := range defs {
		v, ok := m[def.name]
		if !ok && !traced {
			return nil, fmt.Errorf("metric %s was not measured", def.name)
		}
		res.Metrics[def.name] = metricOut{Value: v, Unit: def.unit}
	}
	return res, nil
}

// shape sizes the workloads: the benchmark runs defaultShape, the smoke
// tests a small one.
type shape struct {
	serveTraces      int // independent traces one serve repetition pools
	serveSessions    int
	serveOpsPerPhase int
	handoffWarmSec   float64 // simulated seconds
	handoffSec       float64
	nativeBursts     int // bursts per CPU in one pass over its inputs
}

var defaultShape = shape{
	serveTraces:      8,
	serveSessions:    1536,
	serveOpsPerPhase: 34000,
	handoffWarmSec:   0.005,
	handoffSec:       0.08,
	nativeBursts:     1024,
}

// simFn runs one repetition of a Sim workload; with setupOnly it
// returns after set-up, with only the set-up time filled in.
type simFn func(seed uint64, traced, setupOnly bool) (*simRun, error)

// repeat runs fn until d has passed, at least once.
// Every repetition must reproduce ref's schedule hash and simulated
// end-to-end metrics exactly (the first repetition's, when ref is nil).
// It returns the first repetition and each one's host ns per op and
// set-up seconds.
func repeat(fn simFn, seed uint64, d time.Duration, traced bool, ref *simRun) (*simRun, []float64, []float64, error) {
	var first *simRun
	var hostNS, setups []float64
	t0 := time.Now()
	for len(hostNS) == 0 || time.Since(t0) < d {
		r, err := fn(seed, traced, false)
		if err != nil {
			return nil, nil, nil, err
		}
		if ref == nil {
			ref = r
		}
		if err := sameSim(ref, r); err != nil {
			if traced {
				return nil, nil, nil, fmt.Errorf("traced run differs from untraced run: %w", err)
			}
			return nil, nil, nil, fmt.Errorf("repetition differs from the first: %w", err)
		}
		if first == nil {
			first = r
		}
		hostNS = append(hostNS, ratio(float64(r.run.Nanoseconds()), float64(r.ops)))
		setups = append(setups, r.setup.Seconds())
		// Collect the repetition's machine now, so the peak resident
		// memory is one repetition's, not however many the collector
		// let pile up.
		debug.FreeOSMemory()
	}
	return first, hostNS, setups, nil
}

// sameSim checks that two runs of one seed simulated the same thing.
func sameSim(a, b *simRun) error {
	if a.hash != b.hash {
		return fmt.Errorf("schedule hash %#x vs %#x", a.hash, b.hash)
	}
	ma, mb := simE2E(a), simE2E(b)
	for k, v := range ma {
		if mb[k] != v {
			return fmt.Errorf("%s: %v vs %v", k, v, mb[k])
		}
	}
	return nil
}

// setupReps is how many times a --trace 0 run sets its workload up, so
// that setup_s is a median.
const setupReps = 15

func measureSim(fn simFn, seed uint64, d time.Duration, traced bool, spansPath string) (metrics, uint64, uint64, error) {
	if !traced {
		r, _, setups, err := repeat(fn, seed, d, false, nil)
		if err != nil {
			return nil, 0, 0, err
		}
		for len(setups) < setupReps {
			s, err := fn(seed, false, true)
			if err != nil {
				return nil, 0, 0, err
			}
			setups = append(setups, s.setup.Seconds())
			debug.FreeOSMemory()
		}
		m := simE2E(r)
		m["setup_s"] = median(setups)
		m["host_mem_mb"] = peakRSSMB()
		return m, r.ops, r.failed, nil
	}

	base, baseNS, _, err := repeat(fn, seed, d/2, false, nil)
	if err != nil {
		return nil, 0, 0, err
	}
	prof, err := startProfile()
	if err != nil {
		return nil, 0, 0, err
	}
	r, tracedNS, _, err := repeat(fn, seed, d/2, true, base)
	shares, perr := prof.stop()
	if err != nil {
		return nil, 0, 0, err
	}
	if perr != nil {
		return nil, 0, 0, perr
	}
	if err := r.rec.tr.err(); err != nil {
		return nil, 0, 0, err
	}
	m := simLayer(r)
	for k, v := range shares {
		m[k] = v
	}
	m["host_ns_per_op"] = median(baseNS)
	m["trace.host_overhead_ratio"] = ratio(median(tracedNS), median(baseNS))
	if err := writeSpans(spansPath, r.rec.tr.spans); err != nil {
		return nil, 0, 0, err
	}
	return m, r.ops, r.failed, nil
}

func measureNative(sh shape, seed uint64, d time.Duration, traced bool, spansPath string) (metrics, uint64, uint64, error) {
	twin, err := sh.nativeTwin(seed, false)
	if err != nil {
		return nil, 0, 0, err
	}
	if !traced {
		// The Native run is measured for d; every build also times its
		// set-up.
		m := simE2E(twin)
		var setups []float64
		var ops, failed uint64
		for i := 0; i < setupReps; i++ {
			ns, err := newNativeSystem(sh, seed)
			if err != nil {
				return nil, 0, 0, err
			}
			if i == 0 {
				ns.measure(d, false)
			}
			setups = append(setups, ns.setup.Seconds())
			if err := ns.finish(); err != nil {
				return nil, 0, 0, err
			}
			o, f := ns.ops()
			ops, failed = ops+o, failed+f
			debug.FreeOSMemory()
		}
		m["setup_s"] = median(setups)
		m["host_mem_mb"] = peakRSSMB()
		return m, ops, failed, nil
	}

	tw, err := sh.nativeTwin(seed, true)
	if err != nil {
		return nil, 0, 0, err
	}
	if err := sameSim(twin, tw); err != nil {
		return nil, 0, 0, fmt.Errorf("traced twin differs from untraced twin: %w", err)
	}
	if err := tw.rec.tr.err(); err != nil {
		return nil, 0, 0, err
	}
	ns, err := newNativeSystem(sh, seed)
	if err != nil {
		return nil, 0, 0, err
	}
	base := ns.measure(d/2, false)
	a, mach := ns.sys.Allocator(), ns.sys.Machine()
	open := openWindow(a, mach)
	ops0, _ := ns.ops()
	prof, err := startProfile()
	if err != nil {
		return nil, 0, 0, err
	}
	tracedNS := ns.measure(d/2, true)
	shares, err := prof.stop()
	if err != nil {
		return nil, 0, 0, err
	}
	win, highWater := closeWindow(a, mach, open)
	ops, failed := ns.ops()
	if err := ns.finish(); err != nil {
		return nil, 0, 0, err
	}

	m := layerMetrics(&win, ops-ops0)
	m["physmem.high_water_pages"] = float64(highWater)
	m["fail_ratio"] = ratio(float64(failed), float64(ops))
	for k, v := range traceMetrics(tw.rec.tr.spans, nil) {
		m[k] = v
	}
	for k, v := range shares {
		m[k] = v
	}
	var allocNS, freeNS hist
	for _, w := range ns.workers {
		allocNS.merge(&w.allocNS)
		freeNS.merge(&w.freeNS)
	}
	m["native.alloc_host_ns_p50"] = float64(allocNS.quantile(0.50))
	m["native.free_host_ns_p50"] = float64(freeNS.quantile(0.50))
	m["host_ns_per_op"] = median(base)
	m["trace.host_overhead_ratio"] = ratio(median(tracedNS), median(base))
	if err := writeSpans(spansPath, tw.rec.tr.spans); err != nil {
		return nil, 0, 0, err
	}
	return m, ops, failed, nil
}

// peakRSSMB returns the process's peak resident memory in MB (VmHWM),
// falling back to the Go runtime's view where /proc is absent.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// writeSpans writes the traced run's spans as gzipped TSV; no path, no
// file.
func writeSpans(path string, spans []span) (err error) {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	zw := gzip.NewWriter(f)
	w := bufio.NewWriter(zw)
	fmt.Fprintln(w, "id\tentry\tcpu\tphase\tstart_cycles\tend_cycles\thost_ns\tdepth\tfailed")
	for _, s := range spans {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%d\t%d\t%s\t%t\n",
			s.id, entryNames[s.ent], s.cpu, s.phase, s.start, s.end, s.hostNS, s.depth, s.failed)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return zw.Close()
}
