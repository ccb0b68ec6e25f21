package main

// metrics maps a metric name to its value.
type metrics map[string]float64

// metricDef is one metric the benchmark reports, with its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics a --trace 0 run prints, in order.
var endToEnd = []metricDef{
	{"sim_ops_per_s", "1/s"},
	{"alloc_p50_cycles", "cycles"},
	{"alloc_p99_cycles", "cycles"},
	{"alloc_p999_cycles", "cycles"},
	{"free_p50_cycles", "cycles"},
	{"free_p999_cycles", "cycles"},
	{"insns_per_op", "insns/op"},
	{"ok_ratio", "ratio"},
	{"peak_resident_per_live", "ratio"},
	{"host_mem_mb", "MB"},
	{"setup_s", "s"},
}

// phaseNames are the serve trace's phases, in order.
var phaseNames = []string{"steady", "spike", "pressure"}

// hostGroups are the CPU-profile groups, in order.
var hostGroups = []string{
	"machine.host_share.sched",
	"machine.host_share.bus",
	"machine.host_share.spinlock",
	"machine.host_share.schedhash",
	"core.host_share",
	"objcache_streams_dlm.host_share",
	"perfbench.host_share",
}

// perLayer lists the metrics a --trace 1 run prints, in order. A metric
// that does not apply to a workload (streams on handoff, say) reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"machine.bus_wait_cycles_per_op", "cycles/op"},
		{"machine.spin_wait_cycles_per_op", "cycles/op"},
		{"machine.interconnect_txns_per_op", "txns/op"},
		{"machine.misses_per_op", "misses/op"},
		{"machine.remote_misses_per_op", "misses/op"},
		{"machine.sched_host_share", "ratio"},
		{"core.percpu.alloc_hit_ratio", "ratio"},
		{"core.percpu.free_hit_ratio", "ratio"},
		{"core.global.gets_per_kop", "1/kop"},
		{"core.global.puts_per_kop", "1/kop"},
		{"core.global.get_miss_ratio", "ratio"},
		{"core.global.lock_wait_cycles_per_op", "cycles/op"},
		{"core.global.lock_contended_ratio", "ratio"},
		{"core.global.lock_hold_cycles_per_op", "cycles/op"},
		{"core.global.remote_puts_per_kop", "1/kop"},
		{"core.global.shard_flushes_per_kop", "1/kop"},
		{"core.global.node_steals_per_kop", "1/kop"},
		{"core.page.page_carves_per_kop", "1/kop"},
		{"core.page.page_frees_per_kop", "1/kop"},
		{"core.page.lock_wait_cycles_per_op", "cycles/op"},
		{"core.vmblk.span_allocs_per_kop", "1/kop"},
		{"core.vmblk.pages_mapped_per_kop", "1/kop"},
		{"core.vmblk.pages_unmapped_per_kop", "1/kop"},
		{"core.vmblk.map_failures", "count"},
		{"core.reclaim.reclaims", "count"},
		{"core.reclaim.steps_per_kop", "1/kop"},
		{"core.reclaim.pressure_transitions", "count"},
		{"physmem.high_water_pages", "pages"},
		{"physmem.failures", "count"},
		{"streams.allocb_cycles_p50", "cycles"},
		{"streams.allocb_cycles_p999", "cycles"},
		{"streams.freemsg_cycles_p999", "cycles"},
		{"dlm.lock_cycles_p999", "cycles"},
		{"objcache.ctor_skip_ratio", "ratio"},
		{"fail_ratio", "ratio"},
	}
	for _, ph := range phaseNames {
		defs = append(defs,
			metricDef{"serve." + ph + ".sim_ops_per_s", "1/s"},
			metricDef{"serve." + ph + ".alloc_p999_cycles", "cycles"},
			metricDef{"serve." + ph + ".fail_ratio", "ratio"})
	}
	for _, kind := range []string{"depth_share", "cycles_p50", "cycles_p999", "tail_share"} {
		unit := "ratio"
		if kind != "depth_share" && kind != "tail_share" {
			unit = "cycles"
		}
		for _, l := range depthLayers {
			defs = append(defs, metricDef{"trace." + kind + "." + l.String(), unit})
		}
	}
	for _, ph := range phaseNames {
		for _, l := range depthLayers {
			defs = append(defs, metricDef{"serve." + ph + ".trace.tail_share." + l.String(), "ratio"})
		}
	}
	defs = append(defs,
		metricDef{"host_ns_per_op", "ns/op"},
		metricDef{"native.alloc_host_ns_p50", "ns"},
		metricDef{"native.free_host_ns_p50", "ns"},
		metricDef{"trace.host_overhead_ratio", "ratio"})
	for _, g := range hostGroups {
		defs = append(defs, metricDef{g, "ratio"})
	}
	return defs
}()

// simE2E returns the simulated end-to-end metrics of one Sim run. They
// are pure functions of the seed, so a traced run and every repetition
// must reproduce them exactly.
func simE2E(r *simRun) metrics {
	alloc, free := &r.rec.cycles[entAlloc], &r.rec.cycles[entFree]
	return metrics{
		"sim_ops_per_s":          ratio(float64(r.ops), r.simSec),
		"alloc_p50_cycles":       float64(alloc.quantile(0.50)),
		"alloc_p99_cycles":       float64(alloc.quantile(0.99)),
		"alloc_p999_cycles":      float64(alloc.quantile(0.999)),
		"free_p50_cycles":        float64(free.quantile(0.50)),
		"free_p999_cycles":       float64(free.quantile(0.999)),
		"insns_per_op":           ratio(r.win[cInsns], float64(r.rec.calls)),
		"ok_ratio":               ratio(float64(r.ops-r.failed), float64(r.ops)),
		"peak_resident_per_live": ratio(r.resident, r.peakLive),
	}
}

// layerMetrics derives the per-layer metrics of one window from its
// counter deltas; calls is the number of calls the benchmark made into
// core, streams and dlm in the window, the base of every per-op and
// per-kop figure.
func layerMetrics(w *counters, calls uint64) metrics {
	n := float64(calls)
	return metrics{
		"machine.bus_wait_cycles_per_op":   ratio(w[cBusWait], n),
		"machine.spin_wait_cycles_per_op":  ratio(w[cSpinWait], n),
		"machine.interconnect_txns_per_op": ratio(w[cInterconnect], n),
		"machine.misses_per_op":            ratio(w[cMisses], n),
		"machine.remote_misses_per_op":     ratio(w[cRemoteMisses], n),

		"core.percpu.alloc_hit_ratio": ratio(w[cAllocs]-w[cAllocRefills], w[cAllocs]),
		"core.percpu.free_hit_ratio":  ratio(w[cFrees]-w[cFreeSpills], w[cFrees]),

		"core.global.gets_per_kop":            perKop(w[cGlobalGets], n),
		"core.global.puts_per_kop":            perKop(w[cGlobalPuts], n),
		"core.global.get_miss_ratio":          ratio(w[cGlobalRefills], w[cGlobalGets]),
		"core.global.lock_wait_cycles_per_op": ratio(w[cGlobalLockSpin], n),
		"core.global.lock_contended_ratio":    ratio(w[cGlobalLockContended], w[cGlobalLockAcqs]),
		"core.global.lock_hold_cycles_per_op": ratio(w[cGlobalLockHold], n),
		"core.global.remote_puts_per_kop":     perKop(w[cRemotePuts], n),
		"core.global.shard_flushes_per_kop":   perKop(w[cShardFlushes], n),
		"core.global.node_steals_per_kop":     perKop(w[cNodeSteals], n),

		"core.page.page_carves_per_kop":     perKop(w[cPageCarves], n),
		"core.page.page_frees_per_kop":      perKop(w[cPageFrees], n),
		"core.page.lock_wait_cycles_per_op": ratio(w[cPageLockSpin], n),

		"core.vmblk.span_allocs_per_kop":    perKop(w[cSpanAllocs], n),
		"core.vmblk.pages_mapped_per_kop":   perKop(w[cPagesMapped], n),
		"core.vmblk.pages_unmapped_per_kop": perKop(w[cPagesUnmapped], n),
		"core.vmblk.map_failures":           w[cMapFailures],

		"core.reclaim.reclaims":             w[cReclaims],
		"core.reclaim.steps_per_kop":        perKop(w[cReclaimSteps], n),
		"core.reclaim.pressure_transitions": w[cPressureTransitions],

		"physmem.failures": w[cPhysFailures],
	}
}

// simLayer returns the per-layer metrics of one traced Sim run.
func simLayer(r *simRun) metrics {
	out := layerMetrics(&r.win, r.rec.calls)
	out["physmem.high_water_pages"] = float64(r.highWater)
	out["fail_ratio"] = ratio(float64(r.failed), float64(r.ops))
	out["machine.sched_host_share"] = ratio(float64(r.sched), float64(r.run))
	out["streams.allocb_cycles_p50"] = float64(r.rec.cycles[entAllocb].quantile(0.50))
	out["streams.allocb_cycles_p999"] = float64(r.rec.cycles[entAllocb].quantile(0.999))
	out["streams.freemsg_cycles_p999"] = float64(r.rec.cycles[entFreemsg].quantile(0.999))
	out["dlm.lock_cycles_p999"] = float64(r.rec.cycles[entLock].quantile(0.999))
	out["objcache.ctor_skip_ratio"] = ratio(float64(r.ctorSkips), float64(r.ctorSkips+r.ctorRuns))
	if len(r.phases) == len(phaseNames) {
		for i, ph := range r.phases {
			p := "serve." + ph.name + "."
			out[p+"sim_ops_per_s"] = ratio(float64(ph.ops), ph.simSec)
			out[p+"alloc_p999_cycles"] = float64(r.rec.allocPh[i].quantile(0.999))
			out[p+"fail_ratio"] = ratio(float64(ph.failed), float64(ph.ops))
		}
	}
	if r.rec.tr != nil {
		for k, v := range traceMetrics(r.rec.tr.spans, r.phases) {
			out[k] = v
		}
	}
	return out
}

// cycles is the simulated duration of the spanned call.
func (s *span) cycles() int64 { return s.end - s.start }

// traceMetrics attributes a traced run's alloc calls to the deepest
// layer each reached: the share of calls per layer, each layer's cycle
// quantiles, and the layer mix of the tail above the alloc p99 — over
// the whole window and, for a multi-phase run, per phase.
func traceMetrics(spans []span, phases []phaseRun) metrics {
	out := metrics{}
	var all hist
	byLayer := map[layer]*hist{}
	for _, l := range depthLayers {
		byLayer[l] = &hist{}
	}
	for i := range spans {
		s := &spans[i]
		if s.ent != entAlloc {
			continue
		}
		all.add(s.cycles())
		if h := byLayer[s.depth]; h != nil {
			h.add(s.cycles())
		}
	}
	for _, l := range depthLayers {
		h := byLayer[l]
		out["trace.depth_share."+l.String()] = ratio(float64(h.count()), float64(all.count()))
		out["trace.cycles_p50."+l.String()] = float64(h.quantile(0.50))
		out["trace.cycles_p999."+l.String()] = float64(h.quantile(0.999))
	}
	for l, v := range tailShares(spans, -1) {
		out["trace.tail_share."+l.String()] = v
	}
	if len(phases) > 1 {
		for i, ph := range phases {
			for l, v := range tailShares(spans, i) {
				out["serve."+ph.name+".trace.tail_share."+l.String()] = v
			}
		}
	}
	return out
}

// tailShares returns, for the alloc spans of one phase (every phase
// when phase < 0), the share of those above the phase's alloc p99 whose
// deepest layer is each layer. The shares sum to 1 unless no span lies
// strictly above the p99.
func tailShares(spans []span, phase int) map[layer]float64 {
	keep := func(s *span) bool { return s.ent == entAlloc && (phase < 0 || int(s.phase) == phase) }
	var h hist
	for i := range spans {
		if keep(&spans[i]) {
			h.add(spans[i].cycles())
		}
	}
	p99 := h.quantile(0.99)
	counts := map[layer]float64{}
	var tail float64
	for i := range spans {
		s := &spans[i]
		if keep(s) && s.cycles() > p99 {
			counts[s.depth]++
			tail++
		}
	}
	out := map[layer]float64{}
	for _, l := range depthLayers {
		out[l] = ratio(counts[l], tail)
	}
	return out
}
