package main

import (
	"fmt"
	"runtime"
	"strings"

	"hdnh/internal/obs"
)

// traced runs the workload's seeded op stream twice on fresh stores: once
// untraced for the configured seconds, then traced with each lane replaying
// exactly the op count it ran untraced. The per-layer metrics come from the
// traced phase; trace.overhead_frac compares the two throughputs.
func (r *run) traced(res *result) {
	// Both passes start with the process's free memory returned to the OS,
	// so both pay the same page faults.
	goroutines := runtime.NumGoroutine()
	heapAfterGC()
	chkA := newChecker(r.w.keySpace(), r.w.Preload)
	eA, err := r.setup(false)
	if err != nil {
		res.violate("setup: " + err.Error())
		res.Attempted = 1
		return
	}
	a, ok, err := r.measure(eA, chkA, false, nil)
	if err != nil {
		res.violate("measure: " + err.Error())
		return
	}
	if !ok {
		r.wedged(res)
		return
	}
	r.finish(res, eA, chkA)
	r.account(res, a, chkA)
	eA.close()
	a.lat = [numLatClasses][]uint32{}
	awaitGoroutines(goroutines)
	heapAfterGC()

	chkB := newChecker(r.w.keySpace(), r.w.Preload)
	eB, err := r.setup(true)
	if err != nil {
		res.violate("traced setup: " + err.Error())
		return
	}
	b, ok, err := r.measure(eB, chkB, true, a.perLane)
	if err != nil {
		res.violate("traced measure: " + err.Error())
		return
	}
	if !ok {
		r.wedged(res)
		return
	}
	for i := range a.kinds {
		if a.kinds[i] != b.kinds[i] {
			res.violate(fmt.Sprintf("lane %d: traced run executed %v ops per kind, untraced %v", i, b.kinds[i], a.kinds[i]))
		}
	}
	r.finish(res, eB, chkB)
	r.account(res, b, chkB)
	eB.close()
	res.Stamp.Ops = b.stats.ops()

	thrA := float64(a.stats.ops()) / a.wall.Seconds()
	thrB := float64(b.stats.ops()) / b.wall.Seconds()
	r.layerMetrics(res, b)
	res.Metrics["trace.overhead_frac"] = metric{Value: 1 - thrB/thrA, Unit: "ratio", N: b.stats.ops(),
		Note: fmt.Sprintf("traced %.0f vs untraced %.0f ops/s", thrB, thrA)}
}

// layerMetrics derives the per-layer metrics from a traced phase: spans
// around the calls into each layer, the sessions' NVM counters and the
// metrics registry's deltas.
func (r *run) layerMetrics(res *result, m measured) {
	st, tr, s := &m.stats, &m.stats.tr, m.snap
	gets := st.count[opGet] + st.count[opNegGet]
	sets := st.count[opSet]
	ops := st.ops()
	wallNs := float64(m.wall.Nanoseconds())
	add := func(name string, v float64, unit string, n int64) {
		res.Metrics[name] = metric{Value: v, Unit: unit, N: n}
	}
	per := func(a float64, n int64) float64 { return ratio(a, float64(n)) }

	// Device traffic on the blocking path. The library and RESP faces see
	// it per call; the HTTP face only as the registry's total.
	getNV, setNV, fg := tr.nv[spanGet], tr.nv[spanSet], tr.childNVM()
	getNV.Add(tr.nv[spanNegGet])
	if r.w.Face == faceHTTP {
		getNV, setNV, fg = m.nvm, m.nvm, m.nvm
	}
	stallNs := float64(fg.ModeledNanos)
	add("nvm.media_reads_per_get", per(float64(getNV.MediaBlockReads), gets), "count", gets)
	add("nvm.read_amp", m.nvm.ReadAmplification(), "ratio", int64(m.nvm.ReadAccesses))
	add("nvm.flush_lines_per_set", per(float64(setNV.Flushes), sets), "count", sets)
	add("nvm.fences_per_set", per(float64(setNV.Fences), sets), "count", sets)
	add("nvm.stall_us_per_op", per(stallNs, ops)/1e3, "us", ops)

	// Core: timed around each call on the library face; the registry's
	// sampled in-core latencies on the served faces.
	var getUs, updUs float64
	if r.w.Face == faceLib {
		getUs = per(float64(tr.ns[spanGet]+tr.ns[spanNegGet]), gets) / 1e3
		updUs = per(float64(tr.ns[spanSet]), sets) / 1e3
	} else {
		getUs = meanLatency(s, obs.OpGet) / 1e3
		updUs = meanLatency(s, obs.OpUpdate) / 1e3
	}
	add("core.get_us", getUs, "us", gets)
	add("core.update_us", updUs, "us", sets)
	add("core.cpu_us_per_get", getUs-per(float64(getNV.ModeledNanos), gets)/1e3, "us", gets)
	add("core.hot_hit_ratio", s.HitRatio(), "ratio", int64(s.OpTotal(obs.OpGet)))
	add("core.nvt_probes_per_get", per(float64(s.NVTProbes), gets), "count", gets)
	add("core.neg_get_media_reads", per(float64(tr.nv[spanNegGet].MediaBlockReads), st.count[opNegGet]), "count", st.count[opNegGet])
	add("core.hot_fill_reject_ratio", per(float64(s.HotFillsRejected), int64(s.HotFills)), "ratio", int64(s.HotFills))
	add("core.rescans_per_get", per(float64(s.LookupRescans), gets), "count", gets)
	add("core.spins_per_op", per(float64(s.Spins), ops), "count", ops)
	add("core.contended", float64(s.Contended), "count", ops)
	add("core.write_group_keys_mean", per(float64(s.WriteGroupKeys), int64(s.WriteGroups)), "count", int64(s.WriteGroups))
	add("core.write_group_flushes_per_group", per(float64(s.WriteGroupFlushes), int64(s.WriteGroups)), "count", int64(s.WriteGroups))
	add("core.bg_applies_per_set", per(float64(s.BGApplies), sets), "count", sets)
	add("core.expansions", float64(s.Expansions), "count", int64(s.Expansions))
	add("core.expansion_swap_us", per(float64(s.ExpansionSwapNanos), int64(s.ExpansionSwaps))/1e3, "us", int64(s.ExpansionSwaps))
	add("core.drain_helps", float64(s.DrainHelps), "count", int64(s.DrainChunks))

	// Value log (zero where values stay inline).
	liveFrac := ratio(float64(s.Gauges.VLogLiveWords), float64(s.Gauges.VLogSegments*logSegmentWords))
	add("vlog.gc_write_amp", s.GCWriteAmplification(), "ratio", int64(s.VLogAppends))
	add("vlog.gc_recycles", float64(s.GCRecycles), "count", int64(s.GCRecycles))
	add("vlog.gc_raced_ratio", per(float64(s.GCRaced), int64(s.GCRelocations)), "ratio", int64(s.GCRelocations))
	add("vlog.live_fraction", liveFrac, "ratio", 1)

	// bigkv and the RESP executor, seen through the traced backend.
	calls, keys := tr.batchCalls()
	var bigkvNs int64
	for _, k := range []spanKind{spanGet, spanSet, spanDelete, spanSync} {
		bigkvNs += tr.ns[k]
	}
	selfNs := float64(tr.parentNs - tr.coveredNs)
	isRESP := r.w.Face == faceRESP
	pick := func(v float64, on bool) float64 {
		if on {
			return v
		}
		return 0
	}
	add("bigkv.multiget_us_per_key", pick(per(float64(tr.ns[spanGet]), tr.keys[spanGet])/1e3, isRESP), "us", tr.keys[spanGet])
	add("bigkv.multiput_us_per_key", pick(per(float64(tr.ns[spanSet]), tr.keys[spanSet])/1e3, isRESP), "us", tr.keys[spanSet])
	add("bigkv.busy_share", pick(ratio(float64(bigkvNs), wallNs*lanes), isRESP), "ratio", calls)
	add("bigkv.errors", pick(float64(tr.errs), isRESP), "count", calls)
	add("batchrun.keys_per_run", pick(per(float64(keys), calls), isRESP), "count", calls)
	add("resp.ops_per_burst", pick(per(float64(keys), tr.calls[spanSync]), isRESP), "count", tr.calls[spanSync])
	add("resp.self_us_per_op", pick(per(selfNs, tr.parentOps)/1e3, isRESP), "us", tr.parentOps)
	add("resp.error_replies", pick(float64(st.failed), isRESP), "count", ops)
	add("serve.self_us_per_op", pick(per(float64(tr.parentNs)-stallNs, tr.parentOps)/1e3, r.w.Face == faceHTTP), "us", tr.parentOps)

	// The process as a whole.
	add("proc.cpu_us_per_op", per(float64(m.cpu.Nanoseconds()), ops)/1e3, "us", ops)
	add("proc.alloc_bytes_per_op", per(float64(m.allocs), ops), "B", ops)
	add("proc.gc_pause_share", ratio(float64(m.gcPause), wallNs), "ratio", ops)

	// Attribution: each lane's time per op against the sum of its layers.
	perOp := per(wallNs*lanes, ops) / 1e3
	layers := attribution(r.w.Face, tr, stallNs, ops)
	var sum float64
	var parts []string
	for _, l := range layers {
		sum += l.us
		parts = append(parts, fmt.Sprintf("%s %.3f", l.name, l.us))
	}
	add("trace.per_op_us", perOp, "us", ops)
	add("trace.layer_sum_us", sum, "us", ops)
	add("trace.unattributed_us", perOp-sum, "us", ops)
	res.Layers = fmt.Sprintf("layers (us per op): per-op %.3f = %s + unattributed %.3f  [layer sum %.3f]",
		perOp, strings.Join(parts, " + "), perOp-sum, sum)
	if tr.outsideNs != 0 {
		res.Notes = append(res.Notes, fmt.Sprintf("%.3f ms of child spans fell outside their requests", float64(tr.outsideNs)/1e6))
	}
}

// layerShare is one layer's time per op in the attribution line.
type layerShare struct {
	name string
	us   float64
}

// attribution splits the traced requests' time per op into layers:
// request self time (client, wire and the face's own work: the time not
// covered by calls into the store), the store calls less their modeled NVM
// stall, and the stall itself. The HTTP face has no visible store calls, so
// its request time splits only into self and stall.
func attribution(f face, tr *traceAgg, stallNs float64, ops int64) []layerShare {
	us := func(ns float64) float64 { return ratio(ns, float64(ops)) / 1e3 }
	self := float64(tr.parentNs - tr.coveredNs)
	below := float64(tr.coveredNs) - stallNs
	switch f {
	case faceLib:
		return []layerShare{{"client", us(self)}, {"core", us(below)}, {"nvm", us(stallNs)}}
	case faceRESP:
		return []layerShare{{"client+wire+resp", us(self)}, {"bigkv+core", us(below)}, {"nvm", us(stallNs)}}
	default:
		return []layerShare{{"client+wire+serve+bigkv+core", us(float64(tr.parentNs) - stallNs)}, {"nvm", us(stallNs)}}
	}
}

// meanLatency is the sample-weighted mean of the registry's latency
// histograms for the given ops, in nanoseconds.
func meanLatency(s obs.Snapshot, ops ...obs.Op) float64 {
	var sum, n float64
	for _, op := range ops {
		for out := obs.Outcome(0); out < obs.NumOutcomes; out++ {
			l := s.Latency[op][out]
			sum += l.MeanNs * float64(l.Sampled)
			n += float64(l.Sampled)
		}
	}
	return ratio(sum, n)
}
