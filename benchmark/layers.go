package main

import (
	"context"
	"math"
	"time"

	bvc "relaxedbvc"
	"relaxedbvc/internal/batch"
	"relaxedbvc/internal/broadcast"
	"relaxedbvc/internal/minimax"
	"relaxedbvc/internal/relax"
	"relaxedbvc/internal/transport"
	"relaxedbvc/internal/vec"
)

// kernelCall is one captured call into a geometry-kernel entry point:
// the agreed multiset a Step 2 or an epoch decision handed to it.
type kernelCall struct {
	kind string // deltastar2, deltastarpoly, gamma or psik
	set  *vec.Set
	f, k int
	p    float64
}

// memoized reports whether the entry point keeps its results in a memo
// cache, so that a second identical call is a lookup.
func (c kernelCall) memoized() bool { return c.kind != "psik" }

func (c kernelCall) invoke() {
	switch c.kind {
	case "deltastar2":
		minimax.DeltaStar2(c.set, c.f)
	case "deltastarpoly":
		relax.DeltaStarPoly(c.set, c.f, c.p)
	case "gamma":
		relax.GammaPoint(c.set, c.f)
	case "psik":
		relax.PsiKPoint(c.set, c.f, c.k)
	}
}

// maxKernelSample bounds the kernel calls kept for the replay.
const maxKernelSample = 4096

func (t *tracer) sampleKernel(c kernelCall) {
	t.mu.Lock()
	if len(t.kernel) < maxKernelSample {
		t.kernel = append(t.kernel, c)
	}
	t.mu.Unlock()
}

// counters is the library's own counters at one instant, or their
// change over an interval.
type counters struct {
	registry map[string]int64
	cache    bvc.CacheCounters
}

func snapCounters() counters {
	return counters{registry: bvc.MetricsSnapshot().Counters, cache: bvc.CacheStats().Totals()}
}

// since returns the change from before to c (cache entries stay a level).
func (c counters) since(before counters) counters {
	d := counters{registry: make(map[string]int64), cache: c.cache}
	for name, v := range c.registry {
		if dv := v - before.registry[name]; dv != 0 {
			d.registry[name] = dv
		}
	}
	d.cache.Hits -= before.cache.Hits
	d.cache.Misses -= before.cache.Misses
	d.cache.Evictions -= before.cache.Evictions
	return d
}

// addCounters accumulates what the library counted during one chunk.
func (t *tracer) addCounters(d counters) {
	for name, v := range d.registry {
		t.add("counter."+name, float64(v))
	}
	t.add("memo.hits", float64(d.cache.Hits))
	t.add("memo.misses", float64(d.cache.Misses))
	t.add("memo.evictions", float64(d.cache.Evictions))
	t.mu.Lock()
	t.acc["memo.entries"] = float64(d.cache.Entries)
	t.mu.Unlock()
}

// replayKernels replays the sampled kernel calls, per entry point, into
// empty caches (cold, every call a miss), then again if the entry point
// is memoized (warm, every call a memo hit), then cold with one kernel
// worker. The cold lane stops after a third of the kind's share of
// budget and the other lanes repeat the calls it made.
func (t *tracer) replayKernels(budget time.Duration) {
	byKind := make(map[string][]kernelCall)
	for _, c := range t.kernel {
		byKind[c.kind] = append(byKind[c.kind], c)
	}
	if len(byKind) == 0 {
		return
	}
	lane := budget / time.Duration(3*len(byKind))
	for kind, calls := range byKind {
		bvc.ResetCaches()
		n, cold := timeCalls(t, "replay."+kind+".cold", calls, lane)
		calls = calls[:n]
		if calls[0].memoized() {
			_, warm := timeCalls(t, "replay."+kind+".warm", calls, 0)
			t.add("kernel.warm_ns", float64(warm))
			t.add("kernel.warm_calls", float64(n))
		}
		bvc.ResetCaches()
		bvc.SetKernelWorkers(1)
		_, seq := timeCalls(t, "replay."+kind+".one_worker", calls, 0)
		bvc.SetKernelWorkers(0)
		t.add(kind+".cold_ns", float64(cold))
		t.add(kind+".cold_calls", float64(n))
		t.add("kernel.cold_ns", float64(cold))
		t.add("kernel.one_worker_ns", float64(seq))
	}
	bvc.ResetCaches()
}

// timeCalls invokes calls in order under one span until limit elapses
// (limit 0: all of them) and returns how many ran and for how long.
func timeCalls(t *tracer, name string, calls []kernelCall, limit time.Duration) (int, time.Duration) {
	id := t.rec.open(name, 0, -1)
	start := time.Now()
	n := 0
	for _, c := range calls {
		c.invoke()
		n++
		if limit > 0 && time.Since(start) >= limit {
			break
		}
	}
	return n, t.rec.close(id)
}

// replayFrameCodec round-trips the frames captured off the wire
// through transport.EncodeFrame and transport.DecodeFrame.
func (t *tracer) replayFrameCodec() {
	if len(t.frames) == 0 {
		return
	}
	id := t.rec.open("replay.frame_codec", 0, -1)
	for i := range t.frames {
		if _, err := transport.DecodeFrame(transport.EncodeFrame(&t.frames[i])); err != nil {
			panic("benchmark: captured frame does not round-trip: " + err.Error())
		}
	}
	t.add("transport.codec_ns", float64(t.rec.close(id)))
	t.add("transport.codec_frames", float64(len(t.frames)))
}

// vecCodecRounds is how many EncodeVec+DecodeVec round trips the vector
// codec replay times.
const vecCodecRounds = 200000

// replayVecCodec round-trips a d-dimensional vector through the
// broadcast layer's value codec.
func (t *tracer) replayVecCodec(d int) {
	v := newLCG(1).vectors(1, d)[0]
	id := t.rec.open("replay.vec_codec", 0, -1)
	for i := 0; i < vecCodecRounds; i++ {
		if _, err := broadcast.DecodeVec(broadcast.EncodeVec(v)); err != nil {
			panic("benchmark: vector does not round-trip: " + err.Error())
		}
	}
	t.add("broadcast.vec_codec_ns", float64(t.rec.close(id)))
}

// dispatchTrials is how many empty trials the dispatch replay pushes
// through the batch engine.
const dispatchTrials = 20000

// replayDispatch measures the batch engine's own per-trial cost with
// trials that do nothing.
func (t *tracer) replayDispatch(workers int) {
	trials := make([]func(context.Context) (struct{}, error), dispatchTrials)
	for i := range trials {
		trials[i] = func(context.Context) (struct{}, error) { return struct{}{}, nil }
	}
	id := t.rec.open("replay.batch_dispatch", 0, -1)
	batch.Run(context.Background(), batch.Options{Workers: workers}, trials)
	t.add("batch.dispatch_ns", float64(t.rec.close(id)))
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics turns the traced pass's spans, accumulators and counter
// diffs into the per-layer metrics of BENCHMARK.json. untraced is the
// pass the tracing overhead is measured against; workers is the batch
// worker count (0 outside batch_lp).
func (t *tracer) layerMetrics(traced, untraced *pass, nodes, workers int) map[string]float64 {
	ops := float64(traced.ops)
	acc := func(name string) float64 { return t.acc[name] }
	counter := func(name string) float64 { return t.acc["counter."+name] }
	perOp := func(v float64) float64 { return v / ops }
	msPerOp := func(ns float64) float64 { return ns / 1e6 / ops }
	total := func(name string) float64 { return float64(t.rec.total[name]) }
	self := func(name string) float64 { return float64(t.rec.self[name]) }

	m := make(map[string]float64)

	// sched: the lockstep engine's own time is its span minus the
	// decorated process calls it drives.
	m["sched.self_ms_per_op"] = msPerOp(self("sched.run"))
	m["sched.rounds_per_op"] = perOp(acc("sched.rounds"))
	m["sched.msgs_per_op"] = perOp(acc("sched.msgs"))

	// Kernel time inside the ACS steps, read off the spans: a step that
	// sealed an epoch ran the epoch's kernel call (cold at the first node
	// to seal, a memo hit at the others) on top of an ordinary step.
	hitNs := ratio(acc("kernel.warm_ns"), acc("kernel.warm_calls"))
	steps := total("acs.step") + total("acs.step_seal")
	ordinary := ratio(total("acs.step"), float64(t.rec.count["acs.step"]))
	kernelInSteps := math.Max(0, total("acs.step_seal")-float64(t.rec.count["acs.step_seal"])*ordinary)

	m["acs.step_ms_per_op"] = msPerOp(steps)
	m["acs.self_ms_per_op"] = msPerOp(math.Max(0, steps-acc("broadcast.bracha_ns")-kernelInSteps))
	m["acs.aba_rounds_per_op"] = perOp(acc("acs.aba_rounds"))
	m["acs.slots_per_op"] = perOp(acc("acs.slots"))

	m["broadcast.bracha_ms_per_op"] = msPerOp(acc("broadcast.bracha_ns"))
	m["broadcast.bracha_msgs_per_op"] = perOp(acc("broadcast.bracha_msgs"))
	m["broadcast.eig_step_ms_per_op"] = msPerOp(total("broadcast.eig_step"))
	m["broadcast.eig_tree_nodes_per_op"] = perOp(acc("broadcast.eig_tree_nodes"))
	m["broadcast.vec_codec_ns_per_call"] = acc("broadcast.vec_codec_ns") / vecCodecRounds

	m["consensus.step2_ms_per_op"] = msPerOp(acc("consensus.step2_ns"))
	m["consensus.byzantine_drops_per_op"] = perOp(acc("consensus.byzantine_drops"))

	coldMs := func(kind string) float64 { return ratio(acc(kind+".cold_ns"), acc(kind+".cold_calls")) / 1e6 }
	m["minimax.deltastar2_cold_ms_per_call"] = coldMs("deltastar2")
	m["minimax.calls_per_op"] = perOp(counter("minimax_cache_hits_total") + counter("minimax_cache_misses_total"))
	m["relax.deltastarpoly_cold_ms_per_call"] = coldMs("deltastarpoly")
	m["relax.gamma_cold_ms_per_call"] = coldMs("gamma")
	m["relax.psik_cold_ms_per_call"] = coldMs("psik")
	m["relax.intersect_lp_solves_per_op"] = perOp(counter("relax_intersect_lp_solves_total"))
	prefiltered := counter("relax_prefilter_bbox_rejects_total") + counter("relax_prefilter_witness_accepts_total") +
		counter("relax_prefilter_witness_rejects_total") + counter("relax_prefilter_separation_rejects_total")
	m["relax.prefilter_decided_share"] = ratio(prefiltered, prefiltered+counter("relax_intersect_lp_solves_total"))

	filtered := counter("geom_filter_accepts_total") + counter("geom_filter_rejects_total")
	m["geom.filter_decided_share"] = ratio(filtered, filtered+counter("geom_filter_fallbacks_total"))
	m["geom.cache_hit_share"] = ratio(counter("geom_cache_hits_total"), counter("geom_cache_hits_total")+counter("geom_cache_misses_total"))

	m["lp.solves_per_op"] = perOp(counter("lp_solves_total"))
	m["lp.pivots_per_solve"] = ratio(counter("lp_pivots_total"), counter("lp_solves_total"))
	m["lp.warm_hit_share"] = ratio(counter("lp_warm_hits_total"), counter("lp_warm_attempts_total"))
	m["lp.infeasible_share"] = ratio(counter("lp_infeasible_total"), counter("lp_solves_total"))
	m["tverberg.scan_candidates_per_op"] = perOp(counter("tverberg_scan_candidates_total"))

	m["memo.hit_share"] = ratio(acc("memo.hits"), acc("memo.hits")+acc("memo.misses"))
	m["memo.hit_ns_per_lookup"] = hitNs
	m["memo.evictions_per_op"] = perOp(acc("memo.evictions"))
	m["memo.entries"] = acc("memo.entries")

	m["par.kernel_workers"] = float64(bvc.KernelWorkers())
	m["par.speedup"] = ratio(acc("kernel.one_worker_ns"), acc("kernel.cold_ns"))

	// transport: per-node means, since the nodes run side by side.
	perNode := func(ns float64) float64 { return msPerOp(ns / float64(nodes)) }
	m["transport.send_ms_per_op"] = perNode(total("transport.send"))
	m["transport.recv_wait_ms_per_op"] = perNode(total("transport.recv"))
	m["transport.frames_per_op"] = perOp(acc("transport.frames"))
	m["transport.wire_bytes_per_op"] = perOp(acc("transport.wire_bytes"))
	m["transport.codec_ns_per_frame"] = ratio(acc("transport.codec_ns"), acc("transport.codec_frames"))
	m["transport.reconnects"] = acc("transport.reconnects")

	busy := acc("batch.busy_ns") - acc("trace.twin_ns")
	if workers > 0 {
		m["batch.worker_busy_share"] = ratio(acc("batch.busy_ns"), float64(workers)*float64(traced.wall))
		m["batch.dispatch_us_per_trial"] = acc("batch.dispatch_ns") / 1e3 / dispatchTrials
	} else {
		m["batch.worker_busy_share"] = 0
		m["batch.dispatch_us_per_trial"] = 0
	}
	m["batch.trial_errors"] = counter("batch_trial_errors_total")

	// Shares of an op's time, the numbers the workloads are sized by.
	// One-shot instances divide by their busy time (two trials overlap
	// in batch_lp); streams divide by the wall clock.
	wall := float64(traced.wall)
	switch {
	case busy > 0:
		m["share.kernel"] = ratio(acc("consensus.step2_ns"), busy)
		m["share.broadcast_sched"] = ratio(total("broadcast.eig_step")+self("sched.run"), busy)
		m["share.transport"] = 0
	case total("transport.run_sync") > 0:
		inTransport := total("transport.run_sync") - total("trace.hook") + total("transport.close")
		m["share.kernel"] = ratio(kernelInSteps/float64(nodes), wall)
		m["share.broadcast_sched"] = ratio(acc("broadcast.bracha_ns")/float64(nodes), wall)
		m["share.transport"] = ratio(inTransport/float64(nodes), wall)
	default:
		m["share.kernel"] = ratio(kernelInSteps, wall)
		m["share.broadcast_sched"] = ratio(acc("broadcast.bracha_ns")+self("sched.run"), wall)
		m["share.transport"] = 0
	}

	// The tail latency does not repeat within a tenth from run to run on
	// a shared machine, so it is reported here, from the untraced pass,
	// and not as a bounded end-to-end metric.
	m["op.latency_p90_ms"], _ = percentile(untraced.latMs, 0.90)
	m["trace.overhead_share"] = traced.msPerOp()/untraced.msPerOpOfFirst(traced.chunks) - 1
	return m
}
