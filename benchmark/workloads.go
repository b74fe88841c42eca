package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"runtime"
	"strings"
	"time"

	bvc "relaxedbvc"
)

// validityTol is the tolerance of every Check*Validity call, the value
// the repository's own tests and binaries use.
const validityTol = 1e-6

// chunk is the unit the load generator issues between two looks at the
// clock: one ACS stream, one Run, or one RunBatch. Chunk i of a
// workload is a pure function of (seed, i).
type chunk struct {
	index int
	// specs holds the stream or Run spec, or the specs of one batch.
	specs []bvc.Spec
	// listeners and peers are acs_tcp's pre-bound loopback endpoints.
	listeners []net.Listener
	peers     map[int]string
}

// closeListeners releases a chunk's endpoints when no run took them
// over.
func (c *chunk) closeListeners() {
	for _, ln := range c.listeners {
		ln.Close()
	}
}

// outcome is what one executed chunk produced.
type outcome struct {
	// latMs has one latency per op; len(latMs) is the op count.
	latMs []float64
	// wall is the duration of a traced chunk's rebuilt run.
	wall time.Duration
	// msgs is Result.Messages summed over the chunk.
	msgs int
	// digest identifies the outputs; Run and the rebuilt traced run of
	// the same chunk must produce the same digest.
	digest string
	// streams is the per-node decision stream of an ACS chunk (nil for
	// nodes that produced none).
	streams [][]bvc.ACSEpoch
	// results and errs have one entry per spec of a sync or batch chunk:
	// the instance's result, or the error it returned (a recovered panic
	// included).
	results []*bvc.Result
	errs    []error
}

// runner is one workload's load generator, checker and traced twin.
type runner interface {
	// prepare generates chunk i (untimed). Negative indices are warm-up
	// chunks on their own seed stream.
	prepare(i int) (*chunk, error)
	// run executes the chunk through the public API (Run / RunBatch).
	run(ctx context.Context, c *chunk) (*outcome, error)
	// trace executes the chunk rebuilt from the layers' public
	// constructors with timing decorators; op0 is the id of its first
	// op. The outcome's wall covers the rebuilt run only, not the
	// replays trace does after it.
	trace(ctx context.Context, c *chunk, t *tracer, op0 int) (*outcome, error)
	// check verifies the chunk's outputs and returns how many of its
	// ops failed, with one line per reason.
	check(ctx context.Context, c *chunk, o *outcome) (failed int, reasons []string)
	// replay runs the end-of-pass replays into single layers.
	replay(t *tracer, budget time.Duration)
	// clients reports the generator's concurrency for the report:
	// goroutines issuing work and connections held.
	clients() (goroutines, connections int)
}

// warmUp is one set-up: generate warm-up chunk rep on its own seed
// stream, bind and dial its endpoints, run it cold and check it (acs_tcp
// against a simulator reference run).
func warmUp(ctx context.Context, r runner, rep int) error {
	c, err := r.prepare(-1 - rep)
	if err != nil {
		return err
	}
	o, err := r.run(ctx, c)
	if err != nil {
		c.closeListeners()
		return fmt.Errorf("warm-up chunk: %w", err)
	}
	if failed, reasons := r.check(ctx, c, o); failed > 0 {
		return fmt.Errorf("warm-up chunk failed its checks: %s", strings.Join(reasons, "; "))
	}
	return nil
}

// workload names one benchmark workload and builds its runner.
type workload struct {
	name string
	why  string
	// chunksPerSecond is the rate, in nominal time, at which the 2-core
	// machine the benchmark was defined on ran the workload's chunks. It
	// only turns -seconds into a chunk count: a run does the same work on
	// every machine and at every commit, so counts repeat exactly.
	chunksPerSecond float64
	new             func(seed uint64, tiny bool) runner
}

// chunks is the size of one untraced pass.
func (w *workload) chunks(o *options) int {
	if o.tiny {
		return 2
	}
	return max(1, int(math.Ceil(o.seconds*w.chunksPerSecond)))
}

// workloads is the fixed set BENCHMARK.json declares. tiny shrinks the
// chunk sizes for the package's own tests.
var workloads = []workload{
	{
		name:            "acs_kernel",
		why:             "ACS stream on the simulator at n=7 f=2 d=3 p=2: the delta*_2 minimax kernel is ~99% of an epoch, so kernel, memo and par changes show here and protocol-layer changes must not",
		chunksPerSecond: 3.3,
		new: func(seed uint64, tiny bool) runner {
			r := &acsRunner{seed: seed, salt: 1, n: 7, f: 2, d: 3, p: 2, epochs: 3, warmEpochs: 2}
			if tiny {
				r.epochs, r.warmEpochs = 2, 1
			}
			return r
		},
	},
	{
		name:            "acs_protocol",
		why:             "same machines at d=1 p=+Inf: the kernel is one small LP (~7% of an epoch), so Bracha, ABA and sched.SyncEngine do the work; driver and broadcast changes show here and kernel changes must not",
		chunksPerSecond: 3.4,
		new: func(seed uint64, tiny bool) runner {
			r := &acsRunner{seed: seed, salt: 2, n: 7, f: 2, d: 1, p: math.Inf(1), epochs: 250, warmEpochs: 100}
			if tiny {
				r.epochs, r.warmEpochs = 20, 5
			}
			return r
		},
	},
	{
		name:            "acs_tcp",
		why:             "the same stream at n=4 f=1 d=2 p=2 over loopback TCP: frame codec, sockets and the RunSync end-of-round barrier dominate; the only workload where transport metrics are non-zero",
		chunksPerSecond: 5.0,
		new: func(seed uint64, tiny bool) runner {
			r := &acsRunner{seed: seed, salt: 3, n: 4, f: 1, d: 2, p: 2, epochs: 100, warmEpochs: 100, tcp: true}
			if tiny {
				r.epochs, r.warmEpochs = 20, 5
			}
			return r
		},
	},
	{
		name:            "sync_eig",
		why:             "k=1 relaxed consensus at the paper's n=3f+1 bound (n=10 f=3 d=3): Step 2 is a per-coordinate trim, so EIG broadcast and sched do the work in 4 rounds of huge fan-out, the opposite engine shape of ACS",
		chunksPerSecond: 14.5,
		new: func(seed uint64, tiny bool) runner {
			r := &syncRunner{seed: seed, salt: 4, cycle: []family{{proto: bvc.ProtocolKRelaxed, n: 10, f: 3, d: 3, k: 1}}}
			if tiny {
				r.cycle = []family{{proto: bvc.ProtocolKRelaxed, n: 7, f: 2, d: 3, k: 1}}
			}
			return r
		},
	},
	{
		name:            "batch_lp",
		why:             "RunBatch with 2 workers over unique planar (d=2) exact, delta-relaxed p=+Inf and convex specs from a fixed corpus: LP simplex and Gamma intersector do the work while two trials share the caches",
		chunksPerSecond: 6.8,
		new: func(seed uint64, tiny bool) runner {
			fams := append([]family(nil), batchFamilies...)
			r := &syncRunner{seed: seed, salt: 5, batch: true, workers: 2, corpus: true}
			cycles := 2
			if tiny {
				for i := range fams {
					fams[i].weight = 1
				}
				cycles = 1
			}
			for c := 0; c < cycles; c++ {
				r.cycle = append(r.cycle, weightedCycle(fams)...)
			}
			return r
		},
	},
}

// batchFamilies are batch_lp's shapes, each at or above its paper
// bound. Planar shapes only: at d >= 3 about one random instance in
// 10^3..10^4 of every LP-backed protocol fails its validity check at
// this commit (README, "Known library failures"). In the plane the LPs
// are small next to the EIG broadcast, so the weights lean on the convex
// shapes (eight LP solves per op) to keep Step 2 above 60% of the busy
// time, with every family under half of it.
var batchFamilies = []family{
	{proto: bvc.ProtocolExact, n: 7, f: 2, d: 2, weight: 4},
	{proto: bvc.ProtocolExact, n: 9, f: 2, d: 2, weight: 2},
	{proto: bvc.ProtocolDeltaRelaxed, n: 7, f: 2, d: 2, p: math.Inf(1), weight: 3},
	{proto: bvc.ProtocolConvex, n: 8, f: 2, d: 2, weight: 3},
	{proto: bvc.ProtocolConvex, n: 9, f: 2, d: 2, weight: 2},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// pass is the result of running a fixed number of chunks.
type pass struct {
	chunks int
	ops    int
	failed int
	wall   time.Duration // summed chunk durations, as measured
	// nominal is the summed chunk durations in nominal time (calib.go);
	// latMs is in nominal time too.
	nominal time.Duration
	// chunkNominal[i] and chunkOps[i] are chunk i's duration in nominal
	// time and its op count.
	chunkNominal []time.Duration
	chunkOps     []int
	latMs        []float64
	msgs         int
	alloc        uint64 // TotalAlloc delta summed over the timed chunks
	// digests[i] is chunk i's output digest.
	digests []string
	reasons []string
}

func (p *pass) msPerOp() float64    { return p.msPerOpOfFirst(p.chunks) }
func (p *pass) msgsPerOp() float64  { return float64(p.msgs) / float64(p.ops) }
func (p *pass) allocPerOp() float64 { return float64(p.alloc) / float64(p.ops) / (1 << 20) }

// opsPerSec is the rate of the pass's median chunk, in nominal time: a
// chunk that a burst of interference or a bad calibration reading hit
// does not move it, which it would move a total.
func (p *pass) opsPerSec() float64 {
	perOp := make([]float64, p.chunks)
	for i := range perOp {
		perOp[i] = p.chunkNominal[i].Seconds() / float64(p.chunkOps[i])
	}
	return 1 / median(perOp)
}

// msPerOpOfFirst is the nominal time per op of the pass's first n
// chunks.
func (p *pass) msPerOpOfFirst(n int) float64 {
	var nominal time.Duration
	ops := 0
	for i := 0; i < n; i++ {
		nominal += p.chunkNominal[i]
		ops += p.chunkOps[i]
	}
	return nominal.Seconds() * 1e3 / float64(ops)
}

// maxReasons bounds the failure lines kept per pass.
const maxReasons = 20

// measure issues chunks 0 .. chunks-1 one at a time (a closed loop with
// one client). Only the call into the system is timed; generation and
// checking happen between chunks. Every op that fails its checks counts
// in failed. With a tracer the chunks run through the rebuilt, decorated
// path and the library's counters are diffed around each chunk.
func measure(ctx context.Context, r runner, chunks int, t *tracer) (*pass, error) {
	p := &pass{}
	for i := 0; i < chunks; i++ {
		c, err := r.prepare(i)
		if err != nil {
			return nil, fmt.Errorf("chunk %d: prepare: %w", i, err)
		}
		var before, after runtime.MemStats
		var o *outcome
		var wall time.Duration
		calBefore := calibrate()
		if t == nil {
			runtime.ReadMemStats(&before)
			start := time.Now()
			o, err = r.run(ctx, c)
			wall = time.Since(start)
			runtime.ReadMemStats(&after)
		} else {
			counted := snapCounters()
			o, err = r.trace(ctx, c, t, p.ops)
			if err == nil {
				wall = o.wall
				t.addCounters(snapCounters().since(counted))
				t.rec.flush()
			}
		}
		if err != nil {
			c.closeListeners()
			return nil, fmt.Errorf("chunk %d: %w", i, err)
		}
		factor := nominalFactor(calBefore, calibrate())
		failed, reasons := r.check(ctx, c, o)
		p.chunks++
		p.ops += len(o.latMs)
		p.failed += failed
		p.wall += wall
		p.nominal += time.Duration(float64(wall) * factor)
		p.chunkNominal = append(p.chunkNominal, time.Duration(float64(wall)*factor))
		p.chunkOps = append(p.chunkOps, len(o.latMs))
		for _, ms := range o.latMs {
			p.latMs = append(p.latMs, ms*factor)
		}
		p.msgs += o.msgs
		p.alloc += after.TotalAlloc - before.TotalAlloc
		p.digests = append(p.digests, o.digest)
		for _, why := range reasons {
			if len(p.reasons) < maxReasons {
				p.reasons = append(p.reasons, fmt.Sprintf("chunk %d: %s", i, why))
			}
		}
	}
	return p, nil
}

// weightedCycle orders one cycle of the families by smooth weighted
// round-robin, so heavy and light families interleave instead of
// running in blocks.
func weightedCycle(fams []family) []family {
	total := 0
	for _, f := range fams {
		total += f.weight
	}
	cur := make([]int, len(fams))
	out := make([]family, 0, total)
	for len(out) < total {
		best := 0
		for i, f := range fams {
			cur[i] += f.weight
			if cur[i] > cur[best] {
				best = i
			}
		}
		cur[best] -= total
		out = append(out, fams[best])
	}
	return out
}
