// Command benchmark is the repository's performance yardstick: five
// closed-loop workloads over the relaxed-BVC stack, each checked for
// correct outputs, reporting the end-to-end metrics of BENCHMARK.json
// from an untraced pass and, with -trace 1, the per-layer metrics from
// a second pass rebuilt from the layers' public constructors with
// timing decorators. See README.md.
//
//	bash benchmark/run.sh -workload acs_kernel -seed 1 -seconds 12 -trace 0
//	bash benchmark/run.sh -seed 1 -report a.jsonl          # all workloads
//	bash benchmark/run.sh -compare a.jsonl b.jsonl
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	bvc "relaxedbvc"
)

// setupRepeats is how many times an untraced run sets the workload up;
// setup_s is the median.
const setupRepeats = 5

// options are the command's flags.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	outDir   string
	report   string
	// tiny shrinks every workload to a smoke-test size; only the
	// package's tests set it.
	tiny bool
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the object the contract wants as the last line of
// standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// environment records where a run was made, so numbers from unlike
// machines are never compared silently.
type environment struct {
	NumCPU      int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	Commit      string `json:"commit"`
	Goroutines  int    `json:"generator_goroutines"`
	Connections int    `json:"generator_connections"`
}

// runRecord is one line of a -report file: one workload, one pass kind.
type runRecord struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Trace      int     `json:"trace"`
	Seconds    float64 `json:"seconds"`
	Chunks     int     `json:"chunks"`
	Ops        int     `json:"ops"`
	TracedOps  int     `json:"traced_ops,omitempty"`
	LatSamples int     `json:"latency_samples"`
	// WallOpsPerS is ops per second of wall time, before the conversion
	// to nominal time (calib.go), and MachineSpeed the ratio of the two:
	// 1 on a machine that runs the calibration kernel in calNominal.
	WallOpsPerS  float64     `json:"wall_ops_per_s"`
	MachineSpeed float64     `json:"machine_speed"`
	Env          environment `json:"env"`
	Note         string      `json:"note"`
	resultLine
}

// processorTimeNote is stated in every report: nothing delays messages.
const processorTimeNote = "simulator delivers instantly and acs_tcp is loopback with no injected delay: every latency is processor time"

func main() { os.Exit(realMain()) }

// realMain runs the command and returns its exit code.
func realMain() int {
	var o options
	var compare, verify bool
	flag.StringVar(&o.workload, "workload", "all", "workload name, or all")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 12, "size of a run: the chunks the reference machine times in this many seconds (a fixed count, not a time budget)")
	flag.IntVar(&o.trace, "trace", 0, "0: untraced pass, end-to-end metrics; 1: also the traced pass, per-layer metrics")
	flag.StringVar(&o.outDir, "out", "benchmark/out", "directory for the traced pass's span files")
	flag.StringVar(&o.report, "report", "", "append one JSON record per workload run to this file")
	flag.BoolVar(&compare, "compare", false, "compare two -report files given as arguments against the bounds in BENCHMARK.json")
	flag.BoolVar(&verify, "verify-corpus", false, "run and check every entry of batch_lp's fixed corpus (about a minute)")
	flag.Parse()

	if verify {
		return verifyCorpus(context.Background(), os.Stdout)
	}
	if compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -compare a.jsonl b.jsonl")
			return 2
		}
		return runCompare(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 || o.trace < 0 || o.trace > 1 || o.seconds <= 0 {
		flag.Usage()
		return 2
	}
	var selected []*workload
	if o.workload == "all" {
		for i := range workloads {
			selected = append(selected, &workloads[i])
		}
	} else if w := findWorkload(o.workload); w != nil {
		selected = []*workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", o.workload)
		return 2
	}
	if runtime.GOMAXPROCS(0) < 2 {
		fmt.Println("# WARNING: GOMAXPROCS < 2; these numbers are not comparable with a run on two or more cores")
	}
	exit := 0
	for _, w := range selected {
		rec, err := runWorkload(context.Background(), w, &o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", w.name, err)
			return 1
		}
		if o.report != "" {
			if err := appendRecord(o.report, rec); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
		}
		printRecord(rec)
		if !rec.Correct {
			exit = 1
		}
	}
	return exit
}

// runWorkload sets the workload up, measures it and assembles the
// record: the untraced pass's end-to-end metrics, or with tracing the
// traced pass's per-layer metrics.
func runWorkload(ctx context.Context, w *workload, o *options) (*runRecord, error) {
	r := w.new(o.seed, o.tiny)
	rec := &runRecord{Workload: w.name, Seed: o.seed, Trace: o.trace, Seconds: o.seconds, Note: processorTimeNote}
	rec.Env = currentEnvironment()
	rec.Env.Goroutines, rec.Env.Connections = r.clients()

	// Set-up is everything before the first timed op; it is repeated on
	// empty caches and the median is setup_s.
	repeats := setupRepeats
	if o.trace == 1 || o.tiny {
		repeats = 1
	}
	setups := make([]float64, repeats)
	for rep := range setups {
		calBefore := calibrate()
		start := time.Now()
		bvc.ResetCaches()
		if err := warmUp(ctx, r, rep); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		bvc.ResetCaches()
		elapsed := time.Since(start).Seconds()
		setups[rep] = elapsed * nominalFactor(calBefore, calibrate())
	}

	chunks := w.chunks(o)
	untraced, err := measure(ctx, r, chunks, nil)
	if err != nil {
		return nil, err
	}
	rec.Chunks, rec.Ops, rec.LatSamples = untraced.chunks, untraced.ops, len(untraced.latMs)
	rec.WallOpsPerS = float64(untraced.ops) / untraced.wall.Seconds()
	rec.MachineSpeed = untraced.nominal.Seconds() / untraced.wall.Seconds()
	rec.Attempted, rec.Failed = untraced.ops, untraced.failed
	reasons := untraced.reasons

	if o.trace == 0 {
		p50, _ := percentile(untraced.latMs, 0.50)
		rec.Metrics = map[string]metric{
			"setup_s":           {median(setups), "s"},
			"ops_per_s":         {untraced.opsPerSec(), "1/s"},
			"op_latency_p50_ms": {p50, "ms"},
			"msgs_per_op":       {untraced.msgsPerOp(), "count"},
			"alloc_mb_per_op":   {untraced.allocPerOp(), "MB"},
		}
	} else {
		// The traced pass reruns the first quarter of the chunks, rebuilt
		// from the layers; they must miss the caches again.
		t := newTracer()
		bvc.ResetCaches()
		traced, err := measure(ctx, r, max(1, chunks/4), t)
		if err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
		// The rebuilt run must produce what Run produced, chunk by chunk.
		for i, digest := range traced.digests {
			if untraced.digests[i] != digest {
				return nil, fmt.Errorf("traced pass: chunk %d rebuilt from the layers differs from Run's output", i)
			}
		}
		r.replay(t, traced.wall)
		t.replayVecCodec(3)
		t.rec.flush()
		nodes, _ := r.clients()
		workers := 0
		if sr, ok := r.(*syncRunner); ok && sr.batch {
			workers = sr.workers
		}
		if _, enough := percentile(untraced.latMs, 0.90); !enough {
			fmt.Printf("# WARNING: %s: fewer than %d samples beyond op.latency_p90_ms (%d samples)\n", w.name, tailSamples, len(untraced.latMs))
		}
		rec.TracedOps = traced.ops
		rec.Attempted += traced.ops
		rec.Failed += traced.failed
		reasons = append(reasons, traced.reasons...)
		rec.Metrics = make(map[string]metric)
		for name, v := range t.layerMetrics(traced, untraced, nodes, workers) {
			rec.Metrics[name] = metric{v, layerUnits[name]}
		}
		if err := os.MkdirAll(o.outDir, 0o755); err != nil {
			return nil, fmt.Errorf("trace directory: %w", err)
		}
		if err := t.rec.write(filepath.Join(o.outDir, w.name+".trace.jsonl")); err != nil {
			return nil, err
		}
	}
	for _, why := range reasons {
		fmt.Printf("# FAILED %s: %s\n", w.name, why)
	}
	rec.Correct = rec.Failed == 0
	return rec, nil
}

func currentEnvironment() environment {
	env := environment{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}

// printRecord prints the run's environment and every metric by name
// with its unit, then the result object as the last line.
func printRecord(rec *runRecord) {
	e := rec.Env
	fmt.Printf("# %s seed=%d trace=%d: %d ops in %d chunks (%d latency samples), traced ops %d\n",
		rec.Workload, rec.Seed, rec.Trace, rec.Ops, rec.Chunks, rec.LatSamples, rec.TracedOps)
	fmt.Printf("# nproc=%d GOMAXPROCS=%d %s commit=%s generator: %d goroutine(s), %d connection(s)\n",
		e.NumCPU, e.GOMAXPROCS, e.GoVersion, e.Commit, e.Goroutines, e.Connections)
	fmt.Printf("# %s\n", rec.Note)
	fmt.Printf("# timings are in nominal time; wall clock: %.6g ops/s, machine speed %.3f of the reference\n", rec.WallOpsPerS, rec.MachineSpeed)
	names := make([]string, 0, len(rec.Metrics))
	for name := range rec.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rec.Metrics[name]
		fmt.Printf("%-40s %14.6g %s\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(rec.resultLine)
	if err != nil {
		panic(err) // a map of finite floats and strings always marshals
	}
	fmt.Println(string(line))
}

func appendRecord(path string, rec *runRecord) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("report: %w", err)
	}
	line, err := json.Marshal(rec)
	if err == nil {
		_, err = f.Write(append(line, '\n'))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("report %s: %w", path, err)
	}
	return nil
}

// layerUnits gives every per-layer metric its unit; its keys are the
// per_layer names of BENCHMARK.json.
var layerUnits = map[string]string{
	"sched.self_ms_per_op":                 "ms",
	"sched.rounds_per_op":                  "count",
	"sched.msgs_per_op":                    "count",
	"acs.step_ms_per_op":                   "ms",
	"acs.self_ms_per_op":                   "ms",
	"acs.aba_rounds_per_op":                "count",
	"acs.slots_per_op":                     "count",
	"broadcast.bracha_ms_per_op":           "ms",
	"broadcast.bracha_msgs_per_op":         "count",
	"broadcast.eig_step_ms_per_op":         "ms",
	"broadcast.eig_tree_nodes_per_op":      "count",
	"broadcast.vec_codec_ns_per_call":      "ns",
	"consensus.step2_ms_per_op":            "ms",
	"consensus.byzantine_drops_per_op":     "count",
	"minimax.deltastar2_cold_ms_per_call":  "ms",
	"minimax.calls_per_op":                 "count",
	"relax.deltastarpoly_cold_ms_per_call": "ms",
	"relax.gamma_cold_ms_per_call":         "ms",
	"relax.psik_cold_ms_per_call":          "ms",
	"relax.intersect_lp_solves_per_op":     "count",
	"relax.prefilter_decided_share":        "share",
	"geom.filter_decided_share":            "share",
	"geom.cache_hit_share":                 "share",
	"lp.solves_per_op":                     "count",
	"lp.pivots_per_solve":                  "count",
	"lp.warm_hit_share":                    "share",
	"lp.infeasible_share":                  "share",
	"tverberg.scan_candidates_per_op":      "count",
	"memo.hit_share":                       "share",
	"memo.hit_ns_per_lookup":               "ns",
	"memo.evictions_per_op":                "count",
	"memo.entries":                         "count",
	"par.kernel_workers":                   "count",
	"par.speedup":                          "ratio",
	"transport.send_ms_per_op":             "ms",
	"transport.recv_wait_ms_per_op":        "ms",
	"transport.frames_per_op":              "count",
	"transport.wire_bytes_per_op":          "bytes",
	"transport.codec_ns_per_frame":         "ns",
	"transport.reconnects":                 "count",
	"batch.worker_busy_share":              "share",
	"batch.dispatch_us_per_trial":          "us",
	"batch.trial_errors":                   "count",
	"op.latency_p90_ms":                    "ms",
	"share.kernel":                         "share",
	"share.broadcast_sched":                "share",
	"share.transport":                      "share",
	"trace.overhead_share":                 "share",
}
