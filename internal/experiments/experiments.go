// Package experiments contains one runner per reproduced artifact of the
// paper (tables, figures and theorem-level claims), as indexed in
// DESIGN.md. Each runner returns an Outcome holding the regenerated
// table, an overall pass verdict (the paper's claim held numerically)
// and free-form notes; cmd/bvcbench prints them and bench_test.go wraps
// them as benchmarks. Every protocol run goes through the root package's
// Run, and agreement and validity are judged over Spec.HonestIDs.
package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"time"

	"relaxedbvc/internal/batch"
	"relaxedbvc/internal/metrics"
	"relaxedbvc/internal/report"
)

// Options configures an experiment run.
type Options struct {
	// Seed drives all randomness (default 1).
	Seed int64
	// Trials is the number of random repetitions per configuration
	// (default 5; heavy experiments scale it down internally).
	Trials int
	// Quick restricts dimension/process sweeps to the small end, for use
	// in unit tests and -short benchmarks.
	Quick bool
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Trials == 0 {
		o.Trials = 5
	}
	return o
}

func (o Options) rng() *rand.Rand { return rand.New(rand.NewSource(o.Seed)) }

// Outcome is the result of one experiment.
type Outcome struct {
	ID    string
	Title string
	Table *report.Table
	Pass  bool
	Notes []string
	// Elapsed is the experiment's wall time (set by RunAllInstrumented;
	// zero otherwise).
	Elapsed time.Duration
	// Metrics is this experiment's contribution to the process-wide
	// metrics registry — the snapshot delta across its run (set by
	// RunAllInstrumented; nil otherwise). Counters and histogram counts
	// are exact when experiments run sequentially; under concurrent
	// execution deltas attribute overlapping work to whoever snapshots
	// last, which is why the instrumented path is sequential.
	Metrics *metrics.Snapshot
	// MetricsCumulative is the full registry snapshot taken right after
	// this experiment finished (set by RunAllInstrumented; nil
	// otherwise). Unlike the delta it always carries the process-wide
	// consensus and batch counters, even for experiments that exercise
	// only the geometry layer.
	MetricsCumulative *metrics.Snapshot
}

// Render writes the outcome in the harness's standard format, including
// the per-experiment metrics table when a snapshot delta is attached.
func (o *Outcome) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s [%s]\n", o.ID, o.Title, report.PassFail(o.Pass))
	if o.Table != nil {
		o.Table.Render(w)
	}
	for _, n := range o.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	if o.Metrics != nil {
		fmt.Fprintf(w, "-- metrics (%s) --\n", o.Elapsed.Round(time.Millisecond))
		report.MetricsTable(o.Metrics).Render(w)
	}
	fmt.Fprintln(w)
}

// Runner is an experiment entry point.
type Runner func(Options) *Outcome

// Entry is one registered experiment.
type Entry struct {
	ID  string
	Run Runner
}

// Registry returns the experiments in DESIGN.md order.
func Registry() []Entry {
	return []Entry{
		{"E1", E1ExactBounds},
		{"E2", E2KRelaxedSync},
		{"E3", E3KRelaxedAsync},
		{"E4", E4DeltaConstSync},
		{"E5", E5DeltaConstAsync},
		{"E6", E6Table1},
		{"E7", E7InradiusAblation},
		{"E8", E8FacetRadii},
		{"E9", E9Holder},
		{"E10", E10AsyncRVA},
		{"E11", E11Impossibility},
		{"E12", E12Tverberg},
		{"E13", E13Degenerate},
		{"E14", E14Containment},
		{"E15", E15Footnote3},
		{"E16", E16ConjectureSweep},
		{"E17", E17ConvexHull},
		{"E18", E18Iterative},
		{"E19", E19CostScaling},
		{"E20", E20BoundTightness},
		{"E21", E21FaultSweep},
	}
}

// RunAllInstrumented executes every registered experiment sequentially,
// each as its own single-trial batch, and attaches to every Outcome the
// delta of the process-wide metrics registry across its run: what the
// experiment added to the consensus round/message counters, the batch
// trial-latency histogram, the kernel solver counts and the LP
// statistics. Sequential execution (one worker, one experiment at a
// time) is what makes the deltas attributable.
func RunAllInstrumented(ctx context.Context, opt Options) []*Outcome {
	reg := Registry()
	out := make([]*Outcome, 0, len(reg))
	prev := metrics.Snap()
	for _, e := range reg {
		start := time.Now()
		results := batch.Map(ctx, batch.Options{Workers: 1}, []Entry{e},
			func(_ context.Context, en Entry) (*Outcome, error) {
				return en.Run(opt), nil
			})
		r := results[0]
		var o *Outcome
		if r.Err != nil {
			o = &Outcome{ID: e.ID, Title: "(did not run)", Pass: false}
			note(o, "%v", r.Err)
		} else {
			o = r.Value
		}
		cur := metrics.Snap()
		o.Elapsed = time.Since(start)
		o.Metrics = cur.Diff(prev)
		o.MetricsCumulative = cur
		prev = cur
		out = append(out, o)
	}
	return out
}

// Run looks up and runs a single experiment by id; nil if unknown.
func Run(id string, opt Options) *Outcome {
	for _, e := range Registry() {
		if e.ID == id {
			return e.Run(opt)
		}
	}
	return nil
}

func note(o *Outcome, format string, args ...any) {
	o.Notes = append(o.Notes, fmt.Sprintf(format, args...))
}
