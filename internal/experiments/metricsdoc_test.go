package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"relaxedbvc/internal/metrics"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// goldenDoc builds a fully deterministic metrics document from a
// private registry (never the process-wide one, which other tests
// mutate).
func goldenDoc() *MetricsDoc {
	reg := metrics.NewRegistry()
	reg.Counter("consensus_rounds_total").Add(12)
	reg.Counter("consensus_messages_total").Add(240)
	reg.Counter("geom_cache_hits_total").Add(15)
	reg.Counter("geom_cache_misses_total").Add(20)
	// One feasible basis serving four objectives: solves / phase-1 runs is
	// the objectives-per-basis rate, phase-1 pivots / pivots the share of
	// pivoting no objective influenced.
	reg.Counter("lp_solves_total").Add(4)
	reg.Counter("lp_phase1_runs_total").Add(1)
	reg.Counter("lp_pivots_total").Add(132)
	reg.Counter("lp_phase1_pivots_total").Add(104)
	reg.Gauge("batch_queue_depth").Set(0)
	h := reg.Histogram("batch_trial_seconds", []float64{0.01, 0.1, 1})
	h.Observe(0.005)
	h.Observe(0.05)
	snap := reg.Snapshot()
	outcomes := []*Outcome{
		{ID: "E1", Title: "exact BVC bounds", Pass: true, Elapsed: 1500 * time.Millisecond, Metrics: snap, MetricsCumulative: snap},
	}
	return BuildMetricsDoc(outcomes, snap)
}

// TestMetricsDocGolden pins the exact bytes of the -metrics-out format:
// field names, field order, histogram bucket encoding (including the
// "+Inf" bound) and indentation. A diff here means downstream consumers
// of metrics.json (the CI artifacts, ad-hoc jq pipelines) will see a
// format change — update the golden file deliberately with
// `go test ./internal/experiments -run Golden -update-golden`.
func TestMetricsDocGolden(t *testing.T) {
	got, err := goldenDoc().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "metricsdoc.golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("metrics document format drifted from the golden file.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestMetricsDocDeterministic marshals the same logical document twice
// through fresh registries; byte equality is what makes the JSON field
// order "stable" in the sense the golden file relies on (map keys are
// sorted by encoding/json, bucket layouts are fixed).
func TestMetricsDocDeterministic(t *testing.T) {
	a, err := goldenDoc().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	b, err := goldenDoc().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("identical documents marshaled differently")
	}
}
