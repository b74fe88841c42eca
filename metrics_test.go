package relaxedbvc

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"relaxedbvc/internal/metrics"
)

// metricsPass resets the registry, runs a fixed seeded batch on a
// single worker, and returns the resulting counter section. Counters are
// the deterministic slice of the registry — wall-time histograms and
// gauges are not expected to repeat.
func metricsPass(t *testing.T) map[string]int64 {
	t.Helper()
	metrics.ResetDefault()
	norms := []float64{2, 1, LInf}
	specs := make([]Spec, 12)
	for i := range specs {
		n := 4 + i%3
		specs[i] = Spec{
			Protocol: ProtocolDeltaRelaxed,
			N:        n, F: 1, D: 3,
			NormP:  norms[i%len(norms)],
			Inputs: deterministicInputs(int64(100+i%4), n, 3),
		}
	}
	results := RunBatch(context.Background(), BatchOptions{Workers: 1}, specs)
	if err := FirstBatchErr(results); err != nil {
		t.Fatal(err)
	}
	counters := metrics.Snap().Counters
	// sync.Pool allocation counts depend on what the pool retained from
	// earlier passes (and on GC), so the *_news_total arena counters are
	// the one legitimately nondeterministic family (their _gets_total
	// twins stay deterministic and remain compared).
	for name := range counters {
		if strings.HasSuffix(name, "_news_total") {
			delete(counters, name)
		}
	}
	return counters
}

func deterministicInputs(seed int64, n, d int) []Vector {
	state := uint64(seed)*6364136223846793005 + 1442695040888963407
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>11)/float64(1<<53)*10 - 5
	}
	inputs := make([]Vector, n)
	for i := range inputs {
		v := make([]float64, d)
		for j := range v {
			v[j] = next()
		}
		inputs[i] = NewVector(v...)
	}
	return inputs
}

// TestMetricsSnapshotDeterminism runs the same seeded workload twice
// and requires identical counter values: rounds, messages, LP solves
// and pivots — everything the protocols and kernels count must be a
// pure function of the inputs.
func TestMetricsSnapshotDeterminism(t *testing.T) {
	a := metricsPass(t)
	b := metricsPass(t)
	if !reflect.DeepEqual(a, b) {
		for k, va := range a {
			if vb := b[k]; va != vb {
				t.Errorf("counter %s: first run %d, second run %d", k, va, vb)
			}
		}
		for k := range b {
			if _, ok := a[k]; !ok {
				t.Errorf("counter %s only present in second run", k)
			}
		}
		t.Fatal("seeded runs produced different counter snapshots")
	}
	for _, name := range []string{
		"consensus_runs_total", "consensus_rounds_total", "consensus_messages_total",
		"lp_solves_total", "lp_pivots_total", "batch_trials_total",
	} {
		if a[name] == 0 {
			t.Errorf("counter %s is zero after a 12-trial sweep", name)
		}
	}
}

// TestRunAttachesMetrics pins the Result.Metrics contract of the
// unified API: every successful Run carries a snapshot with the
// protocol name, wall time and the network statistics of the run.
func TestRunAttachesMetrics(t *testing.T) {
	inputs := deterministicInputs(7, 5, 3)
	res, err := Run(context.Background(), Spec{
		Protocol: ProtocolDeltaRelaxed,
		N:        5, F: 1, D: 3,
		Inputs: inputs,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if m == nil {
		t.Fatal("Result.Metrics is nil")
	}
	if m.Protocol != "delta-relaxed" {
		t.Fatalf("protocol %q", m.Protocol)
	}
	if m.WallNanos <= 0 {
		t.Fatalf("wall nanos %d", m.WallNanos)
	}
	if m.Rounds != res.Rounds || m.Messages != res.Messages {
		t.Fatalf("metrics (%d rounds, %d msgs) disagree with result (%d, %d)",
			m.Rounds, m.Messages, res.Rounds, res.Messages)
	}
	if m.Rounds == 0 || m.Messages == 0 {
		t.Fatal("sync run reported zero rounds or messages")
	}
	if m.EIGTreeNodes == 0 {
		t.Fatal("oral broadcast reported an empty EIG tree")
	}
}

// TestRunMetricsCountByzantineDrops checks the drop counter end to end:
// a crash-style Byzantine sender that stays silent must show up as
// dropped messages in the run's metrics.
func TestRunMetricsCountByzantineDrops(t *testing.T) {
	inputs := deterministicInputs(9, 5, 2)
	res, err := Run(context.Background(), Spec{
		Protocol: ProtocolExact,
		N:        5, F: 1, D: 2,
		Inputs:    inputs,
		Byzantine: map[int]ByzantineBehavior{4: Silent()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.ByzantineDrops == 0 {
		t.Fatal("silent Byzantine process produced zero recorded drops")
	}
}
