package experiments

import (
	"encoding/json"
	"os"

	"relaxedbvc/internal/metrics"
)

// ExperimentMetrics is one experiment's entry in the -metrics-out
// document: identity, verdict, wall time and the experiment's delta of
// the process-wide metrics registry (consensus rounds/messages, batch
// trial latency, kernel solver counts, LP statistics).
type ExperimentMetrics struct {
	ID             string            `json:"id"`
	Title          string            `json:"title"`
	Pass           bool              `json:"pass"`
	ElapsedSeconds float64           `json:"elapsed_seconds"`
	Delta          *metrics.Snapshot `json:"delta"`
	// Cumulative is the full registry at the end of this experiment —
	// the process-wide consensus round counters and batch latency
	// histogram are always populated here, even when the experiment
	// itself only touched the geometry layer (so its Delta has zero
	// consensus activity).
	Cumulative *metrics.Snapshot `json:"cumulative"`
}

// MetricsDoc is the document `bvcbench -metrics-out` writes: one entry
// per executed experiment plus the cumulative registry totals at the
// end of the run. Field order is stable — struct fields marshal in
// declaration order, snapshot maps marshal with sorted keys, and
// histogram bucket layouts are fixed at registration — so the document
// diffs cleanly across runs.
type MetricsDoc struct {
	Experiments []ExperimentMetrics `json:"experiments"`
	Totals      *metrics.Snapshot   `json:"totals"`
}

// BuildMetricsDoc assembles the document from instrumented outcomes
// (RunAllInstrumented) and the given cumulative snapshot.
func BuildMetricsDoc(outcomes []*Outcome, totals *metrics.Snapshot) *MetricsDoc {
	doc := &MetricsDoc{Totals: totals}
	for _, o := range outcomes {
		doc.Experiments = append(doc.Experiments, ExperimentMetrics{
			ID:             o.ID,
			Title:          o.Title,
			Pass:           o.Pass,
			ElapsedSeconds: o.Elapsed.Seconds(),
			Delta:          o.Metrics,
			Cumulative:     o.MetricsCumulative,
		})
	}
	return doc
}

// Marshal renders the document as indented JSON with a trailing
// newline (the exact bytes Write puts on disk; split out for the
// golden-file test).
func (d *MetricsDoc) Marshal() ([]byte, error) {
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// Write writes the document to path.
func (d *MetricsDoc) Write(path string) error {
	data, err := d.Marshal()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
