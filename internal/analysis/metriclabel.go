package analysis

import (
	"go/ast"
	"regexp"
	"strings"
)

// MetricLabel pins the metric-name discipline: every name passed to
// the internal/metrics registration surface must be a string literal
// matching the documented snake_case scheme. The benchmark program
// (benchmark/, which reads counters by name), bvcbench's -metrics-out
// golden file and Snapshot.Diff all key on metric names; a computed or
// irregular name would produce snapshots that differ between builds and
// make the benchmark read 0 silently.
var MetricLabel = &Analyzer{
	Name: "metriclabel",
	Doc: "metric names passed to internal/metrics must be snake_case string literals " +
		"(keeps the golden metrics file and the benchmark's counter reads stable)",
	Run: runMetricLabel,
}

// metricNamePattern is the documented scheme: lowercase snake_case
// segments, e.g. consensus_runs_total, batch_trial_seconds.
var metricNamePattern = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)*$`)

// metricRegistrars are the internal/metrics functions and methods
// whose first argument is a metric name.
var metricRegistrars = map[string]bool{
	"Counter":          true,
	"Gauge":            true,
	"Histogram":        true,
	"DefaultCounter":   true,
	"DefaultGauge":     true,
	"DefaultHistogram": true,
	"RegisterFunc":     true,
}

func runMetricLabel(pass *Pass) error {
	info := pass.TypesInfo
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			fn := calleeFunc(info, call)
			if fn == nil || fn.Pkg() == nil || !metricRegistrars[fn.Name()] {
				return true
			}
			if !strings.HasSuffix(fn.Pkg().Path(), "internal/metrics") {
				return true
			}
			name, isLit := stringLit(call.Args[0])
			if !isLit {
				pass.Reportf(call.Args[0].Pos(),
					"metric name passed to metrics.%s must be a string literal so golden snapshots stay diffable", fn.Name())
				return true
			}
			if !metricNamePattern.MatchString(name) {
				pass.Reportf(call.Args[0].Pos(),
					"metric name %q violates the snake_case scheme (want %s)", name, metricNamePattern)
			}
			return true
		})
	}
	return nil
}
