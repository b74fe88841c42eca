package soak

import (
	"strings"
	"testing"

	"relaxedbvc/internal/metrics"
)

// TestMetricNamesAreSnakeCase walks every metric name in the tree: the
// ones the library and its kernels register when this package (and so
// the root package) is loaded, plus the lazily registered per-protocol
// soak counters. Each is re-registered in a fresh registry, whose name
// check panics on anything but snake_case.
func TestMetricNamesAreSnakeCase(t *testing.T) {
	for _, p := range protocolNames {
		protoCounter(p.name)
	}
	protoCounter("no-such-protocol")
	s := metrics.Snap()

	perProto := 0
	for name := range s.Counters {
		if strings.HasPrefix(name, "soak_runs_") {
			perProto++
		}
	}
	// Every protocol but acs has its own counter; acs and unknown
	// names share soak_runs_other_total.
	if want := len(protocolNames); perProto != want {
		t.Fatalf("snapshot has %d soak_runs_* counters, want %d", perProto, want)
	}

	r := metrics.NewRegistry()
	for name := range s.Counters {
		r.Counter(name)
	}
	for name := range s.Gauges {
		r.Gauge(name)
	}
	for name := range s.Histograms {
		r.Histogram(name, nil)
	}
	if n := len(s.Counters) + len(s.Gauges) + len(s.Histograms); n < 50 {
		t.Fatalf("only %d metrics registered; the library's package-level metrics are missing", n)
	}
}
