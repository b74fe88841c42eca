// Package metrics is the library's dependency-free observability layer:
// a concurrency-safe registry of named counters, gauges and fixed-bucket
// histograms, with stable JSON snapshots.
//
// Every layer of the system publishes into the process-wide Default
// registry: the consensus engines (runs, rounds, messages, Byzantine
// drops, EIG tree nodes, per-round wall time), the batch engine (queue
// depth, trial latency, panics, cancellations), and the geometry kernels
// (LP solves and pivot counts, solver iterations, sync.Pool churn). Snapshots back the per-experiment metrics tables of
// internal/report, bvcbench's -metrics-out JSON document, and the
// per-layer counters of the benchmark program (benchmark/).
//
// Counters and histograms are cumulative and monotone; Snapshot.Diff
// subtracts them to isolate one experiment's contribution. Gauges are
// point-in-time.
//
// Metric names follow one scheme, lowercase snake_case
// (consensus_runs_total, batch_trial_seconds): the benchmark program
// reads counters by name, and bvcbench's golden metrics file and
// Snapshot.Diff key on them. A Registry checks each name when it first
// creates the metric and panics on a bad one, as expvar.Publish does
// on a reused name.
package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotone cumulative counter. The zero value is ready to
// use, but counters are normally obtained from a Registry so they appear
// in snapshots.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 to keep the counter monotone; negative
// deltas are ignored).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) reset() { c.v.Store(0) }

// Gauge is a point-in-time integer value (queue depths, pool sizes).
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds n (which may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) reset() { g.v.Store(0) }

// Histogram is a fixed-bucket cumulative histogram. Bucket layouts are
// chosen at registration time and never change, so two snapshots of the
// same histogram are always field-compatible (the property the bench
// guard and the golden-file tests rely on).
type Histogram struct {
	bounds  []float64 // upper bounds, ascending; implicit +Inf last bucket
	counts  []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-updated
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, new) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

func (h *Histogram) reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.count.Store(0)
	h.sumBits.Store(0)
}

// snapshot returns a point-in-time copy. Concurrent Observe calls may
// straddle the reads; each observation is atomic, so the snapshot is a
// consistent-enough view for reporting (counts never decrease).
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:   h.count.Load(),
		Sum:     h.Sum(),
		Buckets: make([]Bucket, len(h.counts)),
	}
	for i := range h.counts {
		ub := math.Inf(1)
		if i < len(h.bounds) {
			ub = h.bounds[i]
		}
		s.Buckets[i] = Bucket{UpperBound: ub, Count: h.counts[i].Load()}
	}
	return s
}

// Bucket is one histogram bucket: the count of observations <= UpperBound
// and above the previous bucket's bound.
type Bucket struct {
	UpperBound float64 `json:"le"`
	Count      int64   `json:"count"`
}

// MarshalJSON renders +Inf (not representable in JSON numbers) as the
// string "+Inf", keeping the document machine-readable and stable.
func (b Bucket) MarshalJSON() ([]byte, error) {
	type alias struct {
		UpperBound any   `json:"le"`
		Count      int64 `json:"count"`
	}
	a := alias{UpperBound: b.UpperBound, Count: b.Count}
	if math.IsInf(b.UpperBound, 1) {
		a.UpperBound = "+Inf"
	}
	return json.Marshal(a)
}

// HistogramSnapshot is a point-in-time copy of one histogram.
type HistogramSnapshot struct {
	Count   int64    `json:"count"`
	Sum     float64  `json:"sum"`
	Buckets []Bucket `json:"buckets"`
}

// Snapshot is a point-in-time copy of a registry. It marshals to JSON
// with stable field order: encoding/json emits map keys sorted, and
// bucket layouts are fixed per histogram.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Diff returns the change from prev to s: counters and histograms are
// subtracted (cumulative semantics), gauges keep s's point-in-time value.
// Names missing from prev are treated as starting at zero.
func (s *Snapshot) Diff(prev *Snapshot) *Snapshot {
	d := &Snapshot{
		Counters:   make(map[string]int64, len(s.Counters)),
		Gauges:     make(map[string]int64, len(s.Gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(s.Histograms)),
	}
	for k, v := range s.Counters {
		d.Counters[k] = v - prev.Counters[k]
	}
	for k, v := range s.Gauges {
		d.Gauges[k] = v
	}
	for k, v := range s.Histograms {
		p, ok := prev.Histograms[k]
		if !ok || len(p.Buckets) != len(v.Buckets) {
			d.Histograms[k] = v
			continue
		}
		h := HistogramSnapshot{
			Count:   v.Count - p.Count,
			Sum:     v.Sum - p.Sum,
			Buckets: make([]Bucket, len(v.Buckets)),
		}
		for i := range v.Buckets {
			h.Buckets[i] = Bucket{UpperBound: v.Buckets[i].UpperBound, Count: v.Buckets[i].Count - p.Buckets[i].Count}
		}
		d.Histograms[k] = h
	}
	return d
}

// Registry is a named collection of metrics. All methods are safe for
// concurrent use; metric handles are get-or-create, so package init order
// never matters.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// namePattern is the metric-name scheme: snake_case segments of
// lowercase letters and digits, starting with a letter.
var namePattern = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)*$`)

// checkName panics unless name follows namePattern. Counter, Gauge and
// Histogram call it only when they create the metric, so lookups of an
// existing name skip it.
func checkName(name string) {
	if !namePattern.MatchString(name) {
		panic(fmt.Sprintf("metrics: name %q is not snake_case (want %s)", name, namePattern))
	}
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. It
// panics if a new name is not snake_case.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		checkName(name)
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. It panics
// if a new name is not snake_case.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		checkName(name)
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds on first use (later calls reuse the first layout).
// It panics if a new name is not snake_case.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		checkName(name)
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Snapshot returns a point-in-time copy of every metric in the registry.
func (r *Registry) Snapshot() *Snapshot {
	r.mu.Lock()
	counters := make([]struct {
		name string
		c    *Counter
	}, 0, len(r.counters))
	for n, c := range r.counters {
		counters = append(counters, struct {
			name string
			c    *Counter
		}{n, c})
	}
	gauges := make([]struct {
		name string
		g    *Gauge
	}, 0, len(r.gauges))
	for n, g := range r.gauges {
		gauges = append(gauges, struct {
			name string
			g    *Gauge
		}{n, g})
	}
	hists := make([]struct {
		name string
		h    *Histogram
	}, 0, len(r.hists))
	for n, h := range r.hists {
		hists = append(hists, struct {
			name string
			h    *Histogram
		}{n, h})
	}
	r.mu.Unlock()

	s := &Snapshot{
		Counters:   make(map[string]int64, len(counters)),
		Gauges:     make(map[string]int64, len(gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(hists)),
	}
	for _, e := range counters {
		s.Counters[e.name] = e.c.Value()
	}
	for _, e := range gauges {
		s.Gauges[e.name] = e.g.Value()
	}
	for _, e := range hists {
		s.Histograms[e.name] = e.h.snapshot()
	}
	return s
}

// Reset zeroes every counter, gauge and histogram in place (existing
// handles stay valid).
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.reset()
	}
	for _, g := range r.gauges {
		g.reset()
	}
	for _, h := range r.hists {
		h.reset()
	}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry every instrumented package
// publishes into.
func Default() *Registry { return defaultRegistry }

// DefaultCounter returns a counter in the default registry.
func DefaultCounter(name string) *Counter { return defaultRegistry.Counter(name) }

// DefaultGauge returns a gauge in the default registry.
func DefaultGauge(name string) *Gauge { return defaultRegistry.Gauge(name) }

// DefaultHistogram returns a histogram in the default registry.
func DefaultHistogram(name string, bounds []float64) *Histogram {
	return defaultRegistry.Histogram(name, bounds)
}

// Snap snapshots the default registry.
func Snap() *Snapshot { return defaultRegistry.Snapshot() }

// ResetDefault zeroes the default registry (tests and benchmark
// harnesses).
func ResetDefault() { defaultRegistry.Reset() }

// TimeBuckets is the fixed bucket layout (seconds) for wall-time
// histograms: 1µs to 10s in a 1-2.5-5 decade ladder.
func TimeBuckets() []float64 {
	return []float64{
		1e-6, 2.5e-6, 5e-6,
		1e-5, 2.5e-5, 5e-5,
		1e-4, 2.5e-4, 5e-4,
		1e-3, 2.5e-3, 5e-3,
		1e-2, 2.5e-2, 5e-2,
		1e-1, 2.5e-1, 5e-1,
		1, 2.5, 5, 10,
	}
}

// CountBuckets is the fixed bucket layout for small-count histograms
// (pivots per solve, messages per round): powers of two up to 64k.
func CountBuckets() []float64 {
	b := make([]float64, 0, 17)
	for v := 1.0; v <= 65536; v *= 2 {
		b = append(b, v)
	}
	return b
}
