package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"testing"
)

func TestCounterGaugeHistogramBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Inc()
	c.Add(4)
	c.Add(-7) // ignored: counters are monotone
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("g")
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
	h := r.Histogram("h", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(100)
	if h.Count() != 3 {
		t.Fatalf("hist count = %d, want 3", h.Count())
	}
	if math.Abs(h.Sum()-105.5) > 1e-12 {
		t.Fatalf("hist sum = %v, want 105.5", h.Sum())
	}
	s := r.Snapshot()
	hs := s.Histograms["h"]
	want := []int64{1, 1, 1}
	for i, b := range hs.Buckets {
		if b.Count != want[i] {
			t.Fatalf("bucket %d count = %d, want %d", i, b.Count, want[i])
		}
	}
	if !math.IsInf(hs.Buckets[2].UpperBound, 1) {
		t.Fatalf("last bucket bound = %v, want +Inf", hs.Buckets[2].UpperBound)
	}
}

func TestGetOrCreateReturnsSameHandle(t *testing.T) {
	r := NewRegistry()
	if r.Counter("x") != r.Counter("x") {
		t.Fatal("Counter not idempotent")
	}
	if r.Gauge("x") != r.Gauge("x") {
		t.Fatal("Gauge not idempotent")
	}
	if r.Histogram("x", []float64{1}) != r.Histogram("x", []float64{2}) {
		t.Fatal("Histogram not idempotent")
	}
}

// registrars creates one metric of each kind under a name.
var registrars = []struct {
	kind string
	reg  func(r *Registry, name string)
}{
	{"Counter", func(r *Registry, name string) { r.Counter(name) }},
	{"Gauge", func(r *Registry, name string) { r.Gauge(name) }},
	{"Histogram", func(r *Registry, name string) { r.Histogram(name, CountBuckets()) }},
}

// TestRegistryRejectsBadNames pins the snake_case scheme at
// registration: every bad name panics through every registrar, and
// every good name registers.
func TestRegistryRejectsBadNames(t *testing.T) {
	good := []string{"a", "runs_total", "k1_async", "lp_pivots_per_solve", "x2"}
	bad := []string{"_leading", "double__underscore", "Upper", "has-dash", "", "trailing_", "9lives", "sp ace"}
	for _, rg := range registrars {
		for _, name := range good {
			rg.reg(NewRegistry(), name)
		}
		for _, name := range bad {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s(%q) did not panic", rg.kind, name)
					}
				}()
				rg.reg(NewRegistry(), name)
			}()
		}
	}
}

// TestConcurrentHammer drives counters, gauges and histograms from many
// goroutines while snapshots are taken concurrently; run under -race in
// CI it proves the registry is data-race free, and the final counts
// prove no increment is lost.
func TestConcurrentHammer(t *testing.T) {
	r := NewRegistry()
	const workers = 32
	const opsPer = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("hammer_total")
			g := r.Gauge("hammer_depth")
			h := r.Histogram("hammer_seconds", TimeBuckets())
			for i := 0; i < opsPer; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i%1000) * 1e-5)
				g.Add(-1)
			}
		}(w)
	}
	// Concurrent readers.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s := r.Snapshot()
				if s.Counters["hammer_total"] < 0 {
					t.Error("negative counter")
					return
				}
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	if got := s.Counters["hammer_total"]; got != workers*opsPer {
		t.Fatalf("counter = %d, want %d", got, workers*opsPer)
	}
	h := s.Histograms["hammer_seconds"]
	if h.Count != workers*opsPer {
		t.Fatalf("hist count = %d, want %d", h.Count, workers*opsPer)
	}
	var bucketSum int64
	for _, b := range h.Buckets {
		bucketSum += b.Count
	}
	if bucketSum != h.Count {
		t.Fatalf("bucket sum %d != count %d", bucketSum, h.Count)
	}
	if s.Gauges["hammer_depth"] != 0 {
		t.Fatalf("gauge = %d, want 0", s.Gauges["hammer_depth"])
	}
}

func TestSnapshotDiff(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	h := r.Histogram("h", []float64{1})
	g := r.Gauge("g")
	c.Add(3)
	h.Observe(0.5)
	g.Set(9)
	before := r.Snapshot()
	c.Add(2)
	h.Observe(2)
	g.Set(4)
	d := r.Snapshot().Diff(before)
	if d.Counters["c"] != 2 {
		t.Fatalf("diff counter = %d, want 2", d.Counters["c"])
	}
	if d.Gauges["g"] != 4 {
		t.Fatalf("diff gauge = %d, want 4 (point-in-time)", d.Gauges["g"])
	}
	dh := d.Histograms["h"]
	if dh.Count != 1 || dh.Buckets[0].Count != 0 || dh.Buckets[1].Count != 1 {
		t.Fatalf("diff hist = %+v, want one observation in the +Inf bucket", dh)
	}
}

func TestReset(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Add(5)
	h := r.Histogram("h", []float64{1})
	h.Observe(3)
	g := r.Gauge("g")
	g.Set(2)
	r.Reset()
	s := r.Snapshot()
	if s.Counters["c"] != 0 || s.Gauges["g"] != 0 || s.Histograms["h"].Count != 0 {
		t.Fatalf("reset left values: %+v", s)
	}
	// Old handles still work after reset.
	c.Inc()
	if r.Snapshot().Counters["c"] != 1 {
		t.Fatal("counter handle dead after reset")
	}
}

// TestSnapshotJSONStable pins the JSON shape: map keys sorted, +Inf
// bucket rendered as "+Inf", identical marshals byte-for-byte.
func TestSnapshotJSONStable(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total").Add(2)
	r.Counter("a_total").Add(1)
	r.Histogram("lat", []float64{0.1}).Observe(5)
	a, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("marshal not stable:\n%s\n%s", a, b)
	}
	want := `{"counters":{"a_total":1,"b_total":2},"gauges":{},"histograms":{"lat":{"count":1,"sum":5,"buckets":[{"le":0.1,"count":0},{"le":"+Inf","count":1}]}}}`
	if string(a) != want {
		t.Fatalf("snapshot JSON =\n%s\nwant\n%s", a, want)
	}
}

func TestServeDebug(t *testing.T) {
	DefaultCounter("debug_probe_total").Inc()
	addr, err := ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(fmt.Sprintf("http://%s/debug/vars", addr))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("/debug/vars not JSON: %v\n%s", err, body)
	}
	if _, ok := doc["relaxedbvc_metrics"]; !ok {
		t.Fatalf("expvar missing relaxedbvc_metrics: %s", body)
	}
	resp2, err := http.Get(fmt.Sprintf("http://%s/debug/pprof/cmdline", addr))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("pprof endpoint status %d", resp2.StatusCode)
	}
}
