package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

// metricName is the shape BENCHMARK.json allows for a name.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestWorkloadsEmitDeclaredMetrics runs every workload at smoke-test
// size through both passes: outputs must check out, the traced pass
// must rebuild what Run produced (runWorkload fails otherwise), and the
// emitted workload and metric names must be exactly the sets
// BENCHMARK.json declares.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	bench, err := loadBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var endToEnd, perLayer, declared, have []string
	for _, m := range bench.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range bench.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	for _, w := range bench.Workloads {
		declared = append(declared, w.Name)
	}
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if strings.Join(declared, ",") != strings.Join(have, ",") {
		t.Fatalf("workloads: BENCHMARK.json declares %v, the program has %v", declared, have)
	}
	for _, name := range append(append(append([]string{}, declared...), endToEnd...), perLayer...) {
		if !metricName.MatchString(name) {
			t.Errorf("name %q does not match %s", name, metricName)
		}
	}

	for i := range workloads {
		w := &workloads[i]
		for trace, want := range [][]string{endToEnd, perLayer} {
			o := &options{seed: 7, seconds: 1, trace: trace, tiny: true, outDir: t.TempDir()}
			rec, err := runWorkload(context.Background(), w, o)
			if err != nil {
				t.Fatalf("%s trace=%d: %v", w.name, trace, err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v failed=%d attempted=%d", w.name, trace, rec.Correct, rec.Failed, rec.Attempted)
			}
			got := sortedKeys(rec.Metrics)
			for _, name := range got {
				if !slices.Contains(want, name) {
					t.Errorf("%s trace=%d: emits %s, which BENCHMARK.json does not declare", w.name, trace, name)
				}
			}
			for _, name := range want {
				if !slices.Contains(got, name) {
					t.Errorf("%s trace=%d: BENCHMARK.json declares %s, which is not emitted", w.name, trace, name)
				}
			}
			for name, m := range rec.Metrics {
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%d: %s = %v", w.name, trace, name, m.Value)
				}
				if trace == 0 && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, name, m.Value)
				}
			}
			if trace == 1 {
				if _, err := os.Stat(filepath.Join(o.outDir, w.name+".trace.jsonl")); err != nil {
					t.Errorf("%s: no span file: %v", w.name, err)
				}
			}
		}
	}
}

// TestChunksAreReproducible: the same (seed, index) regenerates the
// same inputs, another seed does not.
func TestChunksAreReproducible(t *testing.T) {
	for _, w := range workloads {
		digest := func(seed uint64) string {
			r := w.new(seed, true)
			c, err := r.prepare(3)
			if err != nil {
				t.Fatal(err)
			}
			c.closeListeners()
			var b strings.Builder
			for _, s := range c.specs {
				fmt.Fprint(&b, s.Inputs, s.Proposals)
			}
			return b.String()
		}
		if digest(5) != digest(5) {
			t.Errorf("%s: chunk inputs differ for the same seed", w.name)
		}
		if digest(5) == digest(6) {
			t.Errorf("%s: chunk inputs equal for different seeds", w.name)
		}
	}
}

// TestCorpusWalk: a seed's walk through a family's corpus visits every
// entry once before it repeats, warm-up instances (negative t) included,
// and another seed walks another way.
func TestCorpusWalk(t *testing.T) {
	fam := batchFamilies[0]
	r := &syncRunner{seed: 5, salt: 5}
	seen := make(map[int]bool)
	for i := -3; i < corpusSize-3; i++ {
		j := r.corpusIndex(fam, i)
		if j < 0 || j >= corpusSize || seen[j] {
			t.Fatalf("instance %d is corpus entry %d: out of range or visited twice", i, j)
		}
		seen[j] = true
	}
	other := &syncRunner{seed: 6, salt: 5}
	same := 0
	for i := 0; i < 100; i++ {
		if r.corpusIndex(fam, i) == other.corpusIndex(fam, i) {
			same++
		}
	}
	if same > 5 {
		t.Errorf("seeds 5 and 6 pick the same corpus entry at %d of 100 positions", same)
	}
}

// TestPercentileRule: nearest rank, and a percentile is only trusted
// with ten samples beyond it.
func TestPercentileRule(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose: 100..1
	}
	if v, ok := percentile(xs, 0.90); v != 90 || !ok {
		t.Errorf("p90 of 1..100 = %v (trusted %v), want 90 with exactly 10 samples beyond", v, ok)
	}
	if v, ok := percentile(xs, 0.50); v != 50 || !ok {
		t.Errorf("p50 of 1..100 = %v (trusted %v), want 50", v, ok)
	}
	if _, ok := percentile(xs[:99], 0.90); ok {
		t.Error("p90 of 99 samples has only 9 beyond it and must not be trusted")
	}
	if _, ok := percentile(xs, 0.95); ok {
		t.Error("p95 of 100 samples has only 5 beyond it and must not be trusted")
	}
	if xs[0] != 100 {
		t.Error("percentile reordered its input")
	}
}

// TestQuartileSpread pins the quartiles to Python's
// statistics.quantiles(values, n=4): for 1..10 they are 2.75, 5.5 and
// 8.25.
func TestQuartileSpread(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	want := (8.25 - 2.75) / 5.5
	if got := quartileSpread(xs); math.Abs(got-want) > 1e-12 {
		t.Errorf("spread of 1..10 = %v, want %v", got, want)
	}
	if got := median(xs); got != 5.5 {
		t.Errorf("median of 1..10 = %v, want 5.5", got)
	}
}

// TestSelfTimeOverlappingChildren: a parent's self time subtracts the
// union of its children's intervals, clipped to the parent, not their
// sum.
func TestSelfTimeOverlappingChildren(t *testing.T) {
	const base = 100 // ids need not start at 0: spans of a later chunk
	spans := []span{
		{ID: 100, Parent: -1, Name: "root", Start: 0, End: 100},
		{ID: 101, Parent: 100, Name: "a", Start: 10, End: 40},
		{ID: 102, Parent: 100, Name: "b", Start: 30, End: 60},  // overlaps a
		{ID: 103, Parent: 100, Name: "c", Start: 70, End: 120}, // sticks out of the parent
		{ID: 104, Parent: 101, Name: "a1", Start: 10, End: 25},
		{ID: 105, Parent: 101, Name: "a2", Start: 25, End: 30}, // adjacent to a1
	}
	got := selfTimes(spans, base)
	want := []int64{
		100 - (50 + 30), // root: [10,60] and [70,100]
		30 - 20,         // a: [10,30]
		30, 50, 15, 5,   // leaves keep their duration
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

// TestCompareVerdicts drives -compare over hand-made reports: a change
// within the bound passes, one beyond it breaches, a noisy pairing is
// unresolved rather than passed or failed, and a changed count fails.
func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	writeFile(t, bench, `{
		"workloads": [{"name": "w"}],
		"end_to_end": [
			{"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.10},
			{"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.10},
			{"name": "msgs_per_op", "unit": "count", "better": "lower", "bound": 0.10}],
		"per_layer": [{"name": "sched.msgs_per_op", "unit": "count", "better": "lower"}]}`)
	msgsPerOp := 1000.0
	report := func(name string, ops, lat []float64, msgs float64) string {
		var lines []string
		for i := range ops {
			rec := runRecord{Workload: "w"}
			rec.Metrics = map[string]metric{
				"ops_per_s":         {ops[i], "1/s"},
				"latency_ms":        {lat[i], "ms"},
				"sched.msgs_per_op": {msgs, "count"},
				"msgs_per_op":       {msgsPerOp, "count"},
			}
			line, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			lines = append(lines, string(line))
		}
		path := filepath.Join(dir, name)
		writeFile(t, path, strings.Join(lines, "\n")+"\n")
		return path
	}
	steady := []float64{100, 101, 99, 100, 100}
	base := report("base", steady, steady, 500)

	var out bytes.Buffer
	if code := runCompare(&out, bench, base, report("same", steady, []float64{105, 106, 104, 105, 105}, 500)); code != 0 {
		t.Errorf("5%% slower latency within a 10%% bound: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := runCompare(&out, bench, base, report("slow", []float64{80, 81, 79, 80, 80}, steady, 500)); code != 1 || !strings.Contains(out.String(), "BREACH") {
		t.Errorf("20%% fewer ops/s: exit %d, want 1 with a BREACH line\n%s", code, out.String())
	}
	out.Reset()
	if code := runCompare(&out, bench, base, report("noisy", []float64{60, 100, 80, 120, 70}, steady, 500)); code != 0 || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("spread wider than the bound: exit %d, want 0 with an unresolved line\n%s", code, out.String())
	}
	out.Reset()
	if code := runCompare(&out, bench, base, report("count", steady, steady, 501)); code != 1 || !strings.Contains(out.String(), "COUNT CHANGED") {
		t.Errorf("changed message count: exit %d, want 1 with COUNT CHANGED\n%s", code, out.String())
	}

	// msgs_per_op has a bound like every end-to-end metric, but between
	// runs of one seed it is a count: one message fewer is a change too.
	msgsPerOp = 999
	out.Reset()
	if code := runCompare(&out, bench, base, report("fewer", steady, steady, 500)); code != 1 || !strings.Contains(out.String(), "COUNT CHANGED") {
		t.Errorf("msgs_per_op 1000 -> 999: exit %d, want 1 with COUNT CHANGED\n%s", code, out.String())
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
