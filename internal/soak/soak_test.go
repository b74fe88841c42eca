package soak

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	bvc "relaxedbvc"
	"relaxedbvc/internal/simtest"
)

// testOptions is a small but structurally complete soak: several base
// blocks per shard, and a corpus that every block with a degradation
// writes a shrunk reproducer into (Strict).
func testOptions(dir string) Options {
	return Options{
		SeedBudget: 600,
		Shards:     4,
		Regime:     "mixed",
		Strict:     true,
		Corpus:     filepath.Join(dir, "corpus"),
		blockSize:  32,
	}
}

// verdictMap flattens a soak's committed records into (block, config,
// seed) → outcome.
func verdictMap(blocks []BlockRecord) map[string]byte {
	out := map[string]byte{}
	for _, rec := range blocks {
		for i, seed := range rec.Seeds {
			out[fmt.Sprintf("%d#%s#%d", rec.Block, rec.Cfg.Key(), seed)] = rec.Outcomes[i]
		}
	}
	return out
}

func corpusNames(t *testing.T, dir string) []string {
	t.Helper()
	names, err := corpusFiles(dir)
	if err != nil {
		t.Fatalf("list corpus: %v", err)
	}
	return names
}

func encodeSummary(t *testing.T, s *Summary) string {
	t.Helper()
	b, err := s.Encode()
	if err != nil {
		t.Fatalf("encode summary: %v", err)
	}
	return string(b)
}

// cancelAfter is a progress log that cancels the soak's context when
// the n-th block is about to run.
type cancelAfter struct {
	n      int
	cancel context.CancelFunc
}

func (c *cancelAfter) Write(p []byte) (int, error) {
	if strings.HasPrefix(string(p), "soak: block ") {
		if c.n--; c.n == 0 {
			c.cancel()
		}
	}
	return len(p), nil
}

// TestSoakDeterministic is the engine's core contract: the same options
// give the byte-identical summary and corpus, the shard count changes
// no seed's verdict, no corpus file and no summary byte, and a
// cancelled soak reports ErrInterrupted.
func TestSoakDeterministic(t *testing.T) {
	runSoak := func(opt Options) (*coordinator, *Summary) {
		t.Helper()
		co, err := run(context.Background(), opt)
		if err != nil {
			t.Fatalf("soak at %d shards: %v", opt.Shards, err)
		}
		return co, buildSummary(co.blocks, co.opt)
	}
	dirA, dirB, dir1 := t.TempDir(), t.TempDir(), t.TempDir()
	coA, sumA := runSoak(testOptions(dirA))
	if sumA.SeedsRun != 600 || sumA.CorpusFailingWritten == 0 {
		t.Fatalf("soak ran %d seeds and wrote %d reproducers; the test needs 600 and at least one",
			sumA.SeedsRun, sumA.CorpusFailingWritten)
	}
	_, sumB := runSoak(testOptions(dirB))
	if a, b := encodeSummary(t, sumA), encodeSummary(t, sumB); a != b {
		t.Fatalf("two soaks of the same options differ:\n--- first\n%s\n--- second\n%s", a, b)
	}
	opt1 := testOptions(dir1)
	opt1.Shards = 1
	co1, sum1 := runSoak(opt1)
	if a, b := encodeSummary(t, sumA), encodeSummary(t, sum1); a != b {
		t.Fatalf("the summary depends on the shard count:\n--- 4 shards\n%s\n--- 1 shard\n%s", a, b)
	}

	want := verdictMap(coA.blocks)
	got := verdictMap(co1.blocks)
	if len(got) != len(want) {
		t.Fatalf("verdict maps differ in size: %d at 4 shards, %d at 1", len(want), len(got))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("verdict drift at %s: %q at 4 shards, %q at 1", k, v, got[k])
		}
	}
	namesA := corpusNames(t, filepath.Join(dirA, "corpus"))
	if len(namesA) == 0 {
		t.Fatal("the soak wrote no corpus file")
	}
	corpusA := strings.Join(namesA, ",")
	for _, dir := range []string{dirB, dir1} {
		if c := strings.Join(corpusNames(t, filepath.Join(dir, "corpus")), ","); c != corpusA {
			t.Fatalf("corpus drift:\nwant: %s\ngot:  %s", corpusA, c)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opt := testOptions(t.TempDir())
	opt.Log = &cancelAfter{n: 5, cancel: cancel}
	if _, err := Run(ctx, opt); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("cancelled soak: got %v, want ErrInterrupted", err)
	}
}

// TestCorpusRoundTrip covers write/reload idempotence, replay of a
// recorded corpus, divergence detection, and stale pruning.
func TestCorpusRoundTrip(t *testing.T) {
	dir := t.TempDir()
	e := &Entry{
		Kind: KindFailing, Seed: 42,
		Cfg:      JobConfig{Regime: "out-of-model", Strict: true, Transport: TransportSim},
		Protocol: "exact", Outcome: OutcomeDegraded, Signature: "sig",
		ReplayConfirmed: true,
	}
	name, isNew, err := WriteEntry(dir, e)
	if err != nil || !isNew {
		t.Fatalf("first write: name=%s isNew=%v err=%v", name, isNew, err)
	}
	name2, isNew2, err := WriteEntry(dir, e)
	if err != nil || isNew2 || name2 != name {
		t.Fatalf("rewrite not idempotent: name=%s isNew=%v err=%v", name2, isNew2, err)
	}
	_, loaded, err := LoadCorpus(dir)
	if err != nil || len(loaded) != 1 {
		t.Fatalf("load: %d entries, err=%v", len(loaded), err)
	}
	got, err := loaded[0].encode()
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("round-trip drift:\n%s\n---\n%s", got, want)
	}
}

// TestWriteEntryRejectsEditedFile: a file under an entry's
// content-addressed name that holds other bytes is an error, not proof
// that the entry is already present.
func TestWriteEntryRejectsEditedFile(t *testing.T) {
	dir := t.TempDir()
	e := &Entry{
		Kind: KindFailing, Seed: 42,
		Cfg:      JobConfig{Regime: "out-of-model", Strict: true, Transport: TransportSim},
		Protocol: "exact", Outcome: OutcomeDegraded, Signature: "sig",
	}
	name, _, err := WriteEntry(dir, e)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	edited := *e
	edited.Signature = "EDITED" + e.Signature
	data, err := edited.encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, isNew, err := WriteEntry(dir, e); !errors.Is(err, ErrCorpus) || isNew {
		t.Fatalf("rewrite over edited file: isNew=%v err=%v, want ErrCorpus", isNew, err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != string(data) {
		t.Fatalf("edited file changed: %q, %v", got, err)
	}
}

// TestSoakCorpusPhaseChecksEntries: a soak's corpus blocks hold each
// verdict to the entry's record, as a replay does. An entry whose
// signature was edited fails the soak with ErrReplayDiverged; a stale
// one does not.
func TestSoakCorpusPhaseChecksEntries(t *testing.T) {
	// corpus/fail-01a49aa4ae4473c4.json, a strict out-of-model scalar
	// seed that degrades.
	recorded := &Entry{
		Kind: KindFailing, Seed: -4937271565411561616,
		Cfg: JobConfig{Regime: "out-of-model", Protocols: []string{"scalar"},
			Strict: true, Transport: TransportSim},
		Protocol: "scalar", Outcome: OutcomeDegraded,
		Signature: `proto=scalar err="sched: fault pattern violated the delivery model: ` +
			`lockstep synchrony broken (12 dropped, 0 delayed, 0 partition-held, 0 lost)"`,
		ReplayConfirmed: true,
	}
	if name, err := recorded.Filename(); err != nil || name != "fail-01a49aa4ae4473c4.json" {
		t.Fatalf("recorded entry encodes as %s (%v), not as its corpus file", name, err)
	}
	stale := &Entry{
		Kind: KindFailing, Seed: 1,
		Cfg:      JobConfig{Regime: "none", Transport: TransportSim},
		Protocol: "exact", Outcome: OutcomeDegraded, Signature: "gone",
	}
	soakWith := func(entries ...*Entry) error {
		dir := t.TempDir()
		for _, e := range entries {
			if _, _, err := WriteEntry(dir, e); err != nil {
				t.Fatal(err)
			}
		}
		_, err := Run(context.Background(), Options{SeedBudget: 16, Regime: "none", Corpus: dir})
		return err
	}
	if err := soakWith(recorded, stale); err != nil {
		t.Fatalf("soak over a reproducing and a stale entry: %v", err)
	}
	edited := *recorded
	edited.Signature = "EDITED" + recorded.Signature
	if err := soakWith(&edited); !errors.Is(err, ErrReplayDiverged) {
		t.Fatalf("soak over an edited entry: got %v, want ErrReplayDiverged", err)
	}
}

// seedCorpus runs a tiny strict out-of-model soak, which reliably
// shrinks degrading seeds into failing corpus entries.
func seedCorpus(t *testing.T, dir string) string {
	t.Helper()
	corpus := filepath.Join(dir, "corpus")
	sum, err := Run(context.Background(), Options{
		SeedBudget: 60, Shards: 2, blockSize: 20,
		Regime: "out-of-model", Strict: true,
		Corpus: corpus,
	})
	if err != nil {
		t.Fatalf("seeding soak: %v", err)
	}
	if sum.CorpusFailingWritten == 0 {
		t.Fatalf("strict out-of-model soak wrote no failing entries:\n%s", encodeSummary(t, sum))
	}
	return corpus
}

func TestCorpusReplayReproduces(t *testing.T) {
	corpus := seedCorpus(t, t.TempDir())
	results, err := ReplayCorpus(context.Background(), corpus, false)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	for _, r := range results {
		if r.Verdict != ReplayReproduced {
			t.Fatalf("entry %s: verdict %s (%s), want reproduced", r.File, r.Verdict, r.Detail)
		}
	}
}

func TestCorpusReplayDetectsDivergence(t *testing.T) {
	corpus := seedCorpus(t, t.TempDir())
	names := corpusNames(t, corpus)
	var failName string
	for _, n := range names {
		if strings.HasPrefix(n, "fail-") {
			failName = n
			break
		}
	}
	if failName == "" {
		t.Fatalf("no failing entry in %v", names)
	}
	path := filepath.Join(corpus, failName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var e Entry
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatal(err)
	}
	e.Signature = "tampered: " + e.Signature
	tampered, err := json.Marshal(&e)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, tampered, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = ReplayCorpus(context.Background(), corpus, false)
	if !errors.Is(err, ErrReplayDiverged) {
		t.Fatalf("tampered replay: got %v, want ErrReplayDiverged", err)
	}
}

func TestCorpusReplayPrunesStale(t *testing.T) {
	dir := t.TempDir()
	// Seed 1 under a clean regime passes; an entry claiming it degrades
	// is stale.
	stale := &Entry{
		Kind: KindFailing, Seed: 1,
		Cfg:      JobConfig{Regime: "none", Transport: TransportSim},
		Protocol: "exact", Outcome: OutcomeDegraded, Signature: "gone",
	}
	name, _, err := WriteEntry(dir, stale)
	if err != nil {
		t.Fatal(err)
	}
	results, err := ReplayCorpus(context.Background(), dir, true)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if len(results) != 1 || results[0].Verdict != ReplayStale {
		t.Fatalf("verdicts %+v, want one stale", results)
	}
	if _, err := os.Stat(filepath.Join(dir, name)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("stale entry not pruned: %v", err)
	}
}

func TestOptionsValidation(t *testing.T) {
	cases := []Options{
		{},                                          // no budget
		{SeedBudget: 10, Regime: "sideways"},        // bad regime
		{SeedBudget: 10, Transport: "carrier"},      // bad transport
		{SeedBudget: 10, Shards: -3},                // negative shards
		{SeedBudget: 10, Duration: time.Minute},     // budget and duration
		{SeedBudget: 10, Protocols: []string{"xx"}}, // bad protocol
	}
	for i, opt := range cases {
		if _, err := Run(context.Background(), opt); !errors.Is(err, ErrConfig) {
			t.Fatalf("case %d: got %v, want ErrConfig", i, err)
		}
	}
}

func TestMeshSoakCrossChecks(t *testing.T) {
	for _, protos := range [][]string{{"delta-relaxed", "exact", "scalar"}, {"convex", "acs"}} {
		sum, err := Run(context.Background(), Options{
			SeedBudget: 48, Shards: 2, blockSize: 16,
			Regime: "none", Transport: TransportMesh, Protocols: protos,
		})
		if err != nil {
			t.Fatal(err)
		}
		if sum.MeshCompared == 0 {
			t.Fatalf("%v: mesh soak compared no seeds:\n%s", protos, encodeSummary(t, sum))
		}
		if sum.Outcomes.Failed != 0 {
			t.Fatalf("%v: mesh divergence reported:\n%s", protos, encodeSummary(t, sum))
		}
		for _, p := range protos {
			if sum.PerProtocol[p].Pass == 0 {
				t.Fatalf("%v: no passing %s seed to compare:\n%s", protos, p, encodeSummary(t, sum))
			}
		}
	}
}

// TestGateExitRule pins bvcsoak's exit rule end to end from one seed's
// checked report: the worker's classification, the block record and
// the summary built from it, then Summary.Gate (exit 1 on an error).
func TestGateExitRule(t *testing.T) {
	spec := bvc.Spec{Protocol: bvc.ProtocolExact}
	degraded := &simtest.Report{Spec: spec, Err: fmt.Errorf("%w: drop", bvc.ErrDeliveryViolated), Graceful: true}
	violated := &simtest.Report{Spec: spec, Result: &bvc.Result{}, Violations: []simtest.Violation{{Invariant: "agreement", Process: -1}}}
	clean := &simtest.Report{Spec: spec, Result: &bvc.Result{}}
	cases := []struct {
		name       string
		regime     string
		strict     bool
		rep        *simtest.Report
		unreplayed bool // the shrunk reproducer's replay diverged
		want       int
	}{
		{"unshrunk failure", "out-of-model", true, degraded, true, 1},
		{"genuine failure", "out-of-model", false, violated, false, 1},
		{"within-model degradation", "within-model", false, degraded, false, 1},
		{"strict out-of-model degradations", "out-of-model", true, degraded, false, 0},
		{"clean", "mixed", false, clean, false, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			const seed = 6
			cfg := JobConfig{Regime: c.regime, Strict: c.strict, Transport: TransportSim}
			regime, err := ParseRegime(c.regime)
			if err != nil {
				t.Fatal(err)
			}
			v := classify(seed, simtest.EffectiveRegime(seed, regime), c.rep)
			br := &BlockResult{Verdicts: []SeedVerdict{v}}
			if failing(v, c.strict) {
				br.MinFailing = &FailingSeed{Seed: seed, Cfg: cfg, Outcome: v.Outcome, ReplayConfirmed: !c.unreplayed}
			}
			rec := newRecord(blockKindBase, &Job{Seeds: []int64{seed}, Cfg: cfg}, br)
			sum := buildSummary([]BlockRecord{*rec}, Options{Shards: 1})
			got := 0
			if err := sum.Gate(); err != nil {
				got = 1
			}
			if got != c.want {
				t.Fatalf("exit %d, want %d (verdict %s, gate %v)", got, c.want, v.Outcome, sum.Gate())
			}
		})
	}
}

// TestSummaryStableAcrossReEncode guards the stable-JSON contract the
// CI cache keys and artifact diffs rely on.
func TestSummaryStableAcrossReEncode(t *testing.T) {
	dir := t.TempDir()
	opt := testOptions(dir)
	opt.SeedBudget = 96
	sum, err := Run(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	first := encodeSummary(t, sum)
	var loaded Summary
	if err := json.Unmarshal([]byte(first), &loaded); err != nil {
		t.Fatal(err)
	}
	if second := encodeSummary(t, &loaded); second != first {
		t.Fatalf("summary not stable across decode/encode:\n%s\n---\n%s", first, second)
	}
	names := make([]string, 0)
	for name := range sum.PerProtocol {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) == 0 {
		t.Fatal("no per-protocol counters")
	}
}

func TestMeshDiffComparesRangeHistory(t *testing.T) {
	sim := &bvc.Result{Outputs: []bvc.Vector{bvc.NewVector(1)}, RangeHistory: []float64{2, 1, 0.5}}
	same := *sim
	same.RangeHistory = []float64{2, 1, 0.5}
	moved := *sim
	moved.RangeHistory = []float64{2, 1, 0.5000000000000001}
	short := *sim
	short.RangeHistory = nil
	for _, c := range []struct {
		mesh *bvc.Result
		want string
	}{{&same, ""}, {&moved, "range at round 2"}, {&short, "range history mesh=0 rounds sim=3"}} {
		if got := meshDiff(sim, c.mesh, 1); !strings.HasPrefix(got, c.want) || (c.want == "") != (got == "") {
			t.Errorf("meshDiff = %q, want %q", got, c.want)
		}
	}
}
