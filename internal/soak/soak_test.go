package soak

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	bvc "relaxedbvc"
	"relaxedbvc/internal/simtest"
)

// testOptions is a small but structurally complete soak: several base
// blocks per shard, at least one mutation wave, and a corpus.
func testOptions(dir string) Options {
	return Options{
		SeedBudget: 600,
		Shards:     4,
		BlockSize:  32,
		Regime:     "mixed",
		Manifest:   filepath.Join(dir, "manifest.json"),
		Corpus:     filepath.Join(dir, "corpus"),
	}
}

// verdictMap flattens a manifest into seed-order (blockID, seedIdx) →
// outcome, keyed textually so maps compare with reflect-free equality.
func verdictMap(t *testing.T, manifest string) map[string]byte {
	t.Helper()
	st, err := loadManifest(manifest)
	if err != nil {
		t.Fatalf("load manifest: %v", err)
	}
	if st == nil {
		t.Fatalf("no manifest at %s", manifest)
	}
	out := map[string]byte{}
	for _, rec := range st.Blocks {
		for i, seed := range rec.RecordSeeds() {
			key := rec.Cfg.Key() + "#" + string(rune(rec.Block)) + "#" + itoa64(seed)
			out[key] = rec.Outcomes[i]
		}
	}
	return out
}

func itoa64(v int64) string {
	b, _ := json.Marshal(v) //nolint:errcheck // int64 cannot fail to marshal
	return string(b)
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

// TestKillResumeByteIdentical is the engine's core contract: a soak
// killed mid-run and resumed produces the byte-identical summary, the
// identical seed→verdict map, and the identical corpus as one that was
// never interrupted.
func TestKillResumeByteIdentical(t *testing.T) {
	ctrlDir := t.TempDir()
	ctrl, err := Run(context.Background(), testOptions(ctrlDir))
	if err != nil {
		t.Fatalf("control run: %v", err)
	}
	want := encodeSummary(t, ctrl)
	if ctrl.SeedsRun != 600 {
		t.Fatalf("control ran %d seeds, want 600", ctrl.SeedsRun)
	}
	if ctrl.MutationSeeds == 0 {
		t.Fatalf("control spent no mutation seeds; the test must cover the mutation planner")
	}

	// Kill: cancel the context from the commit hook after five durable
	// commits, mid-phase.
	killDir := t.TempDir()
	killCtx, cancel := context.WithCancel(context.Background())
	opt := testOptions(killDir)
	commits := 0
	opt.CommitHook = func(*BlockRecord) {
		commits++
		if commits == 5 {
			cancel()
		}
	}
	if _, err := Run(killCtx, opt); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted run: got %v, want ErrInterrupted", err)
	}
	if commits < 5 {
		t.Fatalf("only %d commits before cancellation", commits)
	}

	// Resume with a fresh context and no hook.
	opt = testOptions(killDir)
	opt.Resume = true
	resumed, err := Run(context.Background(), opt)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if got := encodeSummary(t, resumed); got != want {
		t.Fatalf("resumed summary differs from uninterrupted control:\n--- control\n%s\n--- resumed\n%s", want, got)
	}

	ctrlVerdicts := verdictMap(t, testOptions(ctrlDir).Manifest)
	killVerdicts := verdictMap(t, opt.Manifest)
	if len(ctrlVerdicts) != len(killVerdicts) {
		t.Fatalf("verdict maps differ in size: %d vs %d", len(ctrlVerdicts), len(killVerdicts))
	}
	for k, v := range ctrlVerdicts {
		if killVerdicts[k] != v {
			t.Fatalf("verdict drift at %s: control %q, resumed %q", k, v, killVerdicts[k])
		}
	}

	ctrlCorpus := corpusNames(t, filepath.Join(ctrlDir, "corpus"))
	killCorpus := corpusNames(t, filepath.Join(killDir, "corpus"))
	if strings.Join(ctrlCorpus, ",") != strings.Join(killCorpus, ",") {
		t.Fatalf("corpus drift:\ncontrol: %v\nresumed: %v", ctrlCorpus, killCorpus)
	}

	// Resuming a *finished* soak replays everything and stays identical.
	again, err := Run(context.Background(), opt)
	if err != nil {
		t.Fatalf("resume of finished soak: %v", err)
	}
	if got := encodeSummary(t, again); got != want {
		t.Fatalf("second resume drifted:\n%s", got)
	}
}

// TestCorpusRoundTrip covers write/reload idempotence, replay of a
// recorded corpus, divergence detection, and stale pruning.
func TestCorpusRoundTrip(t *testing.T) {
	dir := t.TempDir()
	e := &Entry{
		Kind: KindFailing, Seed: 42,
		Cfg:      JobConfig{Regime: "out-of-model", Strict: true, Transport: TransportSim},
		Protocol: "exact", Feature: "f", Outcome: OutcomeDegraded, Signature: "sig",
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
	loaded, err := LoadCorpus(dir)
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

// seedCorpus runs a tiny strict out-of-model soak, which reliably
// shrinks degrading seeds into failing corpus entries.
func seedCorpus(t *testing.T, dir string) string {
	t.Helper()
	corpus := filepath.Join(dir, "corpus")
	sum, err := Run(context.Background(), Options{
		SeedBudget: 60, Shards: 2, BlockSize: 20,
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
	results, err := ReplayCorpus(context.Background(), corpus, WorkerOptions{}, false)
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

	_, err = ReplayCorpus(context.Background(), corpus, WorkerOptions{}, false)
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
		Protocol: "exact", Feature: "f", Outcome: OutcomeDegraded, Signature: "gone",
	}
	name, _, err := WriteEntry(dir, stale)
	if err != nil {
		t.Fatal(err)
	}
	results, err := ReplayCorpus(context.Background(), dir, WorkerOptions{}, true)
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

// TestManifestCrashSafety truncates the manifest mid-write and checks
// the loader recovers the previous checkpoint from the rotated backup.
func TestManifestCrashSafety(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "manifest.json")

	// Nothing on disk: fresh start, no error.
	st, err := loadManifest(path)
	if err != nil || st != nil {
		t.Fatalf("missing manifest: st=%v err=%v", st, err)
	}

	gen1 := &manifestState{Version: manifestVersion, CfgHash: "h", Blocks: []BlockRecord{
		{Block: 0, Kind: blockKindBase, Outcomes: "pp", SeedStart: 0, SeedCount: 2},
	}}
	if err := saveManifest(path, gen1); err != nil {
		t.Fatal(err)
	}
	gen2 := &manifestState{Version: manifestVersion, CfgHash: "h", Blocks: append(gen1.Blocks,
		BlockRecord{Block: 1, Kind: blockKindBase, Outcomes: "pd", SeedStart: 2, SeedCount: 2})}
	if err := saveManifest(path, gen2); err != nil {
		t.Fatal(err)
	}

	// Torn write: truncate the primary mid-file. The loader must fall
	// back to the rotated previous generation.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	st, err = loadManifest(path)
	if err != nil {
		t.Fatalf("recover from backup: %v", err)
	}
	if len(st.Blocks) != 1 {
		t.Fatalf("recovered %d blocks, want the 1-block previous checkpoint", len(st.Blocks))
	}

	// Corrupt primary with no backup: a hard error, not a silent fresh
	// start.
	if err := os.Remove(path + ".bak"); err != nil {
		t.Fatal(err)
	}
	if _, err := loadManifest(path); !errors.Is(err, ErrManifest) {
		t.Fatalf("corrupt-no-backup: got %v, want ErrManifest", err)
	}

	// Checksum catches single-byte corruption too.
	if err := os.WriteFile(path, append(data[:len(data)-10], '0', '}'), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadManifest(path); !errors.Is(err, ErrManifest) {
		t.Fatalf("bit-rot: got %v, want ErrManifest", err)
	}
}

func TestManifestRefusesConfigDrift(t *testing.T) {
	dir := t.TempDir()
	opt := testOptions(dir)
	opt.SeedBudget = 64
	if _, err := Run(context.Background(), opt); err != nil {
		t.Fatal(err)
	}
	opt.Resume = true
	opt.SeedBudget = 128 // different plan
	if _, err := Run(context.Background(), opt); !errors.Is(err, ErrManifest) {
		t.Fatalf("config drift: got %v, want ErrManifest", err)
	}
}

// TestWorkerProtocol drives ServeWorker over pipes: job round-trip,
// clean bye shutdown, and protocol-violation errors.
func TestWorkerProtocol(t *testing.T) {
	jobR, jobW := io.Pipe()
	resR, resW := io.Pipe()
	serveErr := make(chan error, 1)
	go func() { serveErr <- ServeWorker(context.Background(), jobR, resW, WorkerOptions{}) }()

	job := &Job{Block: 7, Seeds: []int64{1, 2, 3}, Cfg: JobConfig{Regime: "none", Transport: TransportSim}}
	res, err := roundTrip(jobW, resR, job)
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if res.Block != 7 || len(res.Verdicts) != 3 {
		t.Fatalf("result block=%d verdicts=%d", res.Block, len(res.Verdicts))
	}
	for i, v := range res.Verdicts {
		if v.Seed != job.Seeds[i] || v.Feature == "" || v.Outcome == "" {
			t.Fatalf("verdict %d incomplete: %+v", i, v)
		}
	}
	if err := writeMsg(jobW, tagBye, nil); err != nil {
		t.Fatal(err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("serve after bye: %v", err)
	}
}

func TestWorkerProtocolRejectsUnknownTag(t *testing.T) {
	jobR, jobW := io.Pipe()
	_, resW := io.Pipe()
	serveErr := make(chan error, 1)
	go func() { serveErr <- ServeWorker(context.Background(), jobR, resW, WorkerOptions{}) }()
	if err := writeMsg(jobW, "soak/bogus", map[string]int{}); err != nil {
		t.Fatal(err)
	}
	if err := <-serveErr; !errors.Is(err, ErrProto) {
		t.Fatalf("bogus tag: got %v, want ErrProto", err)
	}
}

func TestSpawnInProcWorker(t *testing.T) {
	w, err := SpawnInProc(WorkerOptions{})(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.Run(&Job{Block: 1, Seeds: []int64{5}, Cfg: JobConfig{Regime: "none", Transport: TransportSim}})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(res.Verdicts) != 1 {
		t.Fatalf("verdicts %d", len(res.Verdicts))
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestChildSeedDeterministicAndDistinct(t *testing.T) {
	seen := map[int64]bool{}
	for i := 0; i < 64; i++ {
		c := ChildSeed(12345, i)
		if c2 := ChildSeed(12345, i); c2 != c {
			t.Fatalf("ChildSeed(12345,%d) not deterministic: %d vs %d", i, c, c2)
		}
		if seen[c] {
			t.Fatalf("ChildSeed collision at i=%d", i)
		}
		seen[c] = true
	}
}

func TestOptionsValidation(t *testing.T) {
	cases := []Options{
		{},                                          // no budget
		{SeedBudget: 10, Regime: "sideways"},        // bad regime
		{SeedBudget: 10, Transport: "carrier"},      // bad transport
		{SeedBudget: 10, MutFrac: 1.5},              // bad mutation fraction
		{SeedBudget: 10, Resume: true},              // resume without manifest
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
			SeedBudget: 48, Shards: 2, BlockSize: 16,
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
			v := classify(seed, cfg, simtest.EffectiveRegime(seed, regime), c.rep)
			br := &BlockResult{Verdicts: []SeedVerdict{v}}
			if failing(v, c.strict) {
				br.MinFailing = &FailingSeed{Seed: seed, Cfg: cfg, Outcome: v.Outcome, ReplayConfirmed: !c.unreplayed}
			}
			co := &coordinator{seen: map[string]bool{}}
			rec := co.buildRecord(blockKindBase, &Job{Seeds: []int64{seed}, Cfg: cfg}, br)
			sum := buildSummary(&manifestState{Blocks: []BlockRecord{*rec}}, Options{Shards: 1})
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
