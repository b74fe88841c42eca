package simtest_test

import (
	"context"
	"testing"

	bvc "relaxedbvc"
	"relaxedbvc/internal/simtest"
	"relaxedbvc/internal/soak"
)

// The seed sweep runs as soak blocks: GenSpec expands each seed, the
// batch engine runs them, and simtest.Classify checks every run. A
// block of seeds b..b+n-1 under JobConfig.BaseSeed = b generates the
// instances these tests have always swept.

// runBlock runs seeds cfg.BaseSeed..cfg.BaseSeed+n-1 as one soak block
// on the simulation.
func runBlock(t *testing.T, cfg soak.JobConfig, n, workers int) *soak.BlockResult {
	t.Helper()
	cfg.Transport = soak.TransportSim
	job := &soak.Job{Seeds: make([]int64, n), Cfg: cfg}
	for i := range job.Seeds {
		job.Seeds[i] = cfg.BaseSeed + int64(i)
	}
	res, err := soak.RunBlock(context.Background(), job, workers)
	if err != nil {
		t.Fatalf("RunBlock: %v", err)
	}
	return res
}

// requireAllPass fails on any seed that did not complete cleanly.
func requireAllPass(t *testing.T, res *soak.BlockResult) {
	t.Helper()
	for _, v := range res.Verdicts {
		if v.Outcome != soak.OutcomePass {
			t.Errorf("seed %d (%s): %s %s", v.Seed, v.Protocol, v.Outcome, v.Signature)
		}
	}
	if res.MinFailing != nil {
		t.Errorf("block shrank a failing seed: %+v", res.MinFailing)
	}
}

// requireTypedDegradations re-runs every non-passing seed directly and
// checks it degraded into a typed error without breaking an invariant,
// with the signature the block recorded.
func requireTypedDegradations(t *testing.T, res *soak.BlockResult, cfg soak.JobConfig) {
	t.Helper()
	fcfg, err := cfg.FuzzConfig()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Verdicts {
		if v.Outcome == soak.OutcomePass {
			continue
		}
		if v.Outcome != soak.OutcomeDegraded {
			t.Errorf("seed %d (%s): out-of-model run %s: %s", v.Seed, v.Protocol, v.Outcome, v.Signature)
			continue
		}
		rep := simtest.RunChecked(context.Background(), simtest.GenSpec(v.Seed, fcfg))
		if len(rep.Violations) > 0 {
			t.Errorf("seed %d (%s): out-of-model run emitted outputs violating invariants: %v", v.Seed, v.Protocol, rep.Violations)
		}
		if !typedError(rep.Err) {
			t.Errorf("seed %d (%s): untyped error: %v", v.Seed, v.Protocol, rep.Err)
		}
		if rep.Signature != v.Signature {
			t.Errorf("seed %d: direct signature %q, block recorded %q", v.Seed, rep.Signature, v.Signature)
		}
	}
}

func TestWithinModelSweepPasses(t *testing.T) {
	// Every within-model seed must satisfy the paper's invariants: no
	// violations, no errors, across all protocols.
	requireAllPass(t, runBlock(t, soak.JobConfig{BaseSeed: 1000, Regime: "within-model", Strict: true}, 32, 1))
}

func TestNoFaultSweepPasses(t *testing.T) {
	requireAllPass(t, runBlock(t, soak.JobConfig{BaseSeed: 2000, Regime: "none", Strict: true}, 16, 1))
}

func TestOutOfModelSweepReportsMinimalSeed(t *testing.T) {
	// Out-of-model patterns must degrade into typed errors; a strict
	// block shrinks to its minimal degrading seed and confirms its replay.
	cfg := soak.JobConfig{BaseSeed: 3000, Regime: "out-of-model", Strict: true}
	res := runBlock(t, cfg, 16, 1)
	requireTypedDegradations(t, res, cfg)
	fs := res.MinFailing
	if fs == nil {
		t.Fatal("out-of-model block found no degrading seed")
	}
	for _, v := range res.Verdicts {
		if v.Outcome != soak.OutcomePass {
			if fs.Seed != v.Seed {
				t.Fatalf("MinFailing seed %d != first degrading seed %d", fs.Seed, v.Seed)
			}
			break
		}
	}
	if !fs.ReplayConfirmed {
		t.Fatalf("minimal degrading seed %d did not replay to the same signature", fs.Seed)
	}
}

func TestACSWithinModelSweepPasses(t *testing.T) {
	// Streaming ACS seeds under within-model (duplication-only) faults
	// must seal every epoch and satisfy the extended stream invariants.
	requireAllPass(t, runBlock(t, soak.JobConfig{
		BaseSeed: 5000, Regime: "within-model", Strict: true, Protocols: []string{"acs"},
	}, 24, 1))
}

func TestACSOutOfModelDegradesTyped(t *testing.T) {
	// Drops break lockstep synchrony: ACS runs must end in typed
	// ErrDeliveryViolated degradations, never hang or emit a stream that
	// breaks the invariants.
	cfg := soak.JobConfig{BaseSeed: 6000, Regime: "out-of-model", Protocols: []string{"acs"}}
	requireTypedDegradations(t, runBlock(t, cfg, 16, 1), cfg)
}

func TestSweepBatchMatchesDirectRuns(t *testing.T) {
	// A block runs its seeds on the concurrent batch engine; at 4
	// workers every seed's full signature (outputs, δ, ACS fingerprints,
	// fault counters) must match a direct sequential run of the same
	// seed, and so must every verdict the block records.
	cfg := soak.JobConfig{BaseSeed: 4000, Regime: "mixed"}
	const n, workers = 8, 4
	res := runBlock(t, cfg, n, workers)
	fcfg, err := cfg.FuzzConfig()
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]bvc.Spec, n)
	for i := range specs {
		specs[i] = simtest.GenSpec(cfg.BaseSeed+int64(i), fcfg)
	}
	batch := bvc.RunBatch(context.Background(), bvc.BatchOptions{Workers: workers}, specs)
	for i, v := range res.Verdicts {
		direct := simtest.RunChecked(context.Background(), simtest.GenSpec(v.Seed, fcfg))
		batched := simtest.Classify(specs[i], batch[i].Result, batch[i].Err)
		if batched.Signature != direct.Signature {
			t.Fatalf("seed %d: batch signature diverged from direct run:\n%s\n%s", v.Seed, batched.Signature, direct.Signature)
		}
		rounds, batchedRounds := 0, 0
		if direct.Result != nil {
			rounds = direct.Result.Rounds
		}
		if batched.Result != nil {
			batchedRounds = batched.Result.Rounds
		}
		passed := direct.Err == nil && len(direct.Violations) == 0
		if passed != (v.Outcome == soak.OutcomePass) || rounds != batchedRounds {
			t.Fatalf("seed %d: block %s, batch in %d rounds, direct run err=%v violations=%v in %d rounds",
				v.Seed, v.Outcome, batchedRounds, direct.Err, direct.Violations, rounds)
		}
		if !passed && direct.Signature != v.Signature {
			t.Fatalf("seed %d: block signature diverged from direct run:\n%s\n%s", v.Seed, v.Signature, direct.Signature)
		}
	}
}
