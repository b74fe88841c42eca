package soak

// Block execution: expand seeds with GenSpec, run them on the batch
// engine, check the invariant oracle, classify, and (for mesh soaks)
// cross-check mesh decisions against the simulation. A block's verdicts
// are a pure function of the job.

import (
	"context"
	"errors"
	"fmt"
	"math"

	bvc "relaxedbvc"
	"relaxedbvc/internal/broadcast"
	"relaxedbvc/internal/simtest"
)

// RunBlock executes one job on a batch pool of workers (>= 1; a soak
// passes Options.Shards, a corpus replay 1): every seed is expanded,
// run, checked and classified. The result is deterministic for a given
// job regardless of the worker count (the batch engine returns results
// in input order and each trial is seed-deterministic).
func RunBlock(ctx context.Context, job *Job, workers int) (*BlockResult, error) {
	fcfg, err := job.Cfg.FuzzConfig()
	if err != nil {
		return nil, err
	}
	specs := make([]bvc.Spec, len(job.Seeds))
	for i, seed := range job.Seeds {
		specs[i] = simtest.GenSpec(seed, fcfg)
	}
	batch := bvc.RunBatch(ctx, bvc.BatchOptions{Workers: workers}, specs)

	out := &BlockResult{Block: job.Block, Verdicts: make([]SeedVerdict, len(job.Seeds))}
	for i, br := range batch {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("%w: block %d: %v", ErrInterrupted, job.Block, ctx.Err())
		}
		seed := job.Seeds[i]
		v := classify(seed, simtest.EffectiveRegime(seed, fcfg.Regime),
			simtest.Classify(specs[i], br.Result, br.Err))
		if v.Outcome == OutcomePass && job.Cfg.Transport == TransportMesh {
			meshCheck(ctx, specs[i], br.Result, &v)
		}
		out.Verdicts[i] = v
		if out.MinFailing == nil && failing(v, job.Cfg.Strict) {
			out.MinFailing = shrinkSeed(ctx, job, fcfg, v)
		}
	}
	return out, nil
}

// classify folds a checked report into a verdict. Without faults, or
// with faults the delivery model tolerates, every run must complete: a
// typed degradation there is a failure, not a degradation.
func classify(seed int64, regime simtest.Regime, rep *simtest.Report) SeedVerdict {
	outcome := OutcomePass
	switch {
	case rep.Failed(), rep.Err != nil && regime != simtest.RegimeOutOfModel:
		outcome = OutcomeFailed
	case rep.Err != nil:
		outcome = OutcomeDegraded
	}
	v := SeedVerdict{Seed: seed, Outcome: outcome, Protocol: rep.Spec.Protocol.String()}
	if outcome != OutcomePass {
		v.Signature = rep.Signature
	}
	return v
}

// failing applies the block's strictness: failures always count;
// degradations count only under Strict.
func failing(v SeedVerdict, strict bool) bool {
	return v.Outcome == OutcomeFailed || (strict && v.Outcome == OutcomeDegraded)
}

// shrinkSeed builds the block's shrunk reproducer from its first
// failing seed (for base blocks the seeds ascend, so "first" is also
// "minimal") and replay-confirms it: two fresh single-run replays must
// reproduce the recorded signature byte-for-byte.
func shrinkSeed(ctx context.Context, job *Job, fcfg simtest.FuzzConfig, v SeedVerdict) *FailingSeed {
	fs := &FailingSeed{
		Seed: v.Seed, Cfg: job.Cfg, Protocol: v.Protocol,
		Outcome: v.Outcome, Signature: v.Signature,
	}
	fs.ReplayConfirmed = true
	for i := 0; i < 2; i++ {
		rep := simtest.RunChecked(ctx, simtest.GenSpec(v.Seed, fcfg))
		if rep.Signature != v.Signature {
			fs.ReplayConfirmed = false
			break
		}
	}
	return fs
}

// meshCheck re-runs a passing spec over the in-process channel mesh and
// compares the decisions bit-for-bit against the simulation result,
// demoting the verdict to a failure on any divergence. A spec Run
// refuses off the simulation (ErrUnsupportedTransport) is skipped.
// Exact binary vector encodings are compared (no tolerance): the
// transport parity contract says a cluster decides the same bytes as
// the simulation.
func meshCheck(ctx context.Context, spec bvc.Spec, sim *bvc.Result, v *SeedVerdict) {
	mesh, err := bvc.Run(ctx, spec, bvc.WithTransport(bvc.Transport{Kind: bvc.TransportMesh}))
	if errors.Is(err, bvc.ErrUnsupportedTransport) {
		return
	}
	v.MeshCompared = true
	if err != nil {
		v.Outcome = OutcomeFailed
		v.Signature = fmt.Sprintf("mesh-error: %v", err)
		return
	}
	if diff := meshDiff(sim, mesh, spec.N); diff != "" {
		v.Outcome = OutcomeFailed
		v.Signature = "mesh-divergence: " + diff
	}
}

// meshDiff returns a description of the first decision-relevant field
// (the iterative range history included) where the mesh result diverges
// from the simulation's ("" = parity).
func meshDiff(sim, mesh *bvc.Result, n int) string {
	if mesh.Rounds != sim.Rounds {
		return fmt.Sprintf("rounds mesh=%d sim=%d", mesh.Rounds, sim.Rounds)
	}
	if len(mesh.Outputs) != len(sim.Outputs) || len(mesh.Delta) != len(sim.Delta) ||
		len(mesh.Vertices) != len(sim.Vertices) || len(mesh.ACS) != len(sim.ACS) {
		return fmt.Sprintf("shape mesh=(%d outputs, %d deltas, %d polytopes, %d streams) sim=(%d, %d, %d, %d)",
			len(mesh.Outputs), len(mesh.Delta), len(mesh.Vertices), len(mesh.ACS),
			len(sim.Outputs), len(sim.Delta), len(sim.Vertices), len(sim.ACS))
	}
	for i := 0; i < n && i < len(sim.Outputs); i++ {
		if vecFingerprint(mesh.Outputs[i]) != vecFingerprint(sim.Outputs[i]) {
			return fmt.Sprintf("node %d output mesh=%v sim=%v", i, mesh.Outputs[i], sim.Outputs[i])
		}
	}
	// Delta is produced only by the delta-relaxed protocols; compare
	// exactly (no tolerance) where present.
	for i := 0; i < len(sim.Delta); i++ {
		if mesh.Delta[i] != sim.Delta[i] {
			return fmt.Sprintf("node %d delta mesh=%v sim=%v", i, mesh.Delta[i], sim.Delta[i])
		}
	}
	if len(mesh.RangeHistory) != len(sim.RangeHistory) {
		return fmt.Sprintf("range history mesh=%d rounds sim=%d", len(mesh.RangeHistory), len(sim.RangeHistory))
	}
	for r, x := range sim.RangeHistory {
		if math.Float64bits(mesh.RangeHistory[r]) != math.Float64bits(x) {
			return fmt.Sprintf("range at round %d mesh=%v sim=%v", r, mesh.RangeHistory[r], x)
		}
	}
	for i, poly := range sim.Vertices {
		if len(mesh.Vertices[i]) != len(poly) {
			return fmt.Sprintf("node %d polytope mesh=%d vertices sim=%d", i, len(mesh.Vertices[i]), len(poly))
		}
		for k, v := range poly {
			if vecFingerprint(mesh.Vertices[i][k]) != vecFingerprint(v) {
				return fmt.Sprintf("node %d vertex %d mesh=%v sim=%v", i, k, mesh.Vertices[i][k], v)
			}
		}
	}
	for i, stream := range sim.ACS {
		if bvc.ACSFingerprint(mesh.ACS[i]) != bvc.ACSFingerprint(stream) {
			return fmt.Sprintf("node %d decision stream differs from the simulation's", i)
		}
	}
	return ""
}

// vecFingerprint encodes a vector exactly (bit-level, no rounding).
func vecFingerprint(v bvc.Vector) string {
	if v == nil {
		return "<nil>"
	}
	return string(broadcast.EncodeVec(v))
}
