package simtest

import (
	"context"
	"testing"

	bvc "relaxedbvc"
)

// TestConvexCorpusRegressions replays the two soak-discovered convex
// reproducers (previously corpus/fail-4f843d08ca220544.json and
// corpus/fail-6f066e70341e226f.json, both at n=5/f=1/d=3 under
// within-model duplication). Both had the same root cause: at the
// Tverberg existence floor n=(d+1)f+1, Gamma(S) is generically a single
// degenerate point and the support LP either reported spurious
// infeasibility (seed 43596, "Gamma(S) is empty") or returned an
// "optimal" vertex outside the intersection (seed 38192, hull-validity
// violations). The protocol now validates each support point against
// every dropped-subset hull and substitutes a certified Gamma anchor, so
// the exact generated specs must pass cleanly.
func TestConvexCorpusRegressions(t *testing.T) {
	for _, seed := range []int64{43596, 38192} {
		cfg := FuzzConfig{Regime: RegimeMixed}
		spec := GenSpec(seed, cfg)
		if spec.Protocol != bvc.ProtocolConvex {
			t.Fatalf("seed %d no longer generates a convex spec (generator drifted)", seed)
		}
		if spec.N != 5 || spec.F != 1 || spec.D != 3 {
			t.Fatalf("seed %d generates n=%d f=%d d=%d, want the degenerate 5/1/3 regime", seed, spec.N, spec.F, spec.D)
		}
		rep := RunChecked(context.Background(), spec)
		if rep.Failed() {
			t.Fatalf("seed %d regressed: %s", seed, rep.Signature)
		}
	}
}
