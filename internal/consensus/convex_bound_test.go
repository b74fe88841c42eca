package consensus

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"relaxedbvc/internal/geom"
	"relaxedbvc/internal/relax"
)

// TestConvexBoundBoundary walks n across the two bounds of Tseng-Vaidya
// (arXiv:1307.1332): below the Tverberg existence floor
// max(3f+1, (d+1)f+1) the precondition must reject the run; exactly at
// the floor Gamma(S) exists but is generically degenerate (the regime
// behind the soak findings at n=5/f=1/d=3), so every output vertex must
// still be certified inside every dropped-subset hull; at the
// full-dimensionality bound (d+2)f+1 the protocol succeeds outright.
func TestConvexBoundBoundary(t *testing.T) {
	cases := []struct{ f, d int }{{1, 1}, {1, 2}, {1, 3}, {1, 4}, {2, 2}}
	for _, c := range cases {
		floor := 3*c.f + 1
		if tv := (c.d+1)*c.f + 1; tv > floor {
			floor = tv
		}
		full := (c.d+2)*c.f + 1
		for _, n := range []int{floor - 1, floor, full} {
			for seed := int64(0); seed < 3; seed++ {
				rng := rand.New(rand.NewSource(9000*seed + int64(100*c.f+10*c.d+n)))
				cfg := &SyncConfig{N: n, F: c.f, D: c.d, Inputs: randInputs(rng, n, c.d, 3)}
				res, err := RunConvexHullConsensus(context.Background(), cfg, 2*c.d+4)
				if n < floor {
					if !errors.Is(err, ErrTooFewProcesses) {
						t.Fatalf("f=%d d=%d n=%d: want ErrTooFewProcesses, got %v", c.f, c.d, n, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("f=%d d=%d n=%d seed=%d: %v", c.f, c.d, n, seed, err)
				}
				fam := relax.DroppedSubsets(res2set(cfg, res, 0), c.f)
				for _, v := range res.Vertices[honestIDs(cfg.N, cfg.Byzantine)[0]] {
					for _, sub := range fam {
						if dist, _ := geom.Dist2(v, sub); dist > 1e-6 {
							t.Fatalf("f=%d d=%d n=%d seed=%d: vertex %v misses a subset hull by %v", c.f, c.d, n, seed, v, dist)
						}
					}
				}
			}
		}
	}
}
