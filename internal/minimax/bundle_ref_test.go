package minimax

import (
	"math"
	"testing"

	"relaxedbvc/internal/geom"
	"relaxedbvc/internal/relax"
	"relaxedbvc/internal/vec"
)

// refMinMaxDist2 is MinMaxDist2 with the probe it had before the screen
// (refProbe, kept verbatim): every set is evaluated at every probe. It
// is the referee of the screened loop.
func refMinMaxDist2(sets []*vec.Set) Result {
	b := newBundle(sets)
	if b.half == 0 {
		return Result{Point: b.center, Converged: true}
	}
	b.refProbe(b.center.Clone())
	for !b.converged() && b.probes < maxBundleIters {
		x, ok := b.solveMaster()
		if !ok || b.converged() {
			break
		}
		b.refProbe(x)
	}
	return Result{Delta: b.upper, Lower: math.Min(b.lower, b.upper), Point: b.best, Converged: b.converged()}
}

func (b *bundle) refProbe(x vec.V) {
	b.probes++
	f := 0.0
	for _, s := range b.sets {
		d, near := geom.Dist2Uncached(x, s)
		f = math.Max(f, d)
		if d <= 0 || d < b.lower {
			continue
		}
		u := x.Sub(near).Scale(1 / d)
		support := math.Inf(-1)
		for _, v := range s.Points() {
			support = math.Max(support, u.Dot(v))
		}
		b.cuts = append(b.cuts, cut{u: u, support: (support - u.Dot(b.center)) / b.half, probe: b.probes})
	}
	if f < b.upper {
		b.best, b.upper = x, f
	}
}

func sameResult(a, b Result) bool {
	return math.Float64bits(a.Delta) == math.Float64bits(b.Delta) &&
		math.Float64bits(a.Lower) == math.Float64bits(b.Lower) &&
		a.Point.Equal(b.Point) && a.Exact == b.Exact && a.Converged == b.Converged
}

// screenShapes are the (|S|, f, d) shapes of the screen's referee.
var screenShapes = []struct{ n, f, d int }{
	{6, 2, 3}, {7, 2, 3}, {5, 1, 3}, {7, 2, 2}, {6, 1, 4}, {9, 2, 3},
}

func scaledInstance(seed int64, n, d int, scale float64) *vec.Set {
	s := randInstance(seed, n, d)
	pts := make([]vec.V, s.Len())
	for i, p := range s.Points() {
		pts[i] = p.Scale(scale)
	}
	return vec.NewSet(pts...)
}

// uncertified are x1e3 seeds of the (6,2,3) shape where Wolfe stops
// short of its certificate. Unless that abandons the screened solve, it
// differs from the referee: 7 000 013 in Delta and Point, 7 000 039 only
// in Lower. Checking only that evaluated sets stay within their reach
// still leaves 7 000 039 and 7 000 082 different.
var uncertified = map[int64]bool{7_000_013: true, 7_000_039: true, 7_000_082: true}

// TestScreenMatchesUnscreened runs the screened loop and the referee on
// 2 100 families (210 with -short) of six shapes at x1e-3 and x1, and on
// 33 of them (7) at x1e3, where Wolfe's own defect (ROADMAP item 1)
// stops it short of the certificate the screen rests on and most solves
// hit the iteration cap: every Result must be the referee's to the bit.
func TestScreenMatchesUnscreened(t *testing.T) {
	perShape, farEvery := 350, 70
	if testing.Short() {
		perShape, farEvery = 35, 35
	}
	far, open := 0, 0
	for si, sh := range screenShapes {
		for k := 0; k < perShape; k++ {
			seed := int64(7_000_000 + 10_000*si + k)
			for _, scale := range []float64{1e-3, 1, 1e3} {
				if scale == 1e3 {
					if k%farEvery != 0 && !uncertified[seed] {
						continue
					}
					far++
				}
				fam := relax.DroppedSubsets(scaledInstance(seed, sh.n, sh.d, scale), sh.f)
				got, want := MinMaxDist2(fam), refMinMaxDist2(fam)
				if !sameResult(got, want) {
					t.Fatalf("shape %v seed %d x%g: screened %+v, unscreened %+v", sh, seed, scale, got, want)
				}
				if scale == 1e3 && !got.Converged {
					open++
				}
			}
		}
	}
	t.Logf("%d families at x1e-3 and x1, %d at x1e3 (%d left open): all bit-identical", perShape*len(screenShapes), far, open)
}

// TestScreenYieldsToUncertifiedWolfe: at x1e3 Wolfe stalls short of its
// certificate, so the screened solve is abandoned, for MinMaxDist2 to
// start over unscreened; at x1 it completes.
func TestScreenYieldsToUncertifiedWolfe(t *testing.T) {
	for _, scale := range []float64{1, 1e3} {
		b := newBundle(relax.DroppedSubsets(scaledInstance(7_000_000, 6, 3, scale), 2))
		if done := b.solve([]vec.V{b.center}); done != (scale == 1) {
			t.Fatalf("x%g: screened solve completed %v", scale, done)
		}
	}
}

// TestScreenSkipsDeadHulls: at the acs_kernel shape (|S| = 6, f = 2,
// d = 3) the screen must skip at least 30 % of the set evaluations.
func TestScreenSkipsDeadHulls(t *testing.T) {
	screened, rescans, iters := probeScreened.Value(), probeRescans.Value(), bundleIterations.Sum()
	const solves = 200
	for k := 0; k < solves; k++ {
		MinMaxDist2(relax.DroppedSubsets(randInstance(int64(8_000_000+k), 6, 3), 2))
	}
	skipped := probeScreened.Value() - screened
	total := (bundleIterations.Sum() - iters) * float64(vec.CountCombinations(6, 2))
	share := float64(skipped) / total
	t.Logf("%d of %.0f set evaluations skipped (%.1f %%), %d rescans", skipped, total, 100*share, probeRescans.Value()-rescans)
	if share < 0.30 {
		t.Fatalf("screen skipped %.1f %% of set evaluations, want >= 30 %%", 100*share)
	}
}
