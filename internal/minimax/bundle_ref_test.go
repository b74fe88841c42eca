package minimax

import (
	"fmt"
	"math"
	"testing"

	"relaxedbvc/internal/geom"
	"relaxedbvc/internal/lp"
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
		d, near := geom.Dist2(x, s)
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
	total := (bundleIterations.Sum() - iters) * 15 // C(6,2) dropped subsets
	share := float64(skipped) / total
	t.Logf("%d of %.0f set evaluations skipped (%.1f %%), %d rescans", skipped, total, 100*share, probeRescans.Value()-rescans)
	if share < 0.30 {
		t.Fatalf("screen skipped %.1f %% of set evaluations, want >= 30 %%", 100*share)
	}
}

// coldMinMaxDist2 is MinMaxDist2 with the master it had before the
// master grew by columns: rebuilt from every cut and solved cold, phase
// 1 included, at every probe (coldSolveMaster, kept verbatim but for
// the reused Problem). It is the referee of the warm master, and also
// returns the probes of the solve it kept.
func coldMinMaxDist2(sets []*vec.Set) (Result, int) {
	b := newBundle(sets)
	if b.half == 0 {
		return Result{Point: b.center, Converged: true}, 0
	}
	p := lp.NewProblem(0)
	if !b.coldSolve(p) {
		b = newBundle(sets)
		b.near = nil
		b.coldSolve(p)
	}
	return Result{Delta: b.upper, Lower: math.Min(b.lower, b.upper), Point: b.best, Converged: b.converged()}, b.probes
}

func (b *bundle) coldSolve(p *lp.Problem) bool {
	if !b.probe(b.center.Clone()) {
		return false
	}
	for !b.converged() && b.probes < maxBundleIters {
		x, ok := b.coldSolveMaster(p)
		if !ok || b.converged() {
			break
		}
		if !b.probe(x) {
			return false
		}
	}
	return true
}

func (b *bundle) coldSolveMaster(p *lp.Problem) (x vec.V, ok bool) {
	d, m := len(b.center), len(b.cuts)
	p.Reset(m + 2*d) // lambda, then the positive and negative parts of sum_i lambda_i u_i
	obj := make([]float64, m+2*d)
	row := make([]float64, m+2*d)
	for i, c := range b.cuts {
		obj[i], row[i] = -c.support, 1
	}
	p.AddConstraint(row, lp.EQ, 1)
	for j := 0; j < d; j++ {
		clear(row)
		for i, c := range b.cuts {
			row[i] = c.u[j]
		}
		row[m+j], row[m+d+j] = -1, 1
		p.AddConstraint(row, lp.EQ, 0)
		obj[m+j], obj[m+d+j] = -b.width[j]/b.half, -b.width[j]/b.half
	}
	p.SetObjective(obj, lp.Maximize)
	res, err := p.Solve()
	if err != nil || res.Status != lp.Optimal {
		return nil, false
	}
	sum, bound, slope := 0.0, 0.0, vec.New(d)
	for i, c := range b.cuts {
		w := math.Max(res.X[i], 0)
		sum += w
		bound -= w * c.support
		slope.AXPY(w, c.u)
	}
	for j, g := range slope {
		bound -= b.width[j] / b.half * math.Abs(g)
	}
	if sum <= 0 {
		return nil, false
	}
	b.lower = math.Max(b.lower, bound/sum*b.half) // the bound is homogeneous in lambda
	if m > maxBundleCuts {
		from := m - maxBundleCuts
		for from > 0 && b.cuts[from-1].probe == b.probes {
			from--
		}
		kept := b.cuts[:0]
		for i, c := range b.cuts {
			if res.X[i] > 0 || i >= from {
				kept = append(kept, c)
			}
		}
		b.cuts = kept
	}
	x = vec.New(d)
	for j := range x {
		x[j] = math.Min(math.Max(b.center[j]-b.half*res.Dual[1+j], b.lo[j]), b.hi[j])
	}
	return x, true
}

// masterShapes are the (|S|, f, d) shapes of the master's referee, and
// how many of their families also run at x1e3 (with -short), where most
// solves run to the iteration cap: a {6,2,3} solve there takes about
// 0.1 s and a {10,3,4} one 1.7 s.
var masterShapes = []struct{ n, f, d, far, farShort int }{
	{6, 2, 3, 20, 2}, {4, 1, 2, 200, 20}, {10, 3, 4, 2, 0},
}

// TestMasterWarmMatchesCold runs MinMaxDist2, whose master keeps its
// basis across probes, and the cold-master referee on 10^4 seeded
// families a shape (10^3 with -short), alternately at x1e-3 and x1, and
// on some of them at x1e3.
//
// Each bracket holds delta* when its cuts are valid, so the warm one
// must keep Lower <= Delta and overlap the referee's; converged, its
// Delta must be within the solve's gap tolerance of the referee's —
// unless the referee's own Lower exceeds the value F takes at the warm
// point, which no valid cut allows (at x1e-3 and x1e3 not every Wolfe
// cut is valid, ROADMAP item 1). At x1e-3 and x1 the two must agree on
// Converged.
//
// The masters end on different vertices when the master's optimum is
// degenerate — at delta* = 0, the rule at |S| = 4, f = 1, d = 2, any
// point of the optimal face is a minimiser — and a family's probe count
// follows the vertex. So the probes are held over each shape: no more
// than the referee's, and at most 1 solve in 200 taking more than one
// probe beyond the referee's. At x1e3 Wolfe stalls short of its
// certificate, cuts stop cutting off their probe, and whether a solve
// converges follows the vertex too: there the warm solves must converge
// at least as often as the referee's.
func TestMasterWarmMatchesCold(t *testing.T) {
	perShape := 10_000
	if testing.Short() {
		perShape = 1_000
	}
	for si, sh := range masterShapes {
		t.Run(fmt.Sprintf("%d_%d_%d", sh.n, sh.f, sh.d), func(t *testing.T) {
			t.Parallel()
			warmMatchesCold(t, si, perShape)
		})
	}
}

func warmMatchesCold(t *testing.T, si, perShape int) {
	sh := masterShapes[si]
	far := sh.far
	if testing.Short() {
		far = sh.farShort
	}
	var solves, moved, contradicted, over, warmProbes, coldProbes, warmFar, coldFar int
	worst := 0.0
	for k := 0; k < perShape; k++ {
		seed := int64(9_000_000 + 100_000*si + k)
		scales := []float64{[]float64{1e-3, 1}[k%2]}
		if far > 0 && k%(perShape/far) == 0 {
			scales = append(scales, 1e3)
		}
		for _, scale := range scales {
			fam := relax.DroppedSubsets(scaledInstance(seed, sh.n, sh.d, scale), sh.f)
			got, probes := minMaxDist2(fam, nil)
			want, cold := coldMinMaxDist2(fam)
			tol := newBundle(fam).tol
			agree := got.Lower <= want.Delta+tol && want.Lower <= got.Delta+tol
			if dd := math.Abs(got.Delta - want.Delta); got.Converged && dd > tol {
				contradicted++
				agree = agree || (got.Lower <= want.Delta+tol && want.Lower > got.Delta+tol)
			} else if got.Converged {
				worst = math.Max(worst, dd/tol)
			}
			if scale == 1e3 {
				warmFar += b2i(got.Converged)
				coldFar += b2i(want.Converged)
			} else if got.Converged != want.Converged {
				agree = false
			}
			if got.Lower > got.Delta || !agree {
				t.Fatalf("shape %v seed %d x%g: warm %+v in %d probes, cold %+v in %d (tolerance %g)",
					sh, seed, scale, got, probes, want, cold, tol)
			}
			if !sameResult(got, want) {
				moved++
			}
			over += b2i(probes > cold+1)
			warmProbes += probes
			coldProbes += cold
			solves++
		}
	}
	t.Logf("shape %v: %d solves, %d off the referee's bits (worst converged |dDelta| %.2g of the tolerance; %d referee brackets contradicted); probes %d warm, %d cold, %d solves more than one beyond the referee's; at x1e3 %d warm and %d cold converged",
		sh, solves, moved, worst, contradicted, warmProbes, coldProbes, over, warmFar, coldFar)
	if warmProbes > coldProbes || 200*over > solves || warmFar < coldFar {
		t.Fatalf("shape %v: probes %d warm, %d cold; %d of %d solves more than one probe beyond the referee's; at x1e3 %d warm and %d cold converged",
			sh, warmProbes, coldProbes, over, solves, warmFar, coldFar)
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
