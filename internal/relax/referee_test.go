package relax

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"relaxedbvc/internal/geom"
	"relaxedbvc/internal/lp"
	"relaxedbvc/internal/metrics"
	"relaxedbvc/internal/vec"
)

// refereeSeeds is the referee's seed count per shape: 200 in tier-1, 20
// under the race detector (race_test.go), whose tenfold slowdown buys
// nothing on this single-goroutine stream; ROADMAP item 4's 10^4-seed
// run is -args -referee-seeds=10000.
var refereeSeeds = flag.Int("referee-seeds", 200, "seeds per shape of the lazy-vs-joint Gamma referee")

// jointHulls is the Gamma LP as it was before lazy block generation:
// one LP over every hull of the family, one phase 1, then a phase 2 per
// objective (nil: feasibility). Entry i is nil when objective i has no
// optimum.
func jointHulls(sets []*vec.Set, objs []vec.V) []vec.V {
	d := sets[0].Dim()
	pts := make([]vec.V, len(objs))
	prob := buildLPInto(nil, sets, nil, blockRows{})
	if prob == nil {
		return pts
	}
	basis := prob.Prepare()
	defer basis.Release()
	obj := make([]float64, prob.NumVars())
	for i, dir := range objs {
		clear(obj)
		copy(obj, dir)
		if res := basis.Solve(obj, lp.Maximize); res.Status == lp.Optimal {
			pts[i] = vec.V(res.X[:d]).Clone()
		}
	}
	return pts
}

// refereeFan is a deterministic direction fan in R^d: the 2d signed
// axes, then seeded Gaussian directions up to k.
func refereeFan(rng *rand.Rand, d, k int) []vec.V {
	var dirs []vec.V
	for j := 0; j < d; j++ {
		for _, sign := range []float64{1, -1} {
			u := vec.New(d)
			u[j] = sign
			dirs = append(dirs, u)
		}
	}
	for len(dirs) < k {
		u := randVec(rng, d, 1)
		dirs = append(dirs, u.Scale(1/u.Norm2()))
	}
	return dirs
}

// refereeShape is one (n, f, d, scale) family of the referee.
type refereeShape struct {
	n, f, d int
	scale   float64
}

// refereeShapes are batch_lp's planar shapes (its five families share
// three (n, f, d) shapes), exact n=9 f=2 d=3, the Tverberg-floor shapes
// of convex consensus (n=5 f=1 d=3; n=6 f=1 d=4 at x1e3), and the kernel
// digest's shapes at its three scales, each once.
func refereeShapes() []refereeShape {
	shapes := []refereeShape{
		{7, 2, 2, 1}, {8, 2, 2, 1}, {9, 2, 2, 1}, {9, 2, 3, 1}, {5, 1, 3, 1}, {6, 1, 4, 1e3},
	}
	for _, scale := range []float64{1e-3, 1, 1e3} {
		for _, c := range []struct{ n, f, d int }{{5, 1, 2}, {7, 2, 2}, {8, 2, 3}, {9, 2, 3}, {5, 1, 3}} {
			s := refereeShape{c.n, c.f, c.d, scale}
			if !slices.Contains(shapes, s) {
				shapes = append(shapes, s)
			}
		}
	}
	return shapes
}

// refereeTally counts what a referee run compared.
type refereeTally struct {
	instances, nonEmpty, uncertified, jointEmpty int
	points, jointUncertified, bitEqual           int
	// jointWrong counts certified support points whose value is
	// further than the value tolerance from the joint LP's because the
	// joint LP is wrong: it stopped short of its optimum, or its point
	// lies outside a hull by more than that tolerance. lazyShort counts
	// those where the loop stopped short.
	jointWrong, lazyShort int
}

// refereeInstance checks the lazy loop against the joint LP on one
// family, for the feasibility objective and a direction fan:
//
//  1. The same empty/non-empty verdict, except where the joint LP calls
//     the intersection empty and the lazy loop returns a certified
//     point (at n >= (d+1)f+1 Tverberg's theorem sides with the loop).
//  2. Every point SupportPoints returns is certified by InEveryHull.
//     An uncertified Gamma point is the joint LP's, bit for bit, and
//     where a support point is missing the joint LP has no certified
//     one either (the loop hands both cases to the joint LP).
//  3. Each support value u.x is within 1e-9*scale of the joint LP's
//     wherever both points are certified, except where the joint LP is
//     wrong: the loop's value is the higher (its point is certified, so
//     the joint LP stopped short of its optimum), or the joint point is
//     outside a hull by more than 1e-9*scale (certification allows
//     1e-7, so its value may overshoot the optimum). This is enforced at
//     unit scale. At x1e-3 and x1e3 the LP's absolute tolerances
//     (ROADMAP item 1) make both LPs stop short of their optimum at a
//     measurable rate, so there the shortfalls of each side are counted
//     and logged, not failed.
//  4. Bits equal to the joint LP's on families of at most d+1 hulls:
//     the first d+1 hulls of the family, every objective.
func refereeInstance(t *testing.T, c refereeShape, seed int64, tally *refereeTally) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	y := randSet(rng, c.n, c.d, 2*c.scale)
	fam := DroppedSubsets(y, c.f)
	fan := refereeFan(rng, c.d, 2*c.d+6)
	where := fmt.Sprintf("n=%d f=%d d=%d x%g seed %d", c.n, c.f, c.d, c.scale, seed)
	sc := GetIntersectScratch()
	lazy, certified := lazyHulls(fam, 0, []vec.V{nil}, sc)
	sc.Release()
	joint := jointHulls(fam, append([]vec.V{nil}, fan...))
	tally.instances++
	if !certified[0] && !sameBits(lazy[0], joint[0]) {
		t.Fatalf("%s: %d hulls, lazy Gamma point %v (certified %v) != joint %v", where, len(fam), lazy[0], certified[0], joint[0])
	}
	head := fam[:min(len(fam), c.d+1)]
	objs := append([]vec.V{nil}, fan...)
	sc = GetIntersectScratch()
	got, _ := lazyHulls(head, 0, objs, sc)
	sc.Release()
	for i, want := range jointHulls(head, objs) {
		if !sameBits(got[i], want) {
			t.Fatalf("%s objective %d: %d hulls, lazy %v != joint %v", where, i, len(head), got[i], want)
		}
	}
	tally.bitEqual += len(objs)
	if lazy[0] == nil {
		return
	}
	tally.nonEmpty++
	if !certified[0] {
		tally.uncertified++
	}
	if joint[0] == nil {
		tally.jointEmpty++
	}
	tol := 1e-9 * c.scale
	for i, x := range SupportPoints(fam, fan) {
		u, want := fan[i], joint[i+1]
		wantOK := want != nil && InEveryHull(fam, want)
		if x == nil {
			if wantOK {
				t.Fatalf("%s direction %d: no lazy support point, joint LP's %v is certified", where, i, want)
			}
			continue
		}
		if !InEveryHull(fam, x) {
			t.Fatalf("%s direction %d: SupportPoints returned %v, uncertified", where, i, x)
		}
		tally.points++
		if !wantOK {
			tally.jointUncertified++
			continue
		}
		switch gap := u.Dot(x) - u.Dot(want); {
		case gap > tol || gap < -tol && outside(fam, want, tol):
			tally.jointWrong++
		case gap < -tol:
			tally.lazyShort++
			if c.scale == 1 {
				t.Errorf("%s direction %d: support value %v, joint LP %v", where, i, u.Dot(x), u.Dot(want))
			}
		}
	}
}

// outside reports whether some hull of fam is further than tol from x.
func outside(fam []*vec.Set, x vec.V, tol float64) bool {
	for _, s := range fam {
		if dist, _ := geom.Dist2(x, s); dist > tol {
			return true
		}
	}
	return false
}

// TestGammaRefereeJointLP holds the lazy block-generation loop to the
// one-shot joint LP it replaced (refereeInstance's four rules) on
// -referee-seeds seeds of every referee shape.
func TestGammaRefereeJointLP(t *testing.T) {
	for _, c := range refereeShapes() {
		t.Run(fmt.Sprintf("n=%d_f=%d_d=%d_x%g", c.n, c.f, c.d, c.scale), func(t *testing.T) {
			t.Parallel()
			var tally refereeTally
			start := time.Now()
			for seed := int64(0); seed < int64(*refereeSeeds); seed++ {
				refereeInstance(t, c, seed, &tally)
			}
			t.Logf("%d non-empty of %d (%d uncertified, %d joint-LP empties); %d support points (%d joint uncertified); %d bit-equal (d+1)-hull objectives; joint LP wrong %d, loop short %d (%v)",
				tally.nonEmpty, tally.instances, tally.uncertified, tally.jointEmpty,
				tally.points, tally.jointUncertified, tally.bitEqual, tally.jointWrong, tally.lazyShort,
				time.Since(start).Round(time.Millisecond))
		})
	}
}

// TestWarmMissPreparesCold pins a warm miss of the long Γ referee run:
// on n=7 f=2 d=2 seed 4184 the support fan's second extension pivots on
// an element near the simplex's absolute pivot tolerance, and the grown
// basis carried errors of about 1e-7, so direction 1 stopped 5.8e-8
// short of the joint LP. Extend's accuracy check makes that a warm miss,
// the family is prepared cold, and every rule of the referee holds.
func TestWarmMissPreparesCold(t *testing.T) {
	warm := func() (attempts, hits int64) {
		c := metrics.Default().Snapshot().Counters
		return c["lp_warm_attempts_total"], c["lp_warm_hits_total"]
	}
	a0, h0 := warm()
	var tally refereeTally
	refereeInstance(t, refereeShape{7, 2, 2, 1}, 4184, &tally)
	a1, h1 := warm()
	if misses := (a1 - a0) - (h1 - h0); misses == 0 {
		t.Fatalf("no warm miss in %d extensions", a1-a0)
	}
}

// jointDelta is MinIntersectionDelta as it was before lazy block
// generation: one LP over every relaxed hull of the family, δ
// minimized. It returns the LP's leading variables, x followed by δ, or
// nil where that function panicked ("cannot happen": the LP had no
// optimum).
func jointDelta(sets []*vec.Set, p float64) vec.V {
	prob, d, ok := relaxedLPProblemInto(nil, sets, p, nil)
	if !ok {
		return nil
	}
	res, _ := prob.Solve()
	if res.Status != lp.Optimal {
		return nil
	}
	return vec.V(res.X[:d+1]).Clone()
}

// deltaShapes are the δ*_p referee's (n, f, d) shapes: acs_protocol's
// (n=7 f=2 d=1), batch_lp's δ-relaxed one (n=7 f=2 d=2), n=9 f=2 d=3,
// n=5 f=1 d=3, and n=4 f=1 d=3, whose family has d+1 blocks.
var deltaShapes = []struct{ n, f, d int }{{7, 2, 1}, {7, 2, 2}, {9, 2, 3}, {5, 1, 3}, {4, 1, 3}}

// deltaTally counts what a δ*_p referee run compared.
type deltaTally struct {
	instances, uncertified, unmeasured int
	jointWrong, jointShort, lazyShort  int
	maxGap                             float64
}

// deltaRefereeInstance checks the lazy δ*_p loop against the joint LP
// on one family:
//
//  1. The loop returns a point wherever the joint LP has an optimum.
//  2. A certified point is within its δ + CertTol of every hull,
//     measured by the exact distance LP (geom.DistPolyLP, the distance
//     of DistP; a hull whose LP fails is counted, not measured);
//     an uncertified one is the joint LP's, bit for bit.
//  3. δ is within 1e-9*scale of the joint LP's, except where the joint
//     LP is wrong: it has no optimum, its point is further than its
//     δ + 1e-9*scale from some hull, or its δ exceeds by more than
//     1e-9*scale the largest distance from the loop's certified point to
//     a hull (the joint LP stopped short of its optimum). At x1e-3 and
//     x1e3 the LP's absolute tolerances (ROADMAP item 1) also make the
//     working family's LP stop short (its δ above a correct joint LP's,
//     whose point is feasible for it) at a measurable rate; there those
//     shortfalls are counted and logged, not failed.
//  4. Bits equal to the joint LP's on families of at most d+1 hulls:
//     the first d+1 hulls of the family.
func deltaRefereeInstance(t *testing.T, n, f, d int, scale, p float64, seed int64, tally *deltaTally) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	fam := DroppedSubsets(randSet(rng, n, d, 2*scale), f)
	where := fmt.Sprintf("n=%d f=%d d=%d x%g p=%v seed %d", n, f, d, scale, p, seed)
	sc := GetIntersectScratch()
	pts, certified := lazyHulls(fam, p, []vec.V{nil}, sc)
	sc.Release()
	lazy, joint := pts[0], jointDelta(fam, p)
	tally.instances++
	tol := 1e-9 * scale
	jointWrong := joint == nil || further(fam, joint, p, tol)
	switch {
	case lazy == nil:
		if joint != nil {
			t.Fatalf("%s: no lazy point, joint LP %v", where, joint)
		}
		return
	case !certified[0]:
		tally.uncertified++
		if !sameBits(lazy, joint) {
			t.Fatalf("%s: uncertified lazy point %v != joint %v", where, lazy, joint)
		}
	default:
		delta, attained := math.Max(lazy[d], 0), 0.0
		for i, s := range fam {
			dist, ok := geom.DistPolyLP(lazy[:d], s, p)
			if !ok {
				tally.unmeasured++
				attained = math.Inf(1)
				continue
			}
			if dist > delta+CertTol {
				t.Fatalf("%s: certified point %v is %v from hull %d, δ %v", where, lazy[:d], dist, i, delta)
			}
			attained = max(attained, dist)
		}
		// The loop's point attains a radius the joint LP's optimum
		// may not exceed: beyond it, the joint LP stopped short.
		if joint != nil && math.Max(joint[d], 0) > attained+tol {
			jointWrong = true
			tally.jointShort++
		}
	}
	if jointWrong {
		tally.jointWrong++
	} else {
		switch gap := math.Max(lazy[d], 0) - math.Max(joint[d], 0); {
		case gap > tol:
			// The joint point is feasible for the working family's LP,
			// so that LP stopped short of its optimum.
			tally.lazyShort++
			if scale == 1 {
				t.Errorf("%s: δ %v, joint LP %v", where, lazy[d], joint[d])
			}
		case gap < -tol:
			t.Errorf("%s: δ %v, joint LP %v", where, lazy[d], joint[d])
		default:
			tally.maxGap = max(tally.maxGap, math.Abs(gap)/scale)
		}
	}
	head := fam[:min(len(fam), d+1)]
	sc = GetIntersectScratch()
	got, _ := lazyHulls(head, p, []vec.V{nil}, sc)
	sc.Release()
	if want := jointDelta(head, p); !sameBits(got[0], want) {
		t.Fatalf("%s: %d hulls, lazy %v != joint %v", where, len(head), got[0], want)
	}
}

// further reports whether some hull of fam is measurably further than
// the point's own δ + tol from it (x followed by δ, in the p-norm).
func further(fam []*vec.Set, xd vec.V, p, tol float64) bool {
	d := len(xd) - 1
	for _, s := range fam {
		if dist, ok := geom.DistPolyLP(xd[:d], s, p); ok && dist > math.Max(xd[d], 0)+tol {
			return true
		}
	}
	return false
}

// TestDeltaStarRefereeJointLP holds the lazy δ*_p loop to the one-shot
// joint LP it replaced (deltaRefereeInstance's four rules) on
// -referee-seeds seeds of every δ shape, at p in {1, +Inf} and the
// kernel digest's three scales.
func TestDeltaStarRefereeJointLP(t *testing.T) {
	for _, scale := range []float64{1e-3, 1, 1e3} {
		for _, c := range deltaShapes {
			for _, p := range []float64{1, math.Inf(1)} {
				t.Run(fmt.Sprintf("n=%d_f=%d_d=%d_x%g_p=%v", c.n, c.f, c.d, scale, p), func(t *testing.T) {
					t.Parallel()
					var tally deltaTally
					start := time.Now()
					seeds := *refereeSeeds
					if c.n == 9 && scale != 1 {
						// The joint LP alone takes 0.1-10 s an instance
						// here (the loop: milliseconds).
						seeds = max(1, seeds/10)
					}
					for seed := int64(0); seed < int64(seeds); seed++ {
						deltaRefereeInstance(t, c.n, c.f, c.d, scale, p, seed, &tally)
					}
					t.Logf("%d instances (%d uncertified, %d hulls unmeasured); joint LP wrong %d (%d stopped short); loop short %d; max |δ - joint δ|/scale elsewhere %.3g (%v)",
						tally.instances, tally.uncertified, tally.unmeasured, tally.jointWrong, tally.jointShort, tally.lazyShort, tally.maxGap, time.Since(start).Round(time.Millisecond))
				})
			}
		}
	}
}
