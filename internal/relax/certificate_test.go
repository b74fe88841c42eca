package relax

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"relaxedbvc/internal/geom"
	"relaxedbvc/internal/lp"
	"relaxedbvc/internal/vec"
)

// raceEnabled reports a -race build (race_test.go), whose sync.Pool
// drops scratch at random.
var raceEnabled bool

// wolfeOnlyHulls is lazyHulls without the block certificate: every hull
// outside the working family, then every hull inside it, is measured by
// hullTest.dist each round. The working family grows the loop's way
// (hullTest.prepare and join: warm, blocks in join order). It is the
// loop the certificate must reproduce bit for bit when it is off (more
// than maxCertPoints distinct points).
func wolfeOnlyHulls(sets []*vec.Set, p float64, objs []vec.V) (pts []vec.V, certified []bool) {
	d, m := sets[0].Dim(), len(sets)
	lead := d
	if p != 0 {
		lead = d + 1
	}
	pts, certified = make([]vec.V, len(objs)), make([]bool, len(objs))
	h := &hullTest{p: p, near: make(vec.V, d), in: make([]bool, m)}
	k := min(m, d+1)
	for i := 0; i < k; i++ {
		h.in[i*m/k] = true
	}
	var sc IntersectScratch
	h.prepare(sets, &sc)
	defer h.basis.Release()
	for i, dir := range objs {
		for {
			obj := make([]float64, sc.prob.NumVars())
			copy(obj, dir)
			tol := CertTol
			if p != 0 {
				obj[d] = -1
			}
			res := h.basis.Solve(obj, lp.Maximize)
			if res.Status == lp.Optimal {
				x := vec.V(res.X[:d])
				if p != 0 {
					tol += math.Max(res.X[d], 0)
				}
				worst, far, ok := -1, tol, true
				for j, s := range sets {
					if !h.in[j] {
						dist := h.dist(x, s, tol)
						ok = ok && dist <= tol
						if dist > far {
							worst, far = j, dist
						}
					}
				}
				for j := 0; ok && j < m; j++ {
					if h.in[j] {
						ok = h.dist(x, sets[j], tol) <= tol
					}
				}
				if worst >= 0 {
					h.join(sets, worst, &sc)
					continue
				}
				if ok || !slices.Contains(h.in, false) {
					pts[i], certified[i] = vec.V(res.X[:lead]).Clone(), ok
					break
				}
			} else if !slices.Contains(h.in, false) {
				if res.Status == lp.Infeasible {
					return pts, certified
				}
				break
			}
			for j := range h.in {
				h.in[j] = true
			}
			h.prepare(sets, &sc)
		}
	}
	return pts, certified
}

// certifiedHulls solves the working-family LP h holds prepared from
// sc.prob (exact hulls, or (δ,p)-relaxed ones with δ minimized) for
// objective dir and returns its point x, the acceptance threshold and
// the hulls of sets the block certificate accepts x in; nil when the LP
// has no optimum.
func certifiedHulls(h *hullTest, sc *IntersectScratch, sets []*vec.Set, dir vec.V) (x vec.V, tol float64, cover []bool) {
	d := sets[0].Dim()
	obj := make([]float64, sc.prob.NumVars())
	copy(obj, dir)
	if h.p != 0 {
		obj[d] = -1
	}
	res := h.basis.Solve(obj, lp.Maximize)
	if res.Status != lp.Optimal {
		return nil, 0, nil
	}
	x, tol = vec.V(res.X[:d]).Clone(), CertTol
	if h.p != 0 {
		tol += math.Max(res.X[d], 0)
	}
	h.certify(sets, res.X, x, tol)
	return x, tol, append([]bool(nil), h.cover...)
}

// TestBlockCertificateReferee holds the block certificate to an
// independent measurement on the referee shapes at x1e-3, x1 and x1e3:
//
//	(a) every hull the certificate accepts, from the LP of the loop's
//	    d+1 spread start family and of that family grown by one to three
//	    more hulls as the loop grows it (which for the smallest shapes
//	    completes the family), for the feasibility objective and a fan,
//	    is within CertTol of x by the L-infinity distance LP scaled by
//	    √d (a bound on the 2-norm distance), and within the round's
//	    δ + CertTol by the p-norm distance LP for δ*_1 and δ*_inf;
//	(b) every point lazyHulls certifies passes InEveryHull;
//	(c) on families of more than maxCertPoints distinct points the
//	    certificate is off and lazyHulls returns the bits of the loop
//	    without it (wolfeOnlyHulls).
func TestBlockCertificateReferee(t *testing.T) {
	seeds := max(1, *refereeSeeds/4)
	for _, c := range refereeShapes() {
		t.Run(fmt.Sprintf("n=%d_f=%d_d=%d_x%g", c.n, c.f, c.d, c.scale), func(t *testing.T) {
			t.Parallel()
			accepted := 0
			for seed := int64(0); seed < int64(seeds); seed++ {
				rng := rand.New(rand.NewSource(seed))
				fam := DroppedSubsets(randSet(rng, c.n, c.d, 2*c.scale), c.f)
				fan := refereeFan(rng, c.d, 2*c.d+2)
				where := fmt.Sprintf("n=%d f=%d d=%d x%g seed %d", c.n, c.f, c.d, c.scale, seed)
				accepted += certificateSound(t, where, fam, fan, rng)
				objs := append([]vec.V{nil}, fan...)
				sc := GetIntersectScratch()
				pts, certified := lazyHulls(fam, 0, objs, sc)
				sc.Release()
				for i, ok := range certified {
					if ok && !InEveryHull(fam, pts[i]) {
						t.Fatalf("%s objective %d: lazyHulls certified %v, InEveryHull rejects it", where, i, pts[i])
					}
				}
			}
			if accepted == 0 {
				t.Fatal("the certificate accepted no hull")
			}
			t.Logf("%d hulls accepted by block certificates, each confirmed by its distance LP", accepted)
		})
	}
	t.Run("more_than_64_points", func(t *testing.T) {
		rng := rand.New(rand.NewSource(64))
		for trial := 0; trial < 40; trial++ {
			d := 2 + trial%2
			fam := make([]*vec.Set, 12)
			for i := range fam {
				fam[i] = randSet(rng, 6, d, 2)
			}
			h := getHullTest(0, d)
			h.number(fam)
			if h.masks != nil {
				t.Fatalf("trial %d: %d distinct points numbered, want the certificate off", trial, len(h.ids))
			}
			h.release()
			for _, p := range []float64{0, 1, math.Inf(1)} {
				objs := []vec.V{nil}
				if p == 0 {
					objs = append(objs, refereeFan(rng, d, 2*d+2)...)
				}
				sc := GetIntersectScratch()
				got, gotOK := lazyHulls(fam, p, objs, sc)
				sc.Release()
				want, wantOK := wolfeOnlyHulls(fam, p, objs)
				for i := range objs {
					if !sameBits(got[i], want[i]) || gotOK[i] != wantOK[i] {
						t.Fatalf("trial %d p=%v objective %d: lazyHulls %v (certified %v), Wolfe-only loop %v (%v)", trial, p, i, got[i], gotOK[i], want[i], wantOK[i])
					}
				}
			}
		}
	})
}

// certificateSound checks rule (a) of TestBlockCertificateReferee on the
// LPs of the loop's start family and of that family grown by up to
// three random hulls the loop's way (hullTest.join: warm, or cold when
// a hull completes the family), and returns how many hull acceptances
// it confirmed.
func certificateSound(t *testing.T, where string, fam []*vec.Set, fan []vec.V, rng *rand.Rand) int {
	t.Helper()
	d, m := fam[0].Dim(), len(fam)
	kinds := []float64{0, 1, math.Inf(1)}
	hs, scs := make([]*hullTest, len(kinds)), make([]IntersectScratch, len(kinds))
	for i, p := range kinds {
		h := getHullTest(p, d)
		defer h.release()
		defer h.basis.Release()
		h.number(fam)
		h.in = grow(h.in, m)
		k := min(m, d+1)
		for j := 0; j < k; j++ {
			h.in[j*m/k] = true
		}
		h.prepare(fam, &scs[i])
		hs[i] = h
	}
	accepted := 0
	check := func(i int, dir vec.V) {
		p := kinds[i]
		x, tol, cover := certifiedHulls(hs[i], &scs[i], fam, dir)
		for j, ok := range cover {
			if !ok {
				continue
			}
			accepted++
			norm, bound := p, tol
			if p == 0 {
				norm, bound = math.Inf(1), CertTol/math.Sqrt(float64(d))
			}
			if dist, ok := geom.DistPolyLP(x, fam[j], norm); ok && dist > bound {
				t.Fatalf("%s p=%v: the certificate accepts hull %d at %v, its distance LP says %g > %g", where, p, j, x, dist, bound)
			}
		}
	}
	for grown := 0; grown < 4; grown++ {
		for _, dir := range append([]vec.V{nil}, fan...) {
			check(0, dir)
		}
		check(1, nil)
		check(2, nil)
		if grown == 3 {
			break
		}
		add := rng.Intn(m)
		for i, h := range hs {
			if !h.in[add] {
				h.join(fam, add, &scs[i])
			}
		}
	}
	return accepted
}

// TestLazyHullsAllocationCeiling pins the allocations of one call of
// each lazy-hull entry at make bench-lp's shapes to the counts measured
// with the warm-grown working family (in parentheses, the counts before
// it): SupportPoints over 4 directions 6 (44) and a Gamma
// point 3 (15), at n=9 f=2 d=2 and d=3, and MinIntersectionDelta at
// n=7 f=2 d=2 52/52 (64/72) and n=9 f=2 d=3 76/67 (85/73) for p = 1/∞.
// The SupportPoints family grows by 3 or more blocks, so the growth path
// (Extend, the per-block row writer, the objective row) is pinned too.
func TestLazyHullsAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops scratch at random")
	}
	fan := make([]vec.V, 4)
	for i := range fan {
		a := 2 * math.Pi * float64(i) / 4
		fan[i] = vec.Of(math.Cos(a), math.Sin(a))
	}
	planar := DroppedSubsets(randSet(rand.New(rand.NewSource(9)), 9, 2, 3), 2)
	before := gammaBlocks.Value()
	SupportPoints(planar, fan)
	if grown := gammaBlocks.Value() - before - 3; grown < 3 {
		t.Fatalf("SupportPoints: the working family grew by %d blocks, want a case that grows by 3 or more", grown)
	}
	if got := testing.AllocsPerRun(50, func() { SupportPoints(planar, fan) }); got > 6 {
		t.Errorf("SupportPoints: %.0f allocations, ceiling 6", got)
	}
	spatial := DroppedSubsets(randSet(rand.New(rand.NewSource(9)), 9, 3, 3), 2)
	if got := testing.AllocsPerRun(50, func() { IntersectHulls(spatial) }); got > 3 {
		t.Errorf("Gamma point: %.0f allocations, ceiling 3", got)
	}
	for _, c := range []struct {
		n, d    int
		ceiling [2]float64 // p = 1, p = +Inf
	}{{7, 2, [2]float64{52, 52}}, {9, 3, [2]float64{76, 67}}} {
		fam := DroppedSubsets(randSet(rand.New(rand.NewSource(9)), c.n, c.d, 3), 2)
		for i, p := range []float64{1, math.Inf(1)} {
			if got := testing.AllocsPerRun(50, func() { MinIntersectionDelta(fam, p) }); got > c.ceiling[i] {
				t.Errorf("MinIntersectionDelta n=%d d=%d p=%v: %.0f allocations, ceiling %.0f", c.n, c.d, p, got, c.ceiling[i])
			}
		}
	}
}
