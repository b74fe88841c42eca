// Package relax implements the relaxed convex hulls of the paper and the
// intersection machinery its algorithms and impossibility arguments need:
//
//   - H_k(S), the k-relaxed convex hull of Definition 6, via projection
//     membership tests;
//   - Gamma(Y) = intersection over |T| = |Y|-f of H(T) (Section 3), by
//     lazy block generation: an LP with one weight simplex per subset of
//     a working family that grows until every hull accepts its point;
//   - Psi_k(Y) = intersection over T of H_k(T) (proof of Theorem 3);
//   - Gamma_(delta,p)(S) = intersection over T of H_(delta,p)(T)
//     (Algorithm ALGO, Section 9), exactly for p in {1, inf} via LP, with
//     delta minimization giving delta*_1 and delta*_inf, by the same lazy
//     block generation as Gamma(Y).
//
// The generic building blocks operate on arbitrary finite families of
// point sets, so the same code serves both the Gamma/Psi subset families
// and the per-process families of the asynchronous lower-bound proofs.
package relax

import (
	"fmt"
	"math"
	"sync"

	"relaxedbvc/internal/geom"
	"relaxedbvc/internal/lp"
	"relaxedbvc/internal/vec"
)

// projScratchPool recycles projection buffers across InHullK sweeps so
// the per-subset projections of the steady-state inner loop allocate
// nothing.
var projScratchPool = sync.Pool{New: func() any { return new(vec.ProjScratch) }}

// InHullK reports whether q lies in H_k(S): for every size-k index subset
// D of the coordinates, the D-projection of q lies in the convex hull of
// the D-projections of S (Definition 6).
func InHullK(q vec.V, s *vec.Set, k int) bool {
	d := q.Dim()
	if k < 1 || k > d {
		panic(fmt.Sprintf("relax: InHullK requires 1 <= k <= d, got k=%d d=%d", k, d))
	}
	// Accept-only prefilter: conv(S) is contained in H_k(S) — the
	// D-projection of a convex combination is a convex combination of the
	// D-projections — so one full-space membership accept certifies all
	// C(d,k) projection tests at once. Sound in both directions it is
	// used: an accept is exact, a miss just falls through to the sweep.
	if k < d && geom.InHull(q, s) {
		kprojConvAccepts.Inc()
		return true
	}
	return inHullKSweep(q, s, k)
}

// inHullKSweep is Definition 6 itself: the conjunction of the C(d,k)
// projected membership tests.
func inHullKSweep(q vec.V, s *vec.Set, k int) bool {
	ps := projScratchPool.Get().(*vec.ProjScratch)
	defer projScratchPool.Put(ps)
	in := true
	vec.Combinations(q.Dim(), k, func(D []int) bool {
		if !geom.InHull(ps.ProjectInto(q, D), ps.ProjectSetInto(s, D)) {
			in = false
			return false
		}
		return true
	})
	return in
}

// DroppedSubsets returns the family of sub-multisets T of Y with
// |T| = |Y| - f, in deterministic (lexicographic) order.
func DroppedSubsets(y *vec.Set, f int) []*vec.Set {
	if f < 0 || f >= y.Len() {
		panic("relax: DroppedSubsets requires 0 <= f < |Y|")
	}
	var fam []*vec.Set
	vec.IndexSubsetsDroppingF(y.Len(), f, func(keep []int) bool {
		fam = append(fam, y.Subset(keep))
		return true
	})
	return fam
}

// IntersectHulls finds a point in the intersection of the convex hulls of
// the given sets, or ok=false if the intersection is empty. The decision
// is LP feasibility with a shared free point x and one convex weight
// simplex per set of a lazily grown working family (lazyHulls), short-cut
// by the Intersector prefilters when they can settle the family without
// an LP.
func IntersectHulls(sets []*vec.Set) (point vec.V, ok bool) {
	return Intersector{Kind: HullExact}.Intersect(sets, nil)
}

// GammaPoint finds a point in Gamma(Y) = intersection over T of H(T)
// with |T| = |Y| - f, or ok=false when Gamma(Y) is empty. By Tverberg's
// theorem Gamma(Y) is non-empty whenever |Y| >= (d+1)f + 1.
func GammaPoint(y *vec.Set, f int) (vec.V, bool) {
	return IntersectHulls(DroppedSubsets(y, f))
}

// IntersectKHulls finds a point in the intersection of the k-relaxed
// hulls H_k of the given sets, or ok=false if empty. Each (set, D) pair
// contributes a weight simplex over the D-projections; all constraints
// share the free point x. The Intersector prefilters run first.
func IntersectKHulls(sets []*vec.Set, k int) (vec.V, bool) {
	return Intersector{Kind: HullKProj, K: k}.Intersect(sets, nil)
}

// PsiKPoint finds a point in Psi_k(Y) = intersection over T (|T|=|Y|-f)
// of H_k(T), the feasible-output region of k-relaxed exact consensus in
// the proof of Theorem 3, or ok=false when the region is empty.
func PsiKPoint(y *vec.Set, f, k int) (vec.V, bool) {
	return IntersectKHulls(DroppedSubsets(y, f), k)
}

// IntersectRelaxedHulls finds a point in the intersection of the
// (delta,p)-relaxed hulls of the sets, for p in {1, +Inf} where the
// membership constraint is linear. ok=false when the intersection is
// empty. For p = 2 use minimax.DeltaStar2 and compare against delta.
// The Intersector prefilters run first.
func IntersectRelaxedHulls(sets []*vec.Set, delta, p float64) (vec.V, bool) {
	return Intersector{Kind: HullDeltaP, Delta: delta, P: p}.Intersect(sets, nil)
}

// MinIntersectionDelta returns delta*_p(S-family) = the smallest delta
// for which the intersection of the (delta,p)-relaxed hulls of the sets
// is non-empty, together with an attaining point, for p in {1, +Inf}.
// This is the exact LP analogue of the minimax definition of delta* in
// Section 9.2.2 for polyhedral norms, solved by lazy block generation
// (lazyHulls): the point is within delta + CertTol of every hull unless
// it is the joint LP's own uncertified answer.
func MinIntersectionDelta(sets []*vec.Set, p float64) (delta float64, point vec.V) {
	if len(sets) == 0 {
		panic("relax: empty family")
	}
	if p != 1 && !math.IsInf(p, 1) {
		panic(fmt.Sprintf("relax: relaxed-hull LP supports p in {1, inf}, got %v", p))
	}
	d := sets[0].Dim()
	var pt vec.V
	if checkFamily(sets, d) {
		// A scratch of its own, not the pool's: the call then builds one
		// fresh Problem and resets it once per round, so
		// lp_problem_resets_total does not depend on what the pool kept.
		var sc IntersectScratch
		pts, _ := lazyHulls(sets, p, []vec.V{nil}, &sc)
		pt = pts[0]
	}
	if pt == nil {
		panic("relax: MinIntersectionDelta infeasible (cannot happen: delta is free)")
	}
	return math.Max(pt[d], 0), pt[:d:d]
}

// relaxedLPProblemInto builds the LP of the (delta,p)-relaxed hull
// intersection into a reusable Problem (nil allocates a fresh one),
// without solving it. x is in variables [0,d); when fixedDelta is nil,
// delta is variable d under a minimize-delta objective, otherwise the LP
// is a pure feasibility problem. ok=false when a set is empty.
func relaxedLPProblemInto(reuse *lp.Problem, sets []*vec.Set, p float64, fixedDelta *float64) (*lp.Problem, int, bool) {
	if len(sets) == 0 {
		panic("relax: empty family")
	}
	if !math.IsInf(p, 1) && p != 1 {
		panic(fmt.Sprintf("relax: relaxed-hull LP supports p in {1, inf}, got %v", p))
	}
	d := sets[0].Dim()
	w := blockRows{p: p, delta: d}
	if fixedDelta != nil {
		w.delta, w.dval = -1, *fixedDelta
	}
	prob := buildLPInto(reuse, sets, nil, w)
	return prob, d, prob != nil
}

// GammaDeltaPoint finds a point in Gamma_(delta,p)(S) =
// intersection over T (|T| = |S|-f) of H_(delta,p)(T), for p in {1,inf}.
func GammaDeltaPoint(s *vec.Set, f int, delta, p float64) (vec.V, bool) {
	return IntersectRelaxedHulls(DroppedSubsets(s, f), delta, p)
}

// DeltaStarPoly returns delta*_p(S) for the polyhedral norms p in
// {1, inf}: the smallest delta making Gamma_(delta,p)(S) non-empty,
// together with the deterministic point chosen at that delta
// (MinIntersectionDelta over the dropped subsets).
func DeltaStarPoly(s *vec.Set, f int, p float64) (float64, vec.V) {
	return MinIntersectionDelta(DroppedSubsets(s, f), p)
}
