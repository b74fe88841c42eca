// Package relax implements the relaxed convex hulls of the paper and the
// intersection machinery its algorithms and impossibility arguments need:
//
//   - H_k(S), the k-relaxed convex hull of Definition 6, via projection
//     membership tests;
//   - Gamma(Y) = intersection over |T| = |Y|-f of H(T) (Section 3), as a
//     single exact LP with one weight simplex per subset;
//   - Psi_k(Y) = intersection over T of H_k(T) (proof of Theorem 3);
//   - Gamma_(delta,p)(S) = intersection over T of H_(delta,p)(T)
//     (Algorithm ALGO, Section 9), exactly for p in {1, inf} via LP, with
//     delta minimization giving delta*_1 and delta*_inf in closed LP form.
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
	// Revolving-door order: consecutive subsets D differ in one
	// coordinate, keeping the reused projection buffers and the memo
	// cache's working set maximally warm. The conjunction is
	// order-independent, so the answer matches the lexicographic sweep.
	vec.CombinationsGray(q.Dim(), k, func(D []int) bool {
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
// is an exact LP feasibility with a shared free point x and one convex
// weight simplex per set, short-cut by the Intersector prefilters when
// they can settle the family without an LP.
func IntersectHulls(sets []*vec.Set) (point vec.V, ok bool) {
	return Intersector{Kind: HullExact}.Intersect(sets, nil)
}

// GammaPoint finds a point in Gamma(Y) = intersection over T of H(T)
// with |T| = |Y| - f, or ok=false when Gamma(Y) is empty (memoized). By
// Tverberg's theorem Gamma(Y) is non-empty whenever |Y| >= (d+1)f + 1.
func GammaPoint(y *vec.Set, f int) (vec.V, bool) {
	k := setKey(opGamma, y, f, 0)
	defer k.Release()
	var e gammaEntry
	if v, hit := cache.Get(k); hit {
		e = v.(gammaEntry)
	} else {
		pt, ok := IntersectHulls(DroppedSubsets(y, f))
		e = cache.Put(k, gammaEntry{pt: pt, ok: ok}).(gammaEntry)
	}
	if !e.ok {
		return nil, false
	}
	return e.pt.Clone(), true
}

// projBlock identifies one (set, D) pair of a k-relaxed intersection.
type projBlock struct {
	set *vec.Set
	D   []int
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
// Section 9.2.2 for polyhedral norms.
func MinIntersectionDelta(sets []*vec.Set, p float64) (delta float64, point vec.V) {
	x, val, feasible := relaxedLP(sets, p, nil)
	if !feasible {
		panic("relax: MinIntersectionDelta infeasible (cannot happen: delta is free)")
	}
	return val, x
}

// relaxedLP builds and solves the shared LP behind IntersectRelaxedHulls
// and MinIntersectionDelta. If fixedDelta is nil, delta is a variable and
// the LP minimizes it; otherwise delta is fixed and the LP is a pure
// feasibility problem.
func relaxedLP(sets []*vec.Set, p float64, fixedDelta *float64) (vec.V, float64, bool) {
	prob, d, ok := relaxedLPProblem(sets, p, fixedDelta)
	if !ok {
		return nil, 0, false
	}
	res, err := prob.Solve()
	if err != nil {
		panic(err)
	}
	if res.Status != lp.Optimal {
		return nil, 0, false
	}
	x := vec.V(res.X[:d]).Clone()
	val := 0.0
	if fixedDelta == nil {
		val = math.Max(res.X[d], 0)
	}
	return x, val, true
}

// relaxedLPProblem constructs the LP without solving it. The returned
// problem places x in variables [0,d) and (when fixedDelta is nil) delta
// at variable d with a minimize-delta objective preset. ok=false when a
// set is empty (trivially infeasible).
func relaxedLPProblem(sets []*vec.Set, p float64, fixedDelta *float64) (*lp.Problem, int, bool) {
	return relaxedLPProblemInto(nil, sets, p, fixedDelta)
}

// relaxedLPProblemInto is relaxedLPProblem writing into a reusable
// Problem (nil allocates a fresh one).
func relaxedLPProblemInto(reuse *lp.Problem, sets []*vec.Set, p float64, fixedDelta *float64) (*lp.Problem, int, bool) {
	if len(sets) == 0 {
		panic("relax: empty family")
	}
	isInf := math.IsInf(p, 1)
	if !isInf && p != 1 {
		panic(fmt.Sprintf("relax: relaxed-hull LP supports p in {1, inf}, got %v", p))
	}
	d := sets[0].Dim()
	// Variables: x (d, free); delta (1) if not fixed; per set: lambda
	// (m_i); for p=1 additionally per set: t (d deviations >= 0).
	nv := d
	deltaVar := -1
	if fixedDelta == nil {
		deltaVar = nv
		nv++
	}
	rs := getRowScratch()
	defer rs.release()
	lamOff := rs.offsets(0, len(sets))
	devOff := rs.offsets(1, len(sets))
	for i, s := range sets {
		if s.Len() == 0 {
			return nil, d, false
		}
		if s.Dim() != d {
			panic("relax: dimension mismatch")
		}
		lamOff[i] = nv
		nv += s.Len()
		if !isInf {
			devOff[i] = nv
			nv += d
		}
	}
	prob := newOrReset(reuse, nv)
	for j := 0; j < d; j++ {
		prob.SetFree(j)
	}
	if deltaVar >= 0 {
		obj := rs.zeroRow(nv)
		obj[deltaVar] = 1
		prob.SetObjective(obj, lp.Minimize)
	}
	dval := 0.0
	if fixedDelta != nil {
		dval = *fixedDelta
	}
	for i, s := range sets {
		m := s.Len()
		rs.idx, rs.val = rs.idx[:0], rs.val[:0]
		for t := 0; t < m; t++ {
			rs.idx = append(rs.idx, lamOff[i]+t)
			rs.val = append(rs.val, 1)
		}
		prob.AddSparseConstraint(rs.idx, rs.val, lp.EQ, 1)
		for j := 0; j < d; j++ {
			// r_j = x[j] - sum lambda_t s_t[j]; require |r_j| <= bound where
			// bound is delta (p=inf) or t_j (p=1).
			rs.idx, rs.val = rs.idx[:0], rs.val[:0]
			rs.idx = append(rs.idx, j)
			rs.val = append(rs.val, 1)
			for t := 0; t < m; t++ {
				rs.idx = append(rs.idx, lamOff[i]+t)
				rs.val = append(rs.val, -s.At(t)[j])
			}
			addBound := func(sign float64) {
				rs.ci, rs.cv = rs.ci[:0], rs.cv[:0]
				rs.ci = append(rs.ci, rs.idx...)
				for _, v := range rs.val {
					rs.cv = append(rs.cv, sign*v)
				}
				if isInf {
					if deltaVar >= 0 {
						rs.ci = append(rs.ci, deltaVar)
						rs.cv = append(rs.cv, -1)
						prob.AddSparseConstraint(rs.ci, rs.cv, lp.LE, 0)
					} else {
						prob.AddSparseConstraint(rs.ci, rs.cv, lp.LE, dval)
					}
				} else {
					rs.ci = append(rs.ci, devOff[i]+j)
					rs.cv = append(rs.cv, -1)
					prob.AddSparseConstraint(rs.ci, rs.cv, lp.LE, 0)
				}
			}
			addBound(1)
			addBound(-1)
		}
		if !isInf {
			// sum_j t_j <= delta for this set.
			rs.ci, rs.cv = rs.ci[:0], rs.cv[:0]
			for j := 0; j < d; j++ {
				rs.ci = append(rs.ci, devOff[i]+j)
				rs.cv = append(rs.cv, 1)
			}
			if deltaVar >= 0 {
				rs.ci = append(rs.ci, deltaVar)
				rs.cv = append(rs.cv, -1)
				prob.AddSparseConstraint(rs.ci, rs.cv, lp.LE, 0)
			} else {
				prob.AddSparseConstraint(rs.ci, rs.cv, lp.LE, dval)
			}
		}
	}
	return prob, d, true
}

// GammaDeltaPoint finds a point in Gamma_(delta,p)(S) =
// intersection over T (|T| = |S|-f) of H_(delta,p)(T), for p in {1,inf}.
func GammaDeltaPoint(s *vec.Set, f int, delta, p float64) (vec.V, bool) {
	return IntersectRelaxedHulls(DroppedSubsets(s, f), delta, p)
}

// DeltaStarPoly returns delta*_p(S) for the polyhedral norms p in
// {1, inf}: the smallest delta making Gamma_(delta,p)(S) non-empty,
// together with the deterministic point chosen at that delta (memoized).
func DeltaStarPoly(s *vec.Set, f int, p float64) (float64, vec.V) {
	k := setKey(opDeltaPoly, s, f, p)
	defer k.Release()
	var e deltaEntry
	if v, hit := cache.Get(k); hit {
		e = v.(deltaEntry)
	} else {
		delta, pt := MinIntersectionDelta(DroppedSubsets(s, f), p)
		e = cache.Put(k, deltaEntry{delta: delta, pt: pt}).(deltaEntry)
	}
	return e.delta, e.pt.Clone()
}
