package relax

import (
	"math"

	"relaxedbvc/internal/lp"
	"relaxedbvc/internal/vec"
)

// ExtremizeKCoordinate computes the minimum and maximum value of
// coordinate `coord` over the intersection of the k-relaxed hulls of the
// sets. feasible=false when the intersection is empty. Values of
// -Inf/+Inf indicate the coordinate is unbounded over the intersection
// (impossible for k = d but possible for k < d, where the relaxed hulls
// are unbounded cylinders).
//
// This implements the per-coordinate "Observations" of the proofs of
// Theorems 3 and 4: e.g. for the Appendix B matrix, the minimum of
// coordinate 1 over Psi^1(S) is 2*eps while its maximum over Psi^2(S) is
// 0, certifying the epsilon-agreement violation.
func ExtremizeKCoordinate(sets []*vec.Set, k, coord int) (lo, hi float64, feasible bool) {
	prob, d := buildKIntersectionLP(sets, k)
	return extremize(prob, d, coord)
}

// ExtremizeRelaxedCoordinate is the (delta,p)-relaxed analogue for
// p in {1, +Inf}: min/max of the coordinate over the intersection of the
// relaxed hulls.
func ExtremizeRelaxedCoordinate(sets []*vec.Set, delta, p float64, coord int) (lo, hi float64, feasible bool) {
	prob, d := buildRelaxedLP(sets, p, &delta)
	return extremize(prob, d, coord)
}

// extremize minimizes and maximizes variable coord of prob (nil: a set
// was empty) from one feasible basis.
func extremize(prob *lp.Problem, d, coord int) (lo, hi float64, feasible bool) {
	if prob == nil {
		return 0, 0, false
	}
	if coord < 0 || coord >= d {
		panic("relax: extremize coordinate out of range")
	}
	obj := make([]float64, prob.NumVars())
	obj[coord] = 1
	basis := prob.Prepare()
	defer basis.Release()
	lo, hi = math.Inf(-1), math.Inf(1)
	switch res := basis.Solve(obj, lp.Minimize); res.Status {
	case lp.Optimal:
		lo = res.X[coord]
	case lp.Unbounded:
	default:
		return 0, 0, false
	}
	if res := basis.Solve(obj, lp.Maximize); res.Status == lp.Optimal {
		hi = res.X[coord]
	}
	return lo, hi, true
}

// buildKIntersectionLP constructs the feasibility LP of IntersectKHulls
// without solving it. Returns (nil, d) when a set is empty (trivially
// infeasible).
func buildKIntersectionLP(sets []*vec.Set, k int) (*lp.Problem, int) {
	return buildKIntersectionLPInto(nil, sets, k)
}

// buildKIntersectionLPInto is buildKIntersectionLP writing into a
// reusable Problem (nil allocates a fresh one).
func buildKIntersectionLPInto(reuse *lp.Problem, sets []*vec.Set, k int) (*lp.Problem, int) {
	if len(sets) == 0 {
		panic("relax: empty family")
	}
	d := sets[0].Dim()
	if k < 1 || k > d {
		panic("relax: k out of range")
	}
	var blocks []projBlock
	for _, s := range sets {
		if s.Len() == 0 {
			return nil, d
		}
		if s.Dim() != d {
			panic("relax: dimension mismatch")
		}
		vec.Combinations(d, k, func(D []int) bool {
			blocks = append(blocks, projBlock{set: s, D: append([]int(nil), D...)})
			return true
		})
	}
	nv := d
	rs := getRowScratch()
	defer rs.release()
	offsets := rs.offsets(0, len(blocks))
	for i, b := range blocks {
		offsets[i] = nv
		nv += b.set.Len()
	}
	p := newOrReset(reuse, nv)
	for j := 0; j < d; j++ {
		p.SetFree(j)
	}
	for i, b := range blocks {
		m := b.set.Len()
		rs.idx, rs.val = rs.idx[:0], rs.val[:0]
		for t := 0; t < m; t++ {
			rs.idx = append(rs.idx, offsets[i]+t)
			rs.val = append(rs.val, 1)
		}
		p.AddSparseConstraint(rs.idx, rs.val, lp.EQ, 1)
		for _, j := range b.D {
			rs.ci, rs.cv = rs.ci[:0], rs.cv[:0]
			for t := 0; t < m; t++ {
				rs.ci = append(rs.ci, offsets[i]+t)
				rs.cv = append(rs.cv, b.set.At(t)[j])
			}
			rs.ci = append(rs.ci, j)
			rs.cv = append(rs.cv, -1)
			p.AddSparseConstraint(rs.ci, rs.cv, lp.EQ, 0)
		}
	}
	return p, d
}

// buildRelaxedLP constructs the LP of relaxedLP without solving; the
// delta pointer semantics match relaxedLP (nil = minimize delta, which is
// not meaningful here, so extremize callers always pass a fixed delta).
func buildRelaxedLP(sets []*vec.Set, p float64, fixedDelta *float64) (*lp.Problem, int) {
	prob, d, feasiblePrecheck := relaxedLPProblem(sets, p, fixedDelta)
	if !feasiblePrecheck {
		return nil, d
	}
	return prob, d
}

// SupportPoints returns, for every direction of dirs, the maximizer of
// <dir, x> over the intersection of the convex hulls of the sets: one LP
// build and one phase 1, then one phase 2 per direction off the shared
// feasible basis. Entry i is nil when direction i has no optimum — every
// entry when the intersection is empty. Because the intersection of
// hulls is a bounded polytope, the maximum exists whenever it is
// non-empty. Each point is an extreme point of the intersection in its
// direction; convex hull consensus builds identical inner approximations
// of Gamma(S) at every process from them.
func SupportPoints(sets []*vec.Set, dirs []vec.V) []vec.V {
	if len(sets) == 0 {
		panic("relax: empty family")
	}
	d := sets[0].Dim()
	pts := make([]vec.V, len(dirs))
	prob := buildHullIntersectionLP(sets)
	if prob == nil {
		return pts
	}
	basis := prob.Prepare()
	defer basis.Release()
	obj := make([]float64, prob.NumVars())
	for i, dir := range dirs {
		if dir.Dim() != d {
			panic("relax: SupportPoints direction dimension mismatch")
		}
		copy(obj, dir)
		if res := basis.Solve(obj, lp.Maximize); res.Status == lp.Optimal {
			pts[i] = vec.V(res.X[:d]).Clone()
		}
	}
	return pts
}

// buildHullIntersectionLP constructs the IntersectHulls feasibility LP
// without solving it (x in variables [0,d)). Returns nil when a set is
// empty.
func buildHullIntersectionLP(sets []*vec.Set) *lp.Problem {
	return buildHullIntersectionLPInto(nil, sets)
}

// buildHullIntersectionLPInto is buildHullIntersectionLP writing into a
// reusable Problem (nil allocates a fresh one).
func buildHullIntersectionLPInto(reuse *lp.Problem, sets []*vec.Set) *lp.Problem {
	d := sets[0].Dim()
	nv := d
	rs := getRowScratch()
	defer rs.release()
	offsets := rs.offsets(0, len(sets))
	for i, s := range sets {
		if s.Len() == 0 {
			return nil
		}
		if s.Dim() != d {
			panic("relax: dimension mismatch")
		}
		offsets[i] = nv
		nv += s.Len()
	}
	p := newOrReset(reuse, nv)
	for j := 0; j < d; j++ {
		p.SetFree(j)
	}
	for i, s := range sets {
		m := s.Len()
		rs.idx, rs.val = rs.idx[:0], rs.val[:0]
		for t := 0; t < m; t++ {
			rs.idx = append(rs.idx, offsets[i]+t)
			rs.val = append(rs.val, 1)
		}
		p.AddSparseConstraint(rs.idx, rs.val, lp.EQ, 1)
		for j := 0; j < d; j++ {
			rs.ci, rs.cv = rs.ci[:0], rs.cv[:0]
			for t := 0; t < m; t++ {
				rs.ci = append(rs.ci, offsets[i]+t)
				rs.cv = append(rs.cv, s.At(t)[j])
			}
			rs.ci = append(rs.ci, j)
			rs.cv = append(rs.cv, -1)
			p.AddSparseConstraint(rs.ci, rs.cv, lp.EQ, 0)
		}
	}
	return p
}
