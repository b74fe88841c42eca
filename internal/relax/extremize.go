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
	prob := buildKIntersectionLPInto(nil, sets, k)
	return extremize(prob, sets[0].Dim(), coord)
}

// ExtremizeRelaxedCoordinate is the (delta,p)-relaxed analogue for
// p in {1, +Inf}: min/max of the coordinate over the intersection of the
// relaxed hulls.
func ExtremizeRelaxedCoordinate(sets []*vec.Set, delta, p float64, coord int) (lo, hi float64, feasible bool) {
	prob, d, _ := relaxedLPProblemInto(nil, sets, p, &delta)
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

// buildKIntersectionLPInto builds the feasibility LP of IntersectKHulls
// (one weight simplex per set and size-k coordinate subset D) into a
// reusable Problem (nil allocates a fresh one). Returns nil when a set
// is empty.
func buildKIntersectionLPInto(reuse *lp.Problem, sets []*vec.Set, k int) *lp.Problem {
	if len(sets) == 0 {
		panic("relax: empty family")
	}
	if k < 1 || k > sets[0].Dim() {
		panic("relax: k out of range")
	}
	var ds [][]int
	vec.Combinations(sets[0].Dim(), k, func(D []int) bool {
		ds = append(ds, append([]int(nil), D...))
		return true
	})
	return buildBlockLPInto(reuse, sets, ds)
}

// buildHullIntersectionLPInto builds the feasibility LP of the
// intersection of the hulls of sets (one weight simplex per set) into a
// reusable Problem (nil allocates a fresh one). Returns nil when a set
// is empty.
func buildHullIntersectionLPInto(reuse *lp.Problem, sets []*vec.Set) *lp.Problem {
	all := make([]int, sets[0].Dim())
	for j := range all {
		all[j] = j
	}
	return buildBlockLPInto(reuse, sets, [][]int{all})
}

// buildBlockLPInto builds the LP whose free point x (variables [0,d))
// has, for every set and every coordinate subset D of ds, its
// D-coordinates in the hull of the set's D-projections: one weight
// simplex per (set, D) block, blocks in that order. Returns nil when a
// set is empty.
func buildBlockLPInto(reuse *lp.Problem, sets []*vec.Set, ds [][]int) *lp.Problem {
	if len(sets) == 0 {
		panic("relax: empty family")
	}
	d := sets[0].Dim()
	if !checkFamily(sets, d) {
		return nil
	}
	nv := d
	for _, s := range sets {
		nv += len(ds) * s.Len()
	}
	p := newOrReset(reuse, nv)
	for j := 0; j < d; j++ {
		p.SetFree(j)
	}
	rs := getRowScratch()
	defer rs.release()
	off := d
	for _, s := range sets {
		m := s.Len()
		for _, D := range ds {
			rs.idx, rs.val = rs.idx[:0], rs.val[:0]
			for t := 0; t < m; t++ {
				rs.idx = append(rs.idx, off+t)
				rs.val = append(rs.val, 1)
			}
			p.AddSparseConstraint(rs.idx, rs.val, lp.EQ, 1)
			for _, j := range D {
				rs.ci, rs.cv = rs.ci[:0], rs.cv[:0]
				for t := 0; t < m; t++ {
					rs.ci = append(rs.ci, off+t)
					rs.cv = append(rs.cv, s.At(t)[j])
				}
				rs.ci = append(rs.ci, j)
				rs.cv = append(rs.cv, -1)
				p.AddSparseConstraint(rs.ci, rs.cv, lp.EQ, 0)
			}
			off += m
		}
	}
	return p
}
