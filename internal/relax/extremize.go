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
	return buildLPInto(reuse, sets, ds, blockRows{})
}

// buildLPInto builds into a reusable Problem (nil allocates a fresh one)
// the LP of the intersection of the hulls of sets of w's kind: the free
// point x in variables [0,d); for a relaxed kind whose δ is a variable,
// δ in variable d under a minimize-δ objective; then one block per set
// and coordinate subset D of ds (nil: one block of every coordinate),
// blocks in that order. Returns nil when a set is empty.
func buildLPInto(reuse *lp.Problem, sets []*vec.Set, ds [][]int, w blockRows) *lp.Problem {
	if len(sets) == 0 {
		panic("relax: empty family")
	}
	d := sets[0].Dim()
	if !checkFamily(sets, d) {
		return nil
	}
	if ds == nil {
		ds = [][]int{nil}
	}
	nv := d
	if w.p != 0 && w.delta >= 0 {
		nv++
	}
	off := nv
	for _, s := range sets {
		nv += len(ds) * w.vars(s)
	}
	w.prob, w.rs = newOrReset(reuse, nv), getRowScratch()
	defer w.rs.release()
	for j := 0; j < d; j++ {
		w.prob.SetFree(j)
	}
	if off > d {
		obj := w.rs.zeroRow(nv)
		obj[d] = 1
		w.prob.SetObjective(obj, lp.Minimize)
	}
	for _, s := range sets {
		for _, D := range ds {
			w.add(s, D, off)
			off += w.vars(s)
		}
	}
	return w.prob
}

// blockRows writes hull blocks into prob, whose free point x is
// variables [0,d): exact hulls (p = 0) or (δ,p)-relaxed ones (p in
// {1, +Inf}), δ variable delta or, when delta < 0, the constant dval.
// The cold builders and the lazy loop's warm growth write every block
// through add.
type blockRows struct {
	prob  *lp.Problem
	p     float64
	delta int
	dval  float64
	rs    *rowScratch
}

// vars returns the variable count of the block of s: its weights λ and,
// for p = 1, its d deviations t.
func (w blockRows) vars(s *vec.Set) int {
	if w.p == 1 {
		return s.Len() + s.Dim()
	}
	return s.Len()
}

// add writes the rows of the block of s over variables [off,
// off+vars(s)): sum λ = 1 and, per coordinate j of D (nil: every
// coordinate; exact hulls only), r_j = sum λ_t s_t[j] - x_j with
// r_j = 0 for an exact hull, |r_j| <= δ for p = +Inf, and |r_j| <= t_j,
// sum t_j <= δ for p = 1.
func (w blockRows) add(s *vec.Set, D []int, off int) {
	rs, m, k := w.rs, s.Len(), len(D)
	if D == nil {
		k = s.Dim()
	}
	rs.idx, rs.val = rs.idx[:0], rs.val[:0]
	for t := 0; t < m; t++ {
		rs.idx = append(rs.idx, off+t)
		rs.val = append(rs.val, 1)
	}
	w.prob.AddSparseConstraint(rs.idx, rs.val, lp.EQ, 1)
	for c := 0; c < k; c++ {
		j := c
		if D != nil {
			j = D[c]
		}
		rs.ci, rs.cv = append(rs.ci[:0], j), append(rs.cv[:0], -1)
		for t := 0; t < m; t++ {
			rs.ci = append(rs.ci, off+t)
			rs.cv = append(rs.cv, s.At(t)[j])
		}
		if w.p == 0 {
			w.prob.AddSparseConstraint(rs.ci, rs.cv, lp.EQ, 0)
			continue
		}
		bound := w.delta
		if w.p == 1 {
			bound = off + m + j
		}
		// -r_j <= bound, then r_j <= bound.
		for range 2 {
			rs.ci, rs.cv = rs.ci[:m+1], rs.cv[:m+1]
			for i, v := range rs.cv {
				rs.cv[i] = -v
			}
			w.addLE(bound)
		}
	}
	if w.p == 1 {
		// sum_j t_j <= delta for this set.
		rs.ci, rs.cv = rs.ci[:0], rs.cv[:0]
		for j := 0; j < k; j++ {
			rs.ci = append(rs.ci, off+m+j)
			rs.cv = append(rs.cv, 1)
		}
		w.addLE(w.delta)
	}
}

// addLE adds the row in rs.ci/rs.cv as "row - bound <= 0" for a bound
// variable, or as "row <= dval" for none (-1: delta fixed).
func (w blockRows) addLE(bound int) {
	if bound < 0 {
		w.prob.AddSparseConstraint(w.rs.ci, w.rs.cv, lp.LE, w.dval)
		return
	}
	w.rs.ci = append(w.rs.ci, bound)
	w.rs.cv = append(w.rs.cv, -1)
	w.prob.AddSparseConstraint(w.rs.ci, w.rs.cv, lp.LE, 0)
}
