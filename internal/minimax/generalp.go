package minimax

import (
	"math"

	"relaxedbvc/internal/geom"
	"relaxedbvc/internal/relax"
	"relaxedbvc/internal/vec"
)

// DeltaStarP computes delta*_p(S) — the smallest delta for which
// Gamma_(delta,p)(S) is non-empty — for a general Lp norm (p >= 1,
// math.Inf(1) allowed). This is the Section 9.3 quantity and the one
// dispatch of the delta* kernels: p = 2 uses DeltaStar2 (closed forms +
// L2 minimax); p = 1 and p = +Inf are exact LPs (relax.DeltaStarPoly,
// returned as Exact with Lower = Delta). Any other p gets a certified
// bracket at the delta*_2 point x, with no solver of its own: Delta =
// max_i ||x - near_i||_p, near_i the L2 nearest point of hull i, so x is
// (Delta,p)-valid by construction; Lower = c_p * Lower_2 by norm
// equivalence (||v||_p >= c_p ||v||_2, c_p = d^(1/p-1/2) for p > 2 and 1
// for p < 2). It is Converged only when DeltaStar2's is and it is no
// wider: in practice never where Gamma(S) is empty, and where it is not,
// as the rounding of the ~1e-16 residuals falls. The LP norms accept any
// f the LP does (f = 0 is the hull of S itself); the others need
// 1 <= f < |S|.
func DeltaStarP(s *vec.Set, f int, p float64) Result {
	switch {
	case p == 1 || math.IsInf(p, 1):
		delta, pt := relax.DeltaStarPoly(s, f, p)
		return Result{Delta: delta, Lower: delta, Point: pt, Exact: true, Converged: true}
	case f < 1 || f >= s.Len():
		panic("minimax: DeltaStarP requires 1 <= f < |S|")
	case p == 2:
		return DeltaStar2(s, f)
	case !(p >= 1): // NaN included
		panic("minimax: DeltaStarP requires p >= 1")
	}
	r := DeltaStar2(s, f)
	delta := 0.0
	for _, h := range relax.DroppedSubsets(s, f) {
		_, near := geom.Dist2(r.Point, h)
		delta = math.Max(delta, r.Point.Sub(near).NormP(p))
	}
	lower := r.Lower
	if p > 2 {
		lower /= HolderScale(s.Dim(), p)
	}
	converged := r.Converged && delta-lower <= r.Delta-r.Lower
	return Result{Delta: delta, Lower: lower, Point: r.Point, Converged: converged}
}
