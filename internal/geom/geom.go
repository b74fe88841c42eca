// Package geom implements the convex-geometry primitives of the relaxed
// Byzantine vector consensus library: convex hull membership, point-to-
// hull distances in every Lp norm, and (delta,p)-relaxed hull membership
// (Definition 9 of the paper).
//
// Membership and L1/Linf distances are exact LP reductions; the L2
// distance uses Wolfe's finite min-norm-point algorithm; other p use
// Frank-Wolfe over the weight simplex with a certified duality gap.
package geom

import (
	"fmt"
	"math"
	"sync"

	"relaxedbvc/internal/lp"
	"relaxedbvc/internal/vec"
)

// InHull reports whether q lies in the convex hull of the points of s,
// decided by LP feasibility of the convex-combination system.
func InHull(q vec.V, s *vec.Set) bool {
	if s.Len() == 0 {
		return false
	}
	if q.Dim() != s.Dim() {
		panic("geom: InHull dimension mismatch")
	}
	return inHullLP(q, s)
}

// hullScratch bundles a reusable LP problem and row buffer so the hot
// membership/distance predicates build their LPs without allocating;
// Problem.Reset recycles retired constraint rows through its free list.
type hullScratch struct {
	prob *lp.Problem
	row  []float64
}

var hullScratchPool = sync.Pool{New: func() any {
	return &hullScratch{prob: lp.NewProblem(0)}
}}

func (h *hullScratch) rowBuf(n int) []float64 {
	h.row = growF(h.row, n)
	clear(h.row)
	return h.row
}

// inHullLP is the exact LP membership test, on a pooled Problem.
func inHullLP(q vec.V, s *vec.Set) bool {
	h := hullScratchPool.Get().(*hullScratch)
	defer hullScratchPool.Put(h)
	m := s.Len()
	p := h.prob
	p.Reset(m)
	row := h.rowBuf(m)
	for k := 0; k < q.Dim(); k++ {
		for i := 0; i < m; i++ {
			row[i] = s.At(i)[k]
		}
		p.AddConstraint(row, lp.EQ, q[k])
	}
	for i := range row {
		row[i] = 1
	}
	p.AddConstraint(row, lp.EQ, 1)
	res, err := p.Solve()
	if err != nil {
		panic(err)
	}
	return res.Status == lp.Optimal
}

// DistInf returns the L-infinity distance from q to conv(s), together with
// the nearest hull point. Exact LP:
//
//	min t  s.t.  |q - sum lambda_i s_i|_k <= t for all k, lambda in simplex.
func DistInf(q vec.V, s *vec.Set) (float64, vec.V) {
	return polyDistNear(q, s, math.Inf(1))
}

// Dist1 returns the L1 distance from q to conv(s) and the nearest hull
// point, via the exact LP with per-coordinate deviation variables.
func Dist1(q vec.V, s *vec.Set) (float64, vec.V) {
	return polyDistNear(q, s, 1)
}

// DistPolyLP is the exact L1 (p = 1) or L-infinity (p = +Inf) distance
// from q to conv(s) by its LP, without the nearest point. ok=false when
// the float simplex fails on the LP (feasible and bounded in exact
// arithmetic), where DistP panics.
func DistPolyLP(q vec.V, s *vec.Set, p float64) (dist float64, ok bool) {
	if p != 1 && !math.IsInf(p, 1) {
		panic(fmt.Sprintf("geom: DistPolyLP requires p in {1, +Inf}, got %v", p))
	}
	dist, w := polyDistLP(q, s, p)
	return dist, w != nil
}

// WitnessDist returns ||x - q||_p for the witness q = sum w'_i s_i,
// where w' is w clamped at 0 and renormalized. q is a convex combination
// of s's points, so the result bounds the Lp distance from x to conv(s)
// from above, as Wolfe's near point does. w nil takes the weights of the
// L-infinity distance LP from x to conv(s). The result is NaN when no
// weight is positive, the LP fails or the residual has a NaN, so no
// tolerance test accepts it. buf is caller-owned scratch of x's
// dimension.
func WitnessDist(x vec.V, s *vec.Set, w []float64, p float64, buf vec.V) float64 {
	if w == nil {
		if _, w = distInfLP(x, s); w == nil {
			return math.NaN()
		}
	}
	sum := 0.0
	for _, l := range w {
		if l > 0 {
			sum += l
		}
	}
	if !(sum > 0) {
		return math.NaN()
	}
	copy(buf, x)
	for i, l := range w {
		if l > 0 {
			buf.AXPY(-l/sum, s.At(i))
		}
	}
	for _, r := range buf {
		if math.IsNaN(r) {
			return math.NaN()
		}
	}
	return buf.NormP(p)
}

// polyDistNear is the exact L1 or L-infinity distance with the nearest
// hull point; it panics when the LP fails.
func polyDistNear(q vec.V, s *vec.Set, p float64) (float64, vec.V) {
	dist, w := polyDistLP(q, s, p)
	if w == nil {
		name := "DistInf"
		if p == 1 {
			name = "Dist1"
		}
		panic("geom: " + name + " LP failed")
	}
	return dist, combine(s, w)
}

// polyDistLP solves the distance LP of p = 1 or p = +Inf and returns the
// distance and the hull weights, or nil weights when the LP has no
// optimum.
func polyDistLP(q vec.V, s *vec.Set, p float64) (float64, []float64) {
	if p == 1 {
		return dist1LP(q, s)
	}
	return distInfLP(q, s)
}

func distInfLP(q vec.V, s *vec.Set) (float64, []float64) {
	m, d := s.Len(), q.Dim()
	if m == 0 {
		panic("geom: DistInf on empty set")
	}
	h := hullScratchPool.Get().(*hullScratch)
	defer hullScratchPool.Put(h)
	// Variables: lambda_0..m-1, t.
	p := h.prob
	p.Reset(m + 1)
	row := h.rowBuf(m + 1)
	row[m] = 1
	p.SetObjective(row, lp.Minimize)
	for k := 0; k < d; k++ {
		// sum lambda_i s_i[k] + t >= q[k]   and   sum lambda_i s_i[k] - t <= q[k]
		for i := 0; i < m; i++ {
			row[i] = s.At(i)[k]
		}
		row[m] = 1
		p.AddConstraint(row, lp.GE, q[k])
		row[m] = -1
		p.AddConstraint(row, lp.LE, q[k])
	}
	for i := 0; i < m; i++ {
		row[i] = 1
	}
	row[m] = 0
	p.AddConstraint(row, lp.EQ, 1)
	res, err := p.Solve()
	if err != nil || res.Status != lp.Optimal {
		return 0, nil
	}
	return math.Max(res.X[m], 0), res.X[:m]
}

func dist1LP(q vec.V, s *vec.Set) (float64, []float64) {
	m, d := s.Len(), q.Dim()
	if m == 0 {
		panic("geom: Dist1 on empty set")
	}
	h := hullScratchPool.Get().(*hullScratch)
	defer hullScratchPool.Put(h)
	// Variables: lambda_0..m-1, t_0..d-1.
	p := h.prob
	p.Reset(m + d)
	row := h.rowBuf(m + d)
	for k := 0; k < d; k++ {
		row[m+k] = 1
	}
	p.SetObjective(row, lp.Minimize)
	for k := 0; k < d; k++ {
		clear(row)
		for i := 0; i < m; i++ {
			row[i] = s.At(i)[k]
		}
		row[m+k] = 1
		p.AddConstraint(row, lp.GE, q[k])
		row[m+k] = -1
		p.AddConstraint(row, lp.LE, q[k])
	}
	clear(row)
	for i := 0; i < m; i++ {
		row[i] = 1
	}
	p.AddConstraint(row, lp.EQ, 1)
	res, err := p.Solve()
	if err != nil || res.Status != lp.Optimal {
		return 0, nil
	}
	return math.Max(res.Objective, 0), res.X[:m]
}

func combine(s *vec.Set, w []float64) vec.V {
	out := vec.New(s.Dim())
	for i := 0; i < s.Len(); i++ {
		out.AXPY(w[i], s.At(i))
	}
	return out
}

// DistP returns the Lp distance from q to conv(s) and the nearest hull
// point. p = 1, 2 and Inf dispatch to the exact algorithms; other p >= 1
// use Frank-Wolfe with a duality-gap certificate of 1e-9 absolute.
func DistP(q vec.V, s *vec.Set, p float64) (float64, vec.V) {
	switch {
	case p == 1:
		return Dist1(q, s)
	case p == 2:
		return Dist2(q, s)
	case math.IsInf(p, 1):
		return DistInf(q, s)
	case p > 1:
		return distFW(q, s, p)
	}
	panic(fmt.Sprintf("geom: DistP requires p >= 1, got %v", p))
}

// InRelaxedHull reports membership of q in H_(delta,p)(S) per Definition 9:
// q is within Lp distance delta of conv(S). tol widens the test for float
// tolerance (pass 0 for a sharp test at machine precision).
func InRelaxedHull(q vec.V, s *vec.Set, delta, p, tol float64) bool {
	d, _ := DistP(q, s, p)
	return d <= delta+tol
}

// distFW minimizes ||q - S lambda||_p over the simplex by Frank-Wolfe.
// The objective is convex and differentiable for 1 < p < inf away from
// zero residual; if the residual reaches ~0 the distance is 0.
func distFW(q vec.V, s *vec.Set, p float64) (float64, vec.V) {
	m := s.Len()
	lam := make([]float64, m)
	for i := range lam {
		lam[i] = 1 / float64(m)
	}
	x := combine(s, lam)
	const iters = 600
	for it := 0; it < iters; it++ {
		r := x.Sub(q) // residual
		rn := r.NormP(p)
		if rn < 1e-12 {
			return 0, x
		}
		// Gradient of ||r||_p wrt x: sign(r_k) |r_k|^{p-1} / ||r||_p^{p-1}.
		g := make(vec.V, len(r))
		for k, rv := range r {
			if rv == 0 {
				continue
			}
			g[k] = math.Copysign(math.Pow(math.Abs(rv)/rn, p-1), rv)
		}
		// Linear minimization over the simplex: best vertex.
		best, bestVal := 0, math.Inf(1)
		for i := 0; i < m; i++ {
			v := g.Dot(s.At(i))
			if v < bestVal {
				best, bestVal = i, v
			}
		}
		gap := g.Dot(x) - bestVal
		if gap < 1e-10 {
			break
		}
		gamma := 2 / float64(it+2)
		// Line-search refinement: try a few step sizes and keep the best.
		target := s.At(best)
		bestStep, bestNorm := gamma, math.Inf(1)
		for _, step := range []float64{gamma, gamma / 2, math.Min(1, gamma*2), 1} {
			cand := vec.Lerp(x, target, step)
			if n := cand.Sub(q).NormP(p); n < bestNorm {
				bestStep, bestNorm = step, n
			}
		}
		x = vec.Lerp(x, target, bestStep)
	}
	return x.Sub(q).NormP(p), x
}
