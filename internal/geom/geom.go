// Package geom implements the convex-geometry primitives of the relaxed
// Byzantine vector consensus library: convex hull membership, point-to-
// hull distances in every Lp norm, (delta,p)-relaxed hull membership
// (Definition 9 of the paper), and Caratheodory decompositions.
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

// Eps is the default geometric tolerance used by membership predicates.
const Eps = 1e-7

// InHull reports whether q lies in the convex hull of the points of s,
// decided by LP feasibility of the convex-combination system behind a
// certified screen (see inHull). Results are memoized (see cache.go).
func InHull(q vec.V, s *vec.Set) bool {
	if s.Len() == 0 {
		return false
	}
	if q.Dim() != s.Dim() {
		panic("geom: InHull dimension mismatch")
	}
	k := pointSetKey(opInHull, q, s)
	defer k.Release()
	if v, ok := cache.Get(k); ok {
		return v.(bool)
	}
	return cache.Put(k, inHull(q, s)).(bool)
}

// inHull is the uncached decision behind InHull: a certified float
// screen decides the easy cases (its accept/reject certificates are
// verified against the input with margin over the LP tolerance) and
// only near-boundary queries fall through to the exact LP.
func inHull(q vec.V, s *vec.Set) bool {
	fsc := GetFilterScratch()
	in, decided := hullMembershipScreen(q, s, fsc)
	fsc.Release()
	if !decided {
		filterFallbacks.Inc()
		return inHullLP(q, s)
	}
	if in {
		filterAccepts.Inc()
	} else {
		filterRejects.Inc()
	}
	return in
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

// hullLP builds the feasibility LP: exists lambda in the simplex with
// sum lambda_i s_i = q.
func hullLP(q vec.V, s *vec.Set) *lp.Problem {
	m := s.Len()
	p := lp.NewProblem(m)
	for k := 0; k < q.Dim(); k++ {
		row := make([]float64, m)
		for i := 0; i < m; i++ {
			row[i] = s.At(i)[k]
		}
		p.AddConstraint(row, lp.EQ, q[k])
	}
	ones := make([]float64, m)
	for i := range ones {
		ones[i] = 1
	}
	p.AddConstraint(ones, lp.EQ, 1)
	return p
}

// HullWeights returns convex weights expressing q as a combination of the
// points of s, or ok=false if q is outside the hull. The weights come from
// a basic LP solution, so at most dim+1 of them are nonzero (Caratheodory,
// Theorem 11 in the paper's numbering).
func HullWeights(q vec.V, s *vec.Set) (weights []float64, ok bool) {
	if s.Len() == 0 {
		return nil, false
	}
	res, err := hullLP(q, s).Solve()
	if err != nil {
		panic(err)
	}
	if res.Status != lp.Optimal {
		return nil, false
	}
	return res.X, true
}

// Caratheodory returns indices and weights of at most d+1 points of s
// whose convex combination is q. ok=false if q is not in the hull.
func Caratheodory(q vec.V, s *vec.Set) (idx []int, weights []float64, ok bool) {
	w, ok := HullWeights(q, s)
	if !ok {
		return nil, nil, false
	}
	for i, wi := range w {
		if wi > 1e-12 {
			idx = append(idx, i)
			weights = append(weights, wi)
		}
	}
	// Renormalize the kept weights (dropped ones were numerically zero).
	sum := 0.0
	for _, wi := range weights {
		sum += wi
	}
	if sum <= 0 {
		return nil, nil, false
	}
	for i := range weights {
		weights[i] /= sum
	}
	return idx, weights, true
}

// DistInf returns the L-infinity distance from q to conv(s), together with
// the nearest hull point (memoized). Exact LP:
//
//	min t  s.t.  |q - sum lambda_i s_i|_k <= t for all k, lambda in simplex.
func DistInf(q vec.V, s *vec.Set) (float64, vec.V) {
	return cachedDist(opDistInf, q, s, 0, func() (float64, vec.V) { return distInfLP(q, s) })
}

func distInfLP(q vec.V, s *vec.Set) (float64, vec.V) {
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
		panic(fmt.Sprintf("geom: DistInf LP failed: %v %v", err, res))
	}
	return math.Max(res.X[m], 0), combine(s, res.X[:m])
}

// Dist1 returns the L1 distance from q to conv(s) and the nearest hull
// point (memoized), via the exact LP with per-coordinate deviation
// variables.
func Dist1(q vec.V, s *vec.Set) (float64, vec.V) {
	return cachedDist(opDist1, q, s, 0, func() (float64, vec.V) { return dist1LP(q, s) })
}

func dist1LP(q vec.V, s *vec.Set) (float64, vec.V) {
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
		panic(fmt.Sprintf("geom: Dist1 LP failed: %v %v", err, res))
	}
	return math.Max(res.Objective, 0), combine(s, res.X[:m])
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
		return cachedDist(opDistFW, q, s, p, func() (float64, vec.V) { return distFW(q, s, p) })
	}
	panic(fmt.Sprintf("geom: DistP requires p >= 1, got %v", p))
}

// DistPUncached is DistP bypassing the memo cache; see Dist2Uncached for
// when that is the right call.
func DistPUncached(q vec.V, s *vec.Set, p float64) (float64, vec.V) {
	switch {
	case p == 1:
		return dist1LP(q, s)
	case p == 2:
		return Dist2Uncached(q, s)
	case math.IsInf(p, 1):
		return distInfLP(q, s)
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
