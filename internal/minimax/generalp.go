package minimax

import (
	"math"
	"sort"

	"relaxedbvc/internal/geom"
	"relaxedbvc/internal/relax"
	"relaxedbvc/internal/vec"
)

// MaxDistP evaluates F(x) = max over the family of dist_p(x, H(set)).
func MaxDistP(x vec.V, sets []*vec.Set, p float64) float64 {
	m := 0.0
	for _, s := range sets {
		if d, _ := geom.DistP(x, s, p); d > m {
			m = d
		}
	}
	return m
}

// DeltaStarP computes delta*_p(S) — the smallest delta for which
// Gamma_(delta,p)(S) is non-empty — for a general Lp norm (p >= 1,
// math.Inf(1) allowed). This is the Section 9.3 quantity and the one
// dispatch of the delta* kernels: p = 2 uses DeltaStar2 (closed forms +
// L2 minimax); p = 1 and p = +Inf are exact LPs (relax.DeltaStarPoly,
// returned as Exact with Lower = Delta); other p run the generic minimax
// solver over the Frank-Wolfe Lp hull distances, which yields an upper
// bound on the true delta*_p accurate to roughly 1e-4 relative at unit
// scale. The LP norms accept any f the LP does (f = 0 is the hull of S
// itself); the others need 1 <= f < |S|.
func DeltaStarP(s *vec.Set, f int, p float64) Result {
	switch {
	case p == 1 || math.IsInf(p, 1):
		delta, pt := relax.DeltaStarPoly(s, f, p)
		return Result{Delta: delta, Lower: delta, Point: pt, Exact: true, Converged: true}
	case f < 1 || f >= s.Len():
		panic("minimax: DeltaStarP requires 1 <= f < |S|")
	case p == 2:
		return DeltaStar2(s, f)
	case p < 1:
		panic("minimax: DeltaStarP requires p >= 1")
	}
	fam := relax.DroppedSubsets(s, f)
	// Seed from the L2 solution: the minimizers for different norms are
	// close, and delta*_p is Lipschitz in x.
	seed := DeltaStar2(s, f).Point
	return minMaxDistP(fam, p, seed)
}

// minMaxDistP minimizes F(x) = max_i dist_p(x, H(sets_i)) by subgradient
// descent plus a Nelder-Mead polish. The Frank-Wolfe distances are
// inexact, so cuts from them would not be valid lower bounds: the result
// carries no certificate (Lower = 0, Converged = false).
func minMaxDistP(sets []*vec.Set, p float64, seedPoints ...vec.V) Result {
	if len(sets) == 0 {
		panic("minimax: empty family")
	}
	var all []vec.V
	for _, s := range sets {
		all = append(all, s.Points()...)
	}
	scale := vec.NewSet(all...).MaxEdge(2)
	if scale == 0 {
		return Result{Delta: 0, Point: all[0].Clone()}
	}
	starts := append([]vec.V{vec.Mean(all)}, seedPoints...)
	bestX := starts[0].Clone()
	bestF := MaxDistP(bestX, sets, p)
	for _, x0 := range starts {
		x, f := subgradientDescentP(x0, sets, p, scale)
		if f < bestF {
			bestX, bestF = x, f
		}
	}
	objective := func(x vec.V) float64 { return MaxDistP(x, sets, p) }
	x, f := nelderMeadOn(objective, bestX, scale*0.02)
	if f < bestF {
		bestX, bestF = x, f
	}
	return Result{Delta: bestF, Point: bestX}
}

// subgradientDescentP follows the Lp analogue of the L2 subgradient: at
// the farthest hull, the gradient of ||r||_p in the residual r = x -
// nearest is sign(r_k) (|r_k| / ||r||_p)^(p-1) per coordinate (for
// p = inf it is the sign pattern on the max coordinates).
func subgradientDescentP(x0 vec.V, sets []*vec.Set, p float64, scale float64) (vec.V, float64) {
	x := x0.Clone()
	bestX := x.Clone()
	bestF := MaxDistP(x, sets, p)
	step := scale / 4
	const iters = 200
	for k := 0; k < iters; k++ {
		// The farthest hull, first strictly greater in index order.
		var nearest vec.V
		maxD := -1.0
		for _, s := range sets {
			if d, near := geom.DistP(x, s, p); d > maxD {
				maxD, nearest = d, near
			}
		}
		if maxD < bestF {
			bestF = maxD
			bestX = x.Clone()
		}
		if maxD < 1e-12 {
			return x, 0
		}
		g := lpGradient(x.Sub(nearest), p)
		if g.Norm2() < 1e-14 {
			break
		}
		x = x.Sub(g.Scale(step / g.Norm2()))
		step *= 0.985
	}
	if f := MaxDistP(x, sets, p); f < bestF {
		return x, f
	}
	return bestX, bestF
}

// lpGradient returns a (sub)gradient of ||r||_p at r != 0.
func lpGradient(r vec.V, p float64) vec.V {
	g := vec.New(r.Dim())
	if math.IsInf(p, 1) {
		// Subgradient: indicator of a max-magnitude coordinate.
		best, bi := 0.0, 0
		for i, v := range r {
			if a := math.Abs(v); a > best {
				best, bi = a, i
			}
		}
		if best > 0 {
			g[bi] = math.Copysign(1, r[bi])
		}
		return g
	}
	rn := r.NormP(p)
	if rn == 0 {
		return g
	}
	for i, v := range r {
		if v != 0 {
			g[i] = math.Copysign(math.Pow(math.Abs(v)/rn, p-1), v)
		}
	}
	return g
}

// nelderMeadOn runs a standard Nelder-Mead simplex search on f starting
// from x0 with the given initial spread.
func nelderMeadOn(f func(vec.V) float64, x0 vec.V, spread float64) (vec.V, float64) {
	d := x0.Dim()
	type vert struct {
		x vec.V
		v float64
	}
	simplex := make([]vert, d+1)
	simplex[0] = vert{x0.Clone(), f(x0)}
	for i := 1; i <= d; i++ {
		x := x0.Clone()
		x[i-1] += spread
		simplex[i] = vert{x, f(x)}
	}
	const (
		alpha = 1.0
		gamma = 2.0
		rho   = 0.5
		sigma = 0.5
	)
	evals := 0
	maxEvals := 100 * (d + 1)
	for evals < maxEvals {
		sort.Slice(simplex, func(i, j int) bool { return simplex[i].v < simplex[j].v })
		if simplex[d].v-simplex[0].v < 1e-11*(1+simplex[0].v) {
			break
		}
		c := vec.New(d)
		for i := 0; i < d; i++ {
			c.AddInPlace(simplex[i].x)
		}
		c = c.Scale(1 / float64(d))
		worst := simplex[d]
		refl := c.Add(c.Sub(worst.x).Scale(alpha))
		fr := f(refl)
		evals++
		switch {
		case fr < simplex[0].v:
			exp := c.Add(c.Sub(worst.x).Scale(gamma))
			fe := f(exp)
			evals++
			if fe < fr {
				simplex[d] = vert{exp, fe}
			} else {
				simplex[d] = vert{refl, fr}
			}
		case fr < simplex[d-1].v:
			simplex[d] = vert{refl, fr}
		default:
			con := c.Add(worst.x.Sub(c).Scale(rho))
			fc := f(con)
			evals++
			if fc < worst.v {
				simplex[d] = vert{con, fc}
			} else {
				for i := 1; i <= d; i++ {
					simplex[i].x = vec.Lerp(simplex[0].x, simplex[i].x, sigma)
					simplex[i].v = f(simplex[i].x)
					evals++
				}
			}
		}
	}
	sort.Slice(simplex, func(i, j int) bool { return simplex[i].v < simplex[j].v })
	return simplex[0].x, simplex[0].v
}
