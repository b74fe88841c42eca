package relax

import (
	"math"

	"relaxedbvc/internal/geom"
	"relaxedbvc/internal/lp"
	"relaxedbvc/internal/metrics"
	"relaxedbvc/internal/vec"
)

// Lazy block generation observability, per kind of hull: LP solves in
// the loop, blocks of each final working family, and for δ*_p how the
// hull tests were settled (near-point bound or exact distance LP).
var (
	gammaRounds        = metrics.DefaultCounter("relax_gamma_rounds_total")
	gammaBlocks        = metrics.DefaultCounter("relax_gamma_blocks_total")
	deltaRounds        = metrics.DefaultCounter("relax_deltastar_rounds_total")
	deltaBlocks        = metrics.DefaultCounter("relax_deltastar_blocks_total")
	deltaScreenAccepts = metrics.DefaultCounter("relax_deltastar_screen_accepts_total")
	deltaDistLPs       = metrics.DefaultCounter("relax_deltastar_dist_lps_total")
)

// CertTol is the hull-membership tolerance that certifies a point of an
// intersection of hulls: loose enough to absorb simplex round-off, an
// order of magnitude tighter than the simtest oracle's validity
// tolerance so certified points always pass it.
const CertTol = 1e-7

// InEveryHull reports whether pt lies within CertTol of every hull in
// fam. The Wolfe distances are uncached: pt is a fresh LP output, so a
// memo key would never repeat.
func InEveryHull(fam []*vec.Set, pt vec.V) bool {
	h := hullTest{near: make(vec.V, pt.Dim())}
	_, ok := h.worst(fam, nil, pt, CertTol)
	return ok
}

// hullTest measures distances from a point to hulls: exact hulls
// (p = 0) by Wolfe's Dist2, (δ,p)-relaxed ones (p in {1, +Inf}) in the
// p-norm. near is its Wolfe scratch.
type hullTest struct {
	p    float64
	near vec.V
}

// dist returns the distance from x to conv(s) or, for the relaxed kind,
// an upper bound within tol when there is one: ||x - near||_p, sound
// because Wolfe's near point is a convex combination of s's points even
// when Wolfe stalls. Otherwise the exact distance LP decides; a hull
// whose LP fails is at +Inf, so it never accepts x.
func (h *hullTest) dist(x vec.V, s *vec.Set, tol float64) float64 {
	dist := geom.Dist2Into(x, s, h.near)
	if h.p == 0 {
		return dist
	}
	for j, v := range x {
		h.near[j] -= v
	}
	if bound := h.near.NormP(h.p); bound <= tol {
		deltaScreenAccepts.Inc()
		return bound
	}
	deltaDistLPs.Inc()
	if dist, ok := geom.DistPolyLP(x, s, h.p); ok {
		return dist
	}
	return math.Inf(1)
}

// worst returns the hull of fam outside the family marked in (nil: no
// family) that x is furthest from beyond tol, the first on ties (-1
// when none is), and whether every hull accepts x (a NaN distance does
// not). The family's hulls are measured only when no other rejects x.
func (h *hullTest) worst(fam []*vec.Set, in []bool, x vec.V, tol float64) (worst int, ok bool) {
	worst, far, ok := -1, tol, true
	for i, s := range fam {
		if in != nil && in[i] {
			continue
		}
		dist := h.dist(x, s, tol)
		ok = ok && dist <= tol
		if dist > far {
			worst, far = i, dist
		}
	}
	for i := 0; ok && in != nil && i < len(fam); i++ {
		if in[i] {
			ok = h.dist(x, fam[i], tol) <= tol
		}
	}
	return worst, ok
}

// lazyHulls optimizes over the intersection of the hulls of sets by
// lazy block generation (DESIGN §10.7). p = 0: the exact hulls of Gamma,
// each objective of objs maximized (nil: feasibility), points x. p in
// {1, +Inf}: the (δ,p)-relaxed hulls, δ minimized, objs one nil entry,
// points x then δ. A working family of d+1 spread blocks (all, when no
// more) grows by the hull outside it that rejects the round's x most
// (within CertTol, plus the round's δ when relaxed) until none does; it
// grows across objectives. A partial family whose LP has no optimum, or
// whose x only its own hulls reject, becomes the whole one, so an empty
// verdict, a missing optimum and an uncertified point are the joint
// LP's. pts[i] is nil when objective i has no optimum; certified[i]
// reports whether every hull accepts pts[i].
func lazyHulls(sets []*vec.Set, p float64, objs []vec.V, sc *IntersectScratch) (pts []vec.V, certified []bool) {
	d, m := sets[0].Dim(), len(sets)
	lead, rounds, blocks := d, gammaRounds, gammaBlocks
	if p != 0 {
		lead, rounds, blocks = d+1, deltaRounds, deltaBlocks
	}
	pts, certified = make([]vec.V, len(objs)), make([]bool, len(objs))
	in := make([]bool, m)
	work := make([]*vec.Set, 0, m)
	k := min(m, d+1)
	for i := 0; i < k; i++ {
		in[i*m/k] = true
	}
	h := hullTest{p: p, near: make(vec.V, d)}
	var basis *lp.Prepared
	var obj []float64
	prepare := func() {
		if basis != nil {
			basis.Release()
		}
		work = work[:0]
		for i, s := range sets {
			if in[i] {
				work = append(work, s)
			}
		}
		if p == 0 {
			sc.prob = buildHullIntersectionLPInto(sc.prob, work)
		} else {
			sc.prob, _, _ = relaxedLPProblemInto(sc.prob, work, p, nil)
		}
		basis = sc.prob.Prepare()
		obj = make([]float64, sc.prob.NumVars())
	}
	prepare()
	defer func() {
		basis.Release()
		blocks.Add(int64(len(work)))
	}()
	for i, dir := range objs {
		for {
			clear(obj)
			copy(obj, dir)
			tol := CertTol
			if p != 0 {
				obj[d] = -1 // maximizing -δ is minimizing δ, bit for bit
			}
			res := basis.Solve(obj, lp.Maximize)
			rounds.Inc()
			if res.Status == lp.Optimal {
				x := vec.V(res.X[:d])
				if p != 0 {
					tol += math.Max(res.X[d], 0)
				}
				add, ok := h.worst(sets, in, x, tol)
				if add >= 0 {
					in[add] = true
					prepare()
					continue
				}
				if ok || len(work) == m {
					pts[i], certified[i] = vec.V(res.X[:lead]).Clone(), ok
					break
				}
			} else if len(work) == m {
				if res.Status == lp.Infeasible {
					return pts, certified
				}
				break
			}
			// Only the joint LP may call the intersection empty, leave an
			// objective without optimum or return an uncertified point.
			for j := range in {
				in[j] = true
			}
			prepare()
		}
	}
	return pts, certified
}

// checkFamily reports whether every set of the family is non-empty,
// panicking on a set of another dimension than d before the first empty
// one.
func checkFamily(sets []*vec.Set, d int) bool {
	for _, s := range sets {
		if s.Len() == 0 {
			return false
		}
		if s.Dim() != d {
			panic("relax: dimension mismatch")
		}
	}
	return true
}

// SupportPoints returns, for every direction of dirs, a maximizer of
// <dir, x> over the intersection of the convex hulls of the sets,
// certified against every hull (InEveryHull): one lazy block-generation
// loop serves the whole fan. Entry i is nil when direction i has no
// certified optimum — every entry when the intersection is empty.
// Because the intersection of hulls is a bounded polytope, the maximum
// exists whenever it is non-empty. Each point is an extreme point of
// the intersection in its direction; convex hull consensus builds
// identical inner approximations of Gamma(S) at every process from them.
func SupportPoints(sets []*vec.Set, dirs []vec.V) []vec.V {
	if len(sets) == 0 {
		panic("relax: empty family")
	}
	d := sets[0].Dim()
	for _, dir := range dirs {
		if dir.Dim() != d {
			panic("relax: SupportPoints direction dimension mismatch")
		}
	}
	if !checkFamily(sets, d) {
		return make([]vec.V, len(dirs))
	}
	sc := GetIntersectScratch()
	defer sc.Release()
	pts, certified := lazyHulls(sets, 0, dirs, sc)
	for i, ok := range certified {
		if !ok {
			pts[i] = nil
		}
	}
	return pts
}
