package relax

import (
	"relaxedbvc/internal/geom"
	"relaxedbvc/internal/lp"
	"relaxedbvc/internal/metrics"
	"relaxedbvc/internal/vec"
)

// Lazy block generation observability: LP solves inside the loop, and
// the blocks of each solve's final working family (their ratio to the
// family size is the share of the joint LP the loop never built).
var (
	gammaRounds = metrics.DefaultCounter("relax_gamma_rounds_total")
	gammaBlocks = metrics.DefaultCounter("relax_gamma_blocks_total")
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
	_, ok := worstHull(fam, nil, pt)
	return ok
}

// worstHull returns the index of the hull of fam that rejects pt by the
// widest margin among those not marked in skip (-1 when none does), and
// whether every hull of fam accepts pt.
func worstHull(fam []*vec.Set, skip []bool, pt vec.V) (worst int, ok bool) {
	worst, ok = -1, true
	far := CertTol
	for i, s := range fam {
		dist, _ := geom.Dist2Uncached(pt, s)
		if dist <= CertTol {
			continue
		}
		ok = false
		if (skip == nil || !skip[i]) && dist > far {
			worst, far = i, dist
		}
	}
	return worst, ok
}

// lazyHulls optimizes each objective of objs (nil: feasibility) over the
// intersection of the hulls of sets by lazy block generation (DESIGN
// §10.7). The working family starts as d+1 blocks spread evenly over
// sets — all of them when there are no more — and one LP over it is
// prepared; each objective is solved, its point tested against every
// hull with the InEveryHull predicate, and the hull outside the family
// that rejects it most joins the family, until every hull outside it
// accepts the point. The family grows across objectives, so a point
// certified earlier is never revisited. When the LP over a partial
// family has no optimum, or only hulls of the family reject its point,
// the family becomes the whole one: an empty verdict, a missing optimum
// and an uncertified point are always the joint LP's. Entry i of pts is
// nil when objective i has no optimum (all of them when the
// intersection is empty); certified[i] reports whether every hull,
// those of the family included, accepts pts[i].
func lazyHulls(sets []*vec.Set, objs []vec.V, sc *IntersectScratch) (pts []vec.V, certified []bool) {
	d, m := sets[0].Dim(), len(sets)
	pts, certified = make([]vec.V, len(objs)), make([]bool, len(objs))
	in := make([]bool, m)
	work := make([]*vec.Set, 0, m)
	k := min(m, d+1)
	for i := 0; i < k; i++ {
		in[i*m/k] = true
	}
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
		sc.prob = buildHullIntersectionLPInto(sc.prob, work)
		basis = sc.prob.Prepare()
		obj = make([]float64, sc.prob.NumVars())
	}
	prepare()
	defer func() {
		basis.Release()
		gammaBlocks.Add(int64(len(work)))
	}()
	for i, dir := range objs {
		for {
			clear(obj)
			copy(obj, dir)
			res := basis.Solve(obj, lp.Maximize)
			gammaRounds.Inc()
			if res.Status == lp.Optimal {
				x := vec.V(res.X[:d])
				add, ok := worstHull(sets, in, x)
				if add >= 0 {
					in[add] = true
					prepare()
					continue
				}
				if ok || len(work) == m {
					pts[i], certified[i] = x.Clone(), ok
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
	for _, s := range sets {
		if s.Len() == 0 {
			return make([]vec.V, len(dirs))
		}
		if s.Dim() != d {
			panic("relax: dimension mismatch")
		}
	}
	sc := GetIntersectScratch()
	defer sc.Release()
	pts, certified := lazyHulls(sets, dirs, sc)
	for i, ok := range certified {
		if !ok {
			pts[i] = nil
		}
	}
	return pts
}
