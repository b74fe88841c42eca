package relax

import (
	"fmt"
	"math"
	"sync"

	"relaxedbvc/internal/geom"
	"relaxedbvc/internal/lp"
	"relaxedbvc/internal/metrics"
	"relaxedbvc/internal/vec"
)

// Prefilter observability: how often the cheap geometric tests decide a
// candidate family before a joint LP is built, and how many candidates
// still pay for the LP. The prefilter counters plus the LP counter sum
// to the number of Intersect calls.
var (
	bboxRejects    = metrics.DefaultCounter("relax_prefilter_bbox_rejects_total")
	witnessAccepts = metrics.DefaultCounter("relax_prefilter_witness_accepts_total")
	witnessRejects = metrics.DefaultCounter("relax_prefilter_witness_rejects_total")
	sepRejects     = metrics.DefaultCounter("relax_prefilter_separation_rejects_total")
	intersectLPs   = metrics.DefaultCounter("relax_intersect_lp_solves_total")

	// kprojConvAccepts counts InHullK sweeps short-circuited by the
	// conv(S) ⊆ H_k(S) full-space accept (see InHullK).
	kprojConvAccepts = metrics.DefaultCounter("relax_kproj_conv_accepts_total")
)

// bboxMargin guards the bounding-box rejection against the LP solver's
// feasibility tolerance: boxes count as overlapping unless separated by
// more than this margin, so the prefilter only rejects instances the LP
// would also reject (DESIGN.md §10.2).
const bboxMargin = 1e-9

// HullKind selects the hull family an Intersector decides over.
type HullKind int

const (
	// HullExact is the family of exact convex hulls H(T).
	HullExact HullKind = iota
	// HullKProj is the family of k-relaxed hulls H_k(T) (Definition 6).
	HullKProj
	// HullDeltaP is the family of (delta,p)-relaxed hulls H_(delta,p)(T)
	// (Definition 9), for the polyhedral norms p in {1, +Inf}.
	HullDeltaP
)

// Intersector decides non-emptiness of the intersection of one hull
// family over a family of point sets, running sound geometric
// prefilters before building the joint feasibility LP:
//
//   - Bounding-box rejection: conv(T) and H_k(T) lie inside bbox(T)
//     per coordinate (for H_k, every size-k projection set D containing
//     coordinate j pins x_j between the set's min and max), while
//     H_(delta,p)(T) lies inside bbox(T) inflated by delta, because
//     |r_j| <= ||r||_p <= delta for p in {1, +Inf}. If the (inflated)
//     boxes have empty intersection — with bboxMargin slack so the LP
//     tolerance cannot disagree — the hull intersection is empty and no
//     LP is needed.
//
//   - Singleton-witness membership: a singleton block {w} forces x = w
//     for the exact and k-relaxed kinds (H({w}) = H_k({w}) = {w}), so
//     the decision reduces to membership tests of w against
//     every other hull — both acceptance and rejection are sound. For
//     the (delta,p) kind a singleton only confines x to a delta-ball
//     around w, so the witness path is accept-only: if w is within
//     delta of every conv(T) then w itself is an intersection point;
//     otherwise fall through to the LP. This is the candidate-point
//     reuse of the kernel sweep: the point that witnessed one subset is
//     membership-tested against the next subset before a fresh LP is
//     built, bailing out at the first subset that rejects it.
//
// Both prefilters are pure functions of the candidate family, so the
// decision and the returned point depend on the family alone.
//
// The screens are load-bearing, not only fast: at coordinate scale 1e3
// the joint LP accepts Tverberg partitions that do not exist. Over
// tverberg's 200 tight sets (TestTverbergTightRescaled) the exact scan
// is wrong on 1 seed with every screen, on 9 without the separation
// screen and on 35 with none; PartitionK, which the separation screen
// does not reach, is wrong on 9 with the bbox prefilter and on 19
// without it (DESIGN.md §10.2).
type Intersector struct {
	Kind  HullKind
	K     int     // HullKProj: projection size k
	Delta float64 // HullDeltaP: relaxation radius
	P     float64 // HullDeltaP: norm, 1 or +Inf
}

// IntersectScratch carries the reusable state of repeated
// Intersect calls: one lp.Problem whose constraint-row storage is
// recycled across structurally similar joint LPs, and the
// geom.FilterScratch backing the certified separation screen. A scratch
// must not be shared between concurrent goroutines.
type IntersectScratch struct {
	prob *lp.Problem
	fsc  geom.FilterScratch
}

var intersectScratchPool = sync.Pool{New: func() any { return new(IntersectScratch) }}

// GetIntersectScratch fetches a scratch from the pool.
func GetIntersectScratch() *IntersectScratch {
	return intersectScratchPool.Get().(*IntersectScratch)
}

// Release returns the scratch to the pool.
func (sc *IntersectScratch) Release() { intersectScratchPool.Put(sc) }

// Intersect finds a point in the intersection of the hull family over
// sets, or ok=false when the intersection is empty. sc may be nil (a
// pooled scratch is used for the call). The result is a pure function
// of (it, sets): prefilter short-cuts never change the decision, only
// which code path produced it.
func (it Intersector) Intersect(sets []*vec.Set, sc *IntersectScratch) (point vec.V, ok bool) {
	if len(sets) == 0 {
		panic("relax: Intersect on empty family")
	}
	d := sets[0].Dim()
	if !checkFamily(sets, d) {
		return nil, false
	}
	switch it.Kind {
	case HullKProj:
		if it.K < 1 || it.K > d {
			panic("relax: k out of range")
		}
	case HullDeltaP:
		if it.P != 1 && !math.IsInf(it.P, 1) {
			panic(fmt.Sprintf("relax: relaxed-hull LP supports p in {1, inf}, got %v", it.P))
		}
	}
	if it.rejectByBBox(sets, d) {
		bboxRejects.Inc()
		return nil, false
	}
	if pt, decided, nonEmpty := it.witness(sets); decided {
		if nonEmpty {
			witnessAccepts.Inc()
			return pt, true
		}
		witnessRejects.Inc()
		return nil, false
	}
	if sc == nil {
		sc = GetIntersectScratch()
		defer sc.Release()
	}
	if it.rejectBySeparation(sets, &sc.fsc) {
		sepRejects.Inc()
		return nil, false
	}
	intersectLPs.Inc()
	return it.solveLP(sets, d, sc)
}

// sepMaxFamily caps the family size the pairwise separation screen
// runs on. It is built for the small disjoint-block families of the
// partition scan (a handful of sets, usually separable when the joint
// LP is infeasible); the C(n,f) dropped-subset families share n-2f or
// more points between any two members, so their hulls always intersect
// pairwise and the O(|family|^2) screen could only ever burn time.
const sepMaxFamily = 8

// rejectBySeparation looks for one pair of sets whose hulls a certified
// float screen separates with margin over the LP tolerance (see
// geom.HullsSeparated); any separated pair makes the joint intersection
// empty. It does not apply to H_k hulls: H_k(T) is an intersection of
// coordinate-projection cylinders and strictly contains conv(T), so
// full-space hull separation proves nothing about it.
func (it Intersector) rejectBySeparation(sets []*vec.Set, fsc *geom.FilterScratch) bool {
	if it.Kind == HullKProj || len(sets) > sepMaxFamily {
		return false
	}
	delta := 0.0
	if it.Kind == HullDeltaP {
		delta = it.Delta
	}
	for i := 0; i < len(sets); i++ {
		for j := i + 1; j < len(sets); j++ {
			if geom.HullsSeparated(sets[i], sets[j], delta, it.P, fsc) {
				return true
			}
		}
	}
	return false
}

// rejectByBBox reports whether the per-set bounding boxes (inflated by
// delta for the relaxed kind) have empty intersection, which soundly
// certifies an empty hull intersection.
func (it Intersector) rejectByBBox(sets []*vec.Set, d int) bool {
	infl := 0.0
	if it.Kind == HullDeltaP {
		infl = it.Delta
	}
	for j := 0; j < d; j++ {
		lo, hi := math.Inf(-1), math.Inf(1)
		for _, s := range sets {
			mn := s.At(0)[j]
			mx := mn
			for t := 1; t < s.Len(); t++ {
				if v := s.At(t)[j]; v < mn {
					mn = v
				} else if v > mx {
					mx = v
				}
			}
			if mn-infl > lo {
				lo = mn - infl
			}
			if mx+infl < hi {
				hi = mx + infl
			}
			if lo > hi+bboxMargin {
				return true
			}
		}
	}
	return false
}

// witness runs the singleton-witness prefilter. decided reports whether
// the intersection question was settled without an LP; when decided,
// nonEmpty carries the answer and pt the intersection point (nil on
// empty). Undecided means fall through to the joint LP.
func (it Intersector) witness(sets []*vec.Set) (pt vec.V, decided, nonEmpty bool) {
	wi := -1
	for i, s := range sets {
		if s.Len() == 1 {
			wi = i
			break
		}
	}
	if wi < 0 {
		return nil, false, false
	}
	w := sets[wi].At(0)
	for i, s := range sets {
		if i == wi {
			continue
		}
		var in bool
		switch it.Kind {
		case HullExact:
			in = geom.InHull(w, s)
		case HullKProj:
			in = InHullK(w, s, it.K)
		default:
			dist, _ := geom.DistP(w, s, it.P)
			in = dist <= it.Delta
		}
		if !in {
			// A singleton forces x = w for the exact and k-relaxed kinds,
			// so a rejection decides. For the (delta,p) kind it only
			// confines x to the delta-ball around w: bail to the LP.
			return nil, it.Kind != HullDeltaP, false
		}
	}
	return w.Clone(), true, true
}

// solveLP decides the family by LP, reusing sc.prob's storage: the lazy
// block-generation loop for exact hulls (a point it cannot certify is
// the joint LP's own answer, returned as it is), one joint feasibility
// LP for the relaxed kinds.
func (it Intersector) solveLP(sets []*vec.Set, d int, sc *IntersectScratch) (vec.V, bool) {
	var prob *lp.Problem
	switch it.Kind {
	case HullExact:
		pts, _ := lazyHulls(sets, 0, []vec.V{nil}, sc)
		return pts[0], pts[0] != nil
	case HullKProj:
		prob = buildKIntersectionLPInto(sc.prob, sets, it.K)
	default:
		delta := it.Delta
		var feasible bool
		prob, _, feasible = relaxedLPProblemInto(sc.prob, sets, it.P, &delta)
		if !feasible {
			return nil, false
		}
	}
	if prob == nil {
		return nil, false
	}
	sc.prob = prob
	res, err := prob.Solve()
	if err != nil {
		panic(err)
	}
	if res.Status != lp.Optimal {
		return nil, false
	}
	return vec.V(res.X[:d]).Clone(), true
}

// newOrReset routes LP construction through a reusable Problem when one
// is supplied.
func newOrReset(prob *lp.Problem, nv int) *lp.Problem {
	if prob == nil {
		return lp.NewProblem(nv)
	}
	prob.Reset(nv)
	return prob
}
