package relax

import (
	"math"
	"sync"

	"relaxedbvc/internal/geom"
	"relaxedbvc/internal/lp"
	"relaxedbvc/internal/metrics"
	"relaxedbvc/internal/vec"
)

// Lazy block generation observability, per kind of hull: LP solves in
// the loop, blocks of each final working family, and for δ*_p how the
// Wolfe-measured hull tests were settled (near-point bound or exact
// distance LP). For both kinds: cold builds of the whole family (the
// joint LP), hulls a block certificate accepted, Wolfe hull tests (the
// loop's and InEveryHull's), and InEveryHull's witness LPs.
var (
	gammaRounds        = metrics.DefaultCounter("relax_gamma_rounds_total")
	gammaBlocks        = metrics.DefaultCounter("relax_gamma_blocks_total")
	deltaRounds        = metrics.DefaultCounter("relax_deltastar_rounds_total")
	deltaBlocks        = metrics.DefaultCounter("relax_deltastar_blocks_total")
	deltaScreenAccepts = metrics.DefaultCounter("relax_deltastar_screen_accepts_total")
	deltaDistLPs       = metrics.DefaultCounter("relax_deltastar_dist_lps_total")
	jointRebuilds      = metrics.DefaultCounter("relax_lazy_joint_rebuilds_total")
	certAccepts        = metrics.DefaultCounter("relax_hull_cert_accepts_total")
	wolfeTests         = metrics.DefaultCounter("relax_hull_wolfe_tests_total")
	witnessLPs         = metrics.DefaultCounter("relax_witness_lps_total")
)

// CertTol is the hull-membership tolerance that certifies a point of an
// intersection of hulls: loose enough to absorb simplex round-off, an
// order of magnitude tighter than the simtest oracle's validity
// tolerance so certified points always pass it. A hull accepts a point
// only on an explicit witness within CertTol of it in the 2-norm (within
// δ + CertTol in the p-norm for a (δ,p)-relaxed hull): a convex
// combination of the hull's points, from a block of the loop's LP,
// Wolfe's near point, or the L-infinity distance LP.
const CertTol = 1e-7

// InEveryHull reports whether pt lies within CertTol of every hull in
// fam: each hull accepts it on Wolfe's near point or, where Wolfe
// rejects, on the weights of the L-infinity distance LP (clamped and
// renormalized, the residual measured in the 2-norm). A NaN or infinite
// Wolfe distance never accepts. Every point lazyHulls certifies passes,
// also where Wolfe rejects a hull a block certificate accepted.
func InEveryHull(fam []*vec.Set, pt vec.V) bool {
	h := getHullTest(0, pt.Dim())
	defer h.release()
	for _, s := range fam {
		wolfeTests.Inc()
		dist := geom.Dist2Into(pt, s, h.near)
		if dist <= CertTol {
			continue
		}
		if !(dist < math.Inf(1)) {
			return false
		}
		witnessLPs.Inc()
		if !(geom.WitnessDist(pt, s, nil, 2, h.near) <= CertTol) {
			return false
		}
	}
	return true
}

// maxCertPoints bounds the distinct points the block certificate tracks:
// one bit each in a uint64 mask per hull.
const maxCertPoints = 64

// hullTest measures distances from a point to hulls: exact hulls
// (p = 0) by Wolfe's Dist2, (δ,p)-relaxed ones (p in {1, +Inf}) in the
// p-norm. Before that, certify accepts the hulls a block of the round's
// LP certifies the point in. It is pooled per-call scratch: near is
// Wolfe's buffer; in, order (join order) and work (family order, for a
// cold build) the loop's working family, basis its prepared LP, obj its
// objective row and res a round's solution; ids, pid, start, masks and
// cover the certificate's state.
type hullTest struct {
	p     float64
	near  vec.V
	in    []bool
	order []int
	work  []*vec.Set
	basis lp.Prepared
	obj   []float64
	res   lp.Result
	ids   []vec.V  // the family's distinct points, by bits
	pid   []uint8  // each point's id, hull after hull
	start []int    // hull i's first entry in pid
	masks []uint64 // per hull, the ids of its points; nil: no certificate
	cover []bool   // per hull, certified by a block of the round's LP
}

var hullTestPool = sync.Pool{New: func() any { return new(hullTest) }}

// getHullTest fetches a pooled hullTest of norm p and dimension d.
func getHullTest(p float64, d int) *hullTest {
	h := hullTestPool.Get().(*hullTest)
	h.p, h.near = p, grow(h.near, d)
	return h
}

// release drops the references to the caller's sets and points and
// returns h to the pool.
func (h *hullTest) release() {
	clear(h.work)
	clear(h.ids)
	h.work, h.ids = h.work[:0], h.ids[:0]
	hullTestPool.Put(h)
}

// number gives every distinct point of sets (by bits) an id and every
// hull the mask of its points' ids, or leaves masks nil when there are
// more than maxCertPoints distinct points (no certificate).
func (h *hullTest) number(sets []*vec.Set) {
	h.pid, h.start, h.masks = h.pid[:0], h.start[:0], h.masks[:0]
	for _, s := range sets {
		h.start = append(h.start, len(h.pid))
		var mask uint64
		id := -1
		for t := 0; t < s.Len(); t++ {
			if id = h.id(s.At(t), id+1); id < 0 {
				h.masks = nil
				return
			}
			h.pid = append(h.pid, uint8(id))
			mask |= 1 << id
		}
		h.masks = append(h.masks, mask)
	}
}

// id returns v's id among the distinct points seen so far, adding it
// when new, or -1 when maxCertPoints are already taken. The search
// starts at id from and wraps around: a subset of a multiset lists its
// points in the multiset's order, so the next point usually has the
// next id.
func (h *hullTest) id(v vec.V, from int) int {
	for k, i := 0, from; k < len(h.ids); k, i = k+1, i+1 {
		if i >= len(h.ids) {
			i = 0
		}
		if sameBits(h.ids[i], v) {
			return i
		}
	}
	if len(h.ids) == maxCertPoints {
		return -1
	}
	h.ids = append(h.ids, v)
	return len(h.ids) - 1
}

// sameBits reports whether a and b hold the same bits.
func sameBits(a, b vec.V) bool {
	if len(a) != len(b) {
		return false
	}
	for j := range a {
		if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
			return false
		}
	}
	return true
}

// certify marks in cover the hulls of sets that a block of the round's
// LP certifies x in. X is the LP's solution in the builders' layout: x,
// then δ when relaxed, then per working-family hull in join order
// (h.order) its weights λ_T (followed, when p = 1, by its d
// deviations). A block with
// ||x - q_T|| <= tol, for q_T its clamped and renormalized weights'
// combination (2-norm for exact hulls, the p-norm for relaxed ones),
// certifies every hull whose points include the support of λ_T: q_T is
// a convex combination of that hull's points.
func (h *hullTest) certify(sets []*vec.Set, X []float64, x vec.V, tol float64) {
	h.cover = grow(h.cover, len(sets))
	if h.masks == nil {
		return
	}
	d, norm, off := len(x), 2.0, len(x)
	if h.p != 0 {
		norm, off = h.p, off+1
	}
	for _, i := range h.order {
		s := sets[i]
		lam := X[off : off+s.Len()]
		off += s.Len()
		if h.p == 1 {
			off += d
		}
		if !(geom.WitnessDist(x, s, lam, norm, h.near) <= tol) {
			continue
		}
		var supp uint64
		for t, l := range lam {
			if l > 0 {
				supp |= 1 << h.pid[h.start[i]+t]
			}
		}
		for j, mask := range h.masks {
			if supp&^mask == 0 {
				h.cover[j] = true
			}
		}
	}
}

// grow returns s resized to n and zeroed, reusing its storage.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		s = make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
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

// worst returns the hull of fam outside the working family (h.in) that
// x is furthest from beyond tol, the first on ties (-1 when none is),
// and whether every hull accepts x (a NaN distance does not). Hulls the
// round's block certificate covers accept x unmeasured; the others are
// measured, the family's only when no other rejects x.
func (h *hullTest) worst(fam []*vec.Set, x vec.V, tol float64) (worst int, ok bool) {
	worst, far, ok := -1, tol, true
	accepts, tests := 0, 0
	for i, s := range fam {
		if h.in[i] {
			continue
		}
		if h.cover[i] {
			accepts++
			continue
		}
		tests++
		dist := h.dist(x, s, tol)
		ok = ok && dist <= tol
		if dist > far {
			worst, far = i, dist
		}
	}
	for i := 0; ok && i < len(fam); i++ {
		switch {
		case !h.in[i]:
		case h.cover[i]:
			accepts++
		default:
			tests++
			ok = h.dist(x, fam[i], tol) <= tol
		}
	}
	certAccepts.Add(int64(accepts))
	wolfeTests.Add(int64(tests))
	return worst, ok
}

// lazyHulls optimizes over the intersection of the hulls of sets by
// lazy block generation (DESIGN §10.7). p = 0: the exact hulls of Gamma,
// each objective of objs maximized (nil: feasibility), points x. p in
// {1, +Inf}: the (δ,p)-relaxed hulls, δ minimized, objs one nil entry,
// points x then δ. A working family of d+1 spread blocks (all, when no
// more) grows by the hull outside it that rejects the round's x most
// (within CertTol, plus the round's δ when relaxed) until none does; it
// grows across objectives, in place: the joining block's rows go into
// the prepared basis (lp.Prepared.Extend), its columns after the
// family's. A partial family whose LP has no optimum, or whose x only
// its own hulls reject, becomes the whole one. The whole family, the
// first one and any family whose warm phase 1 fails are prepared cold,
// blocks in family order, so an empty verdict, a missing optimum and an
// uncertified point are the joint LP's. pts[i] is nil when objective i
// has no optimum; certified[i] reports whether every hull accepts
// pts[i].
func lazyHulls(sets []*vec.Set, p float64, objs []vec.V, sc *IntersectScratch) (pts []vec.V, certified []bool) {
	d, m := sets[0].Dim(), len(sets)
	lead, rounds, blocks := d, gammaRounds, gammaBlocks
	if p != 0 {
		lead, rounds, blocks = d+1, deltaRounds, deltaBlocks
	}
	pts, certified = make([]vec.V, len(objs)), make([]bool, len(objs))
	h := getHullTest(p, d)
	defer h.release()
	h.number(sets)
	h.in = grow(h.in, m)
	k := min(m, d+1)
	for i := 0; i < k; i++ {
		h.in[i*m/k] = true
	}
	h.prepare(sets, sc)
	defer func() {
		h.basis.Release()
		blocks.Add(int64(len(h.order)))
	}()
	res := &h.res
	for i, dir := range objs {
		for {
			h.obj = grow(h.obj, sc.prob.NumVars())
			copy(h.obj, dir)
			tol := CertTol
			if p != 0 {
				h.obj[d] = -1 // maximizing -δ is minimizing δ, bit for bit
			}
			h.basis.SolveInto(res, h.obj, lp.Maximize)
			rounds.Inc()
			if res.Status == lp.Optimal {
				x := vec.V(res.X[:d])
				if p != 0 {
					tol += math.Max(res.X[d], 0)
				}
				h.certify(sets, res.X, x, tol)
				add, ok := h.worst(sets, x, tol)
				if add >= 0 {
					h.join(sets, add, sc)
					continue
				}
				if ok || len(h.order) == m {
					pts[i], certified[i] = vec.V(res.X[:lead]).Clone(), ok
					break
				}
			} else if len(h.order) == m {
				if res.Status == lp.Infeasible {
					return pts, certified
				}
				break
			}
			// Only the joint LP may call the intersection empty, leave an
			// objective without optimum or return an uncertified point.
			for j := range h.in {
				h.in[j] = true
			}
			h.prepare(sets, sc)
		}
	}
	return pts, certified
}

// prepare builds the LP of the working family h.in cold into sc.prob,
// blocks in family order, and prepares it into h.basis.
func (h *hullTest) prepare(sets []*vec.Set, sc *IntersectScratch) {
	h.order, h.work = h.order[:0], h.work[:0]
	for i, s := range sets {
		if h.in[i] {
			h.order, h.work = append(h.order, i), append(h.work, s)
		}
	}
	sc.prob = buildLPInto(sc.prob, h.work, nil, blockRows{p: h.p, delta: sets[0].Dim()})
	sc.prob.PrepareInto(&h.basis)
	if len(h.order) == len(sets) {
		jointRebuilds.Inc()
	}
}

// join adds hull add to the working family: its block's rows and
// columns go after the family's, into the prepared basis by Extend, or
// the family is prepared cold when the hull completes it or Extend
// reports a warm miss.
func (h *hullTest) join(sets []*vec.Set, add int, sc *IntersectScratch) {
	h.in[add] = true
	if len(h.order)+1 == len(sets) {
		h.prepare(sets, sc)
		return
	}
	h.order = append(h.order, add)
	w := blockRows{prob: sc.prob, p: h.p, delta: sets[0].Dim(), rs: getRowScratch()}
	w.add(sets[add], nil, sc.prob.AddVars(w.vars(sets[add])))
	w.rs.release()
	if !h.basis.Extend(sc.prob) {
		h.prepare(sets, sc)
	}
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
