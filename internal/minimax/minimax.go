// Package minimax computes delta*_2(S): the smallest delta for which
// Gamma_(delta,2)(S) (the intersection of the (delta,2)-relaxed hulls of
// all (|S|-f)-subsets of S) is non-empty. Per Section 9 of the paper,
//
//	delta*(S) = min_{p in R^d} max_i dist_2(p, H(P_i)),
//
// a convex minimax problem. Two solvers are provided:
//
//   - the exact closed form of Lemma 13 (inscribed-sphere radius) for the
//     f = 1, n = d+1, affinely independent case, together with the
//     Theorem 8 projection shortcut (delta* = 0) for dependent inputs; and
//   - a cutting-plane loop valid for every n, f, which brackets delta*
//     between a certified lower bound and the value at the returned point.
//
// The loop is cross-validated against the closed form (E7), against a
// frozen table of the heuristic it replaced (testdata/), and against the
// exact LP values of delta*_1 and delta*_inf, which bracket delta*_2.
package minimax

import (
	"math"

	"relaxedbvc/internal/geom"
	"relaxedbvc/internal/linalg"
	"relaxedbvc/internal/metrics"
	"relaxedbvc/internal/relax"
	"relaxedbvc/internal/simplexgeo"
	"relaxedbvc/internal/vec"
)

// Result is the outcome of a delta* computation. Delta is the value at
// Point, so (Delta,2)-relaxed validity of Point never depends on how
// tight the bracket Lower <= delta* <= Delta is. The general-p descent
// certifies nothing: it leaves Lower = 0 and Converged = false.
type Result struct {
	Delta     float64 // max_i dist_2(Point, H(P_i)): an upper bound on delta*_2
	Lower     float64 // certified lower bound on delta*_2 (== Delta when Exact)
	Point     vec.V   // the point attaining Delta
	Exact     bool    // true when computed by closed form rather than iteration
	Converged bool    // Delta - Lower is within the solver's gap tolerance
}

// MaxDist2 evaluates F(x) = max over the family of dist_2(x, H(set)).
func MaxDist2(x vec.V, sets []*vec.Set) float64 {
	m := 0.0
	for _, s := range sets {
		d, _ := geom.Dist2(x, s)
		m = math.Max(m, d)
	}
	return m
}

const (
	// gapTol is the certified gap Delta - Lower at which the loop stops,
	// relative to the family's spread. Wolfe's min-norm solves stop at a
	// 1e-9 relative slack, so the bracket cannot be resolved much below it.
	gapTol = 1e-8
	// maxBundleIters bounds the loop. Random instances of the protocols'
	// shapes take 3-30 iterations; singletons in d = 5 (a smallest
	// enclosing ball, smooth in most directions) up to 100.
	maxBundleIters = 250
	// maxBundleCuts is the size past which cuts without weight in the
	// master's solution are dropped (at most d+1 carry weight). A cut is
	// a column of the dual master, so a large bundle is cheap; a cap below
	// a few probes' worth (C(n,f) cuts each) makes the loop forget and
	// cycle.
	maxBundleCuts = 1024
)

var (
	bundleIterations   = metrics.DefaultHistogram("minimax_bundle_iterations", metrics.CountBuckets())
	bundleNotConverged = metrics.DefaultCounter("minimax_bundle_not_converged_total")
	probeScreened      = metrics.DefaultCounter("minimax_probe_screened_total")
	probeRescans       = metrics.DefaultCounter("minimax_probe_rescans_total")
)

// cut is a supporting hyperplane of one family member's distance
// function: dist(q, H(P_i)) >= u.q - support for every q, with support =
// max_{v in P_i} u.v. That holds for any unit u, however accurately Wolfe
// located the nearest point that suggested it.
type cut struct {
	u       vec.V
	support float64
	probe   int // the probe that produced it
}

// bundle is the state of one solve. Cuts and the master LP live in box
// units q = (p - center)/half, tau = t/half, so the LP's coefficients and
// tolerances are O(1) whatever the inputs' offset and spread. The box is
// the inputs' bounding box: conv(S) holds a minimiser.
type bundle struct {
	sets         []*vec.Set
	lo, hi       vec.V   // the box
	center       vec.V   // its midpoint
	half         float64 // its largest half-width
	width        vec.V   // its half-widths: |q_j| <= width_j/half
	tol          float64 // absolute gap tolerance
	cuts         []cut
	near         []vec.V   // each set's nearest point at its last evaluation; nil: no screen
	w            []float64 // width/half, the master's cost of |sum_i lambda_i u_i|
	master       master
	best         vec.V
	last         vec.V // the master's last proposal: the last probe's point
	upper, lower float64
	probes       int
}

// MinMaxDist2 minimizes F(x) = max_i dist_2(x, H(sets_i)) over x in R^d
// by a multi-cut cutting-plane (Kelley) loop. Each iterate x costs at
// most one Wolfe evaluation per set and yields F(x) (an upper bound, and
// the incumbent if it improves) plus a globally valid cut for every set
// at or above the current lower bound. The master LP, min t over the cuts
// inside the box, supplies the next iterate and the lower bound. The loop
// stops at a certified gap; if the LP reports no optimum or the iteration
// cap is hit, the incumbent is returned with Converged = false, exactly
// as a loop that evaluates every set at every iterate returns it.
//
// seedPoints are evaluated first, in order (default: the box centre). The
// incumbent only moves to a strictly better point, so a seed already
// optimal within the gap is returned as is. Sequential and deterministic.
func MinMaxDist2(sets []*vec.Set, seedPoints ...vec.V) Result {
	r, _ := minMaxDist2(sets, seedPoints)
	return r
}

// minMaxDist2 is MinMaxDist2, also returning the probes of the solve
// whose Result it returns.
func minMaxDist2(sets []*vec.Set, seedPoints []vec.V) (Result, int) {
	if len(sets) == 0 {
		panic("minimax: empty family")
	}
	b := newBundle(sets)
	if b.half == 0 {
		// All inputs identical: that point achieves delta = 0.
		return Result{Point: b.center, Converged: true}, 0
	}
	if len(seedPoints) == 0 {
		seedPoints = []vec.V{b.center}
	}
	if !b.solve(seedPoints) {
		// Wolfe stopped short of its certificate, the screen's premise:
		// solve again evaluating every set.
		b = newBundle(sets)
		b.near = nil
		b.solve(seedPoints)
	}
	bundleIterations.Observe(float64(b.probes))
	if !b.converged() {
		bundleNotConverged.Inc()
	}
	// The bound is exact up to rounding: keep Lower <= Delta to the bit.
	return Result{Delta: b.upper, Lower: math.Min(b.lower, b.upper), Point: b.best, Converged: b.converged()}, b.probes
}

func newBundle(sets []*vec.Set) *bundle {
	lo, hi := sets[0].At(0).Clone(), sets[0].At(0).Clone()
	// The tolerance is relative to the tightest member's diameter, not
	// the family's: delta* is at most that (for dropped-subset families),
	// and f far Byzantine values cannot inflate it.
	spread := math.Inf(1)
	for _, s := range sets {
		for _, v := range s.Points() {
			for j, x := range v {
				lo[j], hi[j] = math.Min(lo[j], x), math.Max(hi[j], x)
			}
		}
		spread = math.Min(spread, s.MaxEdge(2))
	}
	b := &bundle{sets: sets, lo: lo, hi: hi, center: vec.Lerp(lo, hi, 0.5), upper: math.Inf(1), near: make([]vec.V, len(sets)), master: newMaster(len(lo))}
	b.width = hi.Sub(b.center)
	b.half = b.width.NormP(math.Inf(1))
	b.w = make([]float64, len(lo))
	for j, wj := range b.width {
		b.w[j] = wj / b.half
	}
	if spread == 0 { // singletons, or a member of identical points
		spread = 2 * b.half
	}
	b.tol = gapTol * spread
	return b
}

func (b *bundle) converged() bool { return b.upper-b.lower <= b.tol }

// solve probes the seeds, then the master's minimisers until the gap
// closes, the master fails or the iteration cap is hit. A probe that
// returns false abandons it.
func (b *bundle) solve(seedPoints []vec.V) bool {
	for _, x := range seedPoints {
		if !b.probe(x.Clone()) {
			return false
		}
	}
	for !b.converged() && b.probes < maxBundleIters {
		x, ok := b.solveMaster()
		if !ok || b.converged() {
			break
		}
		if !b.probe(x) {
			return false
		}
	}
	return true
}

// probe evaluates the family at x: F(x) may improve the incumbent, and
// every set at or above the lower bound contributes its cut (one below
// it cannot be active at the optimum). Sets certified below the lower
// bound are skipped, and the probe is redone without skipping if F(x)
// comes out below such a certificate, so F(x) and the cuts are those of
// evaluating every set (DESIGN.md §10.6). It returns false when Wolfe
// stops short of its own certificate, which the screen rests on.
func (b *bundle) probe(x vec.V) bool {
	b.probes++
	from := len(b.cuts)
	f, maxReach, skipped, ok := b.sweep(x, b.near != nil && b.lower > 0)
	if ok && f < maxReach {
		probeRescans.Inc()
		b.cuts = b.cuts[:from]
		f, _, _, ok = b.sweep(x, false)
	} else if ok {
		probeScreened.Add(int64(skipped))
	}
	if ok && f < b.upper {
		b.best, b.upper = x, f
	}
	return ok
}

// sweep appends the cuts of the family at x in set order and returns F
// over the sets it evaluated. With screen, it skips every set whose
// reach is under the lower bound, and also returns the largest skipped
// reach and the number of sets skipped. In a screened solve (b.near set)
// a Wolfe stop short of its certificate ends the sweep with ok false.
func (b *bundle) sweep(x vec.V, screen bool) (f, maxReach float64, skipped int, ok bool) {
	for i, s := range b.sets {
		if screen && b.near[i] != nil {
			if r := reach(x, b.near[i], s); r < b.lower {
				maxReach = math.Max(maxReach, r)
				skipped++
				continue
			}
		}
		d, near, certified := geom.Dist2Certified(x, s)
		if b.near != nil {
			if !certified {
				return f, maxReach, skipped, false
			}
			b.near[i] = near
		}
		f = math.Max(f, d)
		if d <= 0 || d < b.lower {
			continue
		}
		u, inv := x.Sub(near), 1/d
		for j := range u {
			u[j] *= inv // Scale's product, in place
		}
		support := math.Inf(-1)
		for _, v := range s.Points() {
			support = math.Max(support, u.Dot(v))
		}
		b.cuts = append(b.cuts, cut{u: u, support: (support - u.Dot(b.center)) / b.half, probe: b.probes})
	}
	return f, maxReach, skipped, true
}

// reach bounds from above the distance geom.Dist2 reports from x to
// conv(s), given near, a point of the hull from an earlier probe. The
// true distance is at most u = |x - near|; Wolfe's method stops once no
// vertex improves by more than eps = (1e-9 + 1e-12) s^2, s = max(1,
// max_j |p_j - x|), and such a point is no farther than
// (u + sqrt(u^2 + 4 eps))/2. The pads cover rounding: 1e-12 s on u for
// the translations and near's own arithmetic (s here also >= |near|_inf),
// 9e-12 s^2 on eps for Wolfe's stopping test, 1e-15 relative for this
// formula.
func reach(x, near vec.V, s *vec.Set) float64 {
	s2 := 1.0
	for _, p := range s.Points() {
		d2 := 0.0
		for j, v := range p {
			d2 += (v - x[j]) * (v - x[j])
		}
		s2 = math.Max(s2, d2)
	}
	for _, v := range near {
		s2 = math.Max(s2, v*v)
	}
	u := x.Dist2(near) + 1e-12*math.Sqrt(s2)
	eps := (1e-9 + 1e-11) * s2
	return (u + math.Sqrt(u*u+4*eps)) / 2 * (1 + 1e-15)
}

// solveMaster solves the master LP, min tau s.t. tau >= u_i.q - support_i
// for every cut and |q_j| <= w_j = width_j/half, through its dual
//
//	max  -sum_i lambda_i support_i - sum_j w_j |sum_i lambda_i u_ij|
//	over lambda in the simplex,
//
// which has d+1 rows however many cuts there are (master.go); the
// dual's multipliers are the master's minimiser, the next iterate. The
// lower bound is that expression evaluated here, not by the LP, at the
// lambda it returned (clipped and normalized into the simplex): by weak
// duality every such value bounds the master, hence delta*, from below.
// So the bound needs no trust in the simplex, which does no residual
// check of its own: a wrong answer makes the bound loose or the iterate
// poor and costs iterations. ok = false when the LP reports no optimum.
func (b *bundle) solveMaster() (x vec.V, ok bool) {
	d, m := len(b.center), len(b.cuts)
	warm := b.master.restart < 0
	if m == 0 || !b.master.solve(b.cuts, b.w) {
		return nil, false
	}
	x = b.iterate()
	if warm && x.Equal(b.last) {
		// No cut of the last probe priced in, so the basis proposes that
		// probe's point again: a degenerate optimum whose vertex the cuts
		// do not move. Solve again from the newest cut's basis, which may
		// end on another vertex of the optimal face.
		b.master.restart = m - 1
		if !b.master.solve(b.cuts, b.w) {
			return nil, false
		}
		x = b.iterate()
	}
	sum, bound := 0.0, 0.0
	slope := b.master.a[:d] // free until the next solve
	clear(slope)
	for r, k := range b.master.basis {
		if k < 2*d {
			continue
		}
		c, w := b.cuts[k-2*d], math.Max(b.master.x[r], 0)
		sum += w
		bound -= w * c.support
		vec.V(slope).AXPY(w, c.u)
	}
	for j, g := range slope {
		bound -= b.w[j] * math.Abs(g)
	}
	if sum <= 0 {
		return nil, false
	}
	b.lower = math.Max(b.lower, bound/sum*b.half) // the bound is homogeneous in lambda
	if m > maxBundleCuts {
		// Cuts sit in probe order: keep the weighted ones and the newest,
		// and all of the latest probe's, without which the master would
		// propose the same point again. The master starts over from the
		// first kept cut's basis.
		from := m - maxBundleCuts
		for from > 0 && b.cuts[from-1].probe == b.probes {
			from--
		}
		weighted := make([]bool, m)
		for r, k := range b.master.basis {
			if k >= 2*d && b.master.x[r] > 0 {
				weighted[k-2*d] = true
			}
		}
		kept := b.cuts[:0]
		for i, c := range b.cuts {
			if weighted[i] || i >= from {
				kept = append(kept, c)
			}
		}
		b.cuts = kept
		b.master.restart = 0
	}
	b.last = x
	return x, true
}

// iterate is the master's minimiser in input units, clamped to the box.
// Row 1+j's dual is q_j: relaxing sum_i lambda_i u_ij = 0 to eps moves
// the minimum by eps q_j.
func (b *bundle) iterate() vec.V {
	x := vec.New(len(b.center))
	for j := range x {
		x[j] = math.Min(math.Max(b.center[j]+b.half*b.master.pi[1+j], b.lo[j]), b.hi[j])
	}
	return x
}

// DeltaStar2 computes delta*_2(S) for the Gamma family of Algorithm ALGO:
// the (|S|-f)-subsets of S. When f = 1 and |S| = d+1 it uses the closed
// forms of Lemma 13 (inradius of the input simplex) and Theorem 8
// (delta* = 0 for affinely dependent inputs); otherwise it falls back to
// the cutting-plane solver.
func DeltaStar2(s *vec.Set, f int) Result {
	if f < 1 || f >= s.Len() {
		panic("minimax: DeltaStar2 requires 1 <= f < |S|")
	}
	if f == 1 && s.Len() == s.Dim()+1 {
		if sx, err := simplexgeo.New(s.Points()); err == nil {
			r := sx.Inradius()
			return Result{Delta: r, Lower: r, Point: sx.Incenter(), Exact: true, Converged: true}
		}
		// Affinely dependent: Theorem 8 gives delta* = 0; a witness point
		// lies in Gamma(S), which is non-empty after the distance-
		// preserving projection to the spanned subspace. Find it directly.
		if pt, ok := degenerateGammaPoint(s, f); ok {
			return Result{Point: pt, Exact: true, Converged: true}
		}
	}
	return MinMaxDist2(relax.DroppedSubsets(s, f))
}

// DeltaStar2Iterative always uses the cutting-plane solver; E7 referees
// it against the closed forms.
func DeltaStar2Iterative(s *vec.Set, f int) Result {
	return MinMaxDist2(relax.DroppedSubsets(s, f))
}

// degenerateGammaPoint finds a point in Gamma(S) when the inputs span a
// proper subspace (Theorem 8): project distance-preservingly into the
// subspace, where n >= d'+2 makes Gamma non-empty by Tverberg/Helly, then
// lift the found point back.
func degenerateGammaPoint(s *vec.Set, f int) (vec.V, bool) {
	sp := linalg.NewSubspaceProjector(s.Points())
	proj := make([]vec.V, s.Len())
	for i, p := range s.Points() {
		proj[i] = sp.Project(p)
	}
	ps := vec.NewSet(proj...)
	res := MinMaxDist2(relax.DroppedSubsets(ps, f))
	// A certified positive lower bound says the projected Gamma is empty
	// (the projector kept a direction simplexgeo called dependent); an
	// open bracket says nothing either way.
	if !res.Converged || res.Lower > 1e-7*ps.MaxEdge(2) {
		return nil, false
	}
	return sp.Lift(res.Point), true
}

// Theorem9Bound returns the two upper bounds of Theorem 9 for f = 1,
// n = |S|: min(minEdge/2, maxEdge/(n-2)), evaluated on the NON-FAULTY
// edge set E+ (pass the non-faulty inputs). The first component also
// holds over all of E (Theorem 9 states delta* < min_{e in E}/2 <=
// min_{e in E+}/2).
func Theorem9Bound(nonFaulty *vec.Set, n int) float64 {
	minE := nonFaulty.MinEdge(2)
	maxE := nonFaulty.MaxEdge(2)
	return math.Min(minE/2, maxE/float64(n-2))
}

// Theorem12Bound returns the Theorem 12 upper bound for f >= 2 and
// n = (d+1)f: maxEdge(E+)/(d-1).
func Theorem12Bound(nonFaulty *vec.Set, d int) float64 {
	return nonFaulty.MaxEdge(2) / float64(d-1)
}

// Conjecture1Bound returns the Conjecture 1 bound for
// 3f+1 <= n < (d+1)f: maxEdge(E+)/(floor(n/f)-2).
func Conjecture1Bound(nonFaulty *vec.Set, n, f int) float64 {
	return nonFaulty.MaxEdge(2) / float64(n/f-2)
}

// HolderScale returns d^(1/2 - 1/p), the Theorem 14 factor transferring a
// kappa bound from L2 to Lp (p >= 2).
func HolderScale(d int, p float64) float64 {
	if math.IsInf(p, 1) {
		return math.Sqrt(float64(d))
	}
	return math.Pow(float64(d), 0.5-1/p)
}
