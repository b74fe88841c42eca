package geom

import (
	"math"
	"sync"

	"relaxedbvc/internal/linalg"
	"relaxedbvc/internal/metrics"
	"relaxedbvc/internal/vec"
)

// This file implements the certified float screen that runs in front of
// the exact hull-separation LP: a scratch-buffer Wolfe min-norm solver
// whose separating direction is verified against the ORIGINAL input data
// with an explicit margin over the LP solver's feasibility tolerance. A
// screen rejection is therefore always the decision the exact LP would
// have made; anything inside the margin band falls through to the LP.
// See DESIGN.md §10.2 for the soundness argument relating the margin
// below to the simplex phase-1 acceptance threshold (1e-7 * feasScale).

// filterRejectMargin is the minimum certified separation (relative to
// the data scale) for a screen reject. The LP declares infeasibility
// above 1e-7*feasScale of phase-1 residual; a separation of
// filterRejectMargin*scale forces at least ~half that margin of
// residual, two orders of magnitude above the threshold.
const filterRejectMargin = 1e-5

// sepMaxPoints caps the Minkowski-difference size of the hull
// separation screen; larger pairs skip the screen rather than risk a
// screen costlier than the LP it guards.
const sepMaxPoints = 96

// Screen observability: rejects are decisions made without an LP;
// fallbacks paid the screen and still ran the exact LP.
var (
	sepRejects   = metrics.DefaultCounter("geom_filter_separation_rejects_total")
	sepFallbacks = metrics.DefaultCounter("geom_filter_separation_fallbacks_total")
)

// FilterScratch holds the reusable buffers of one Wolfe solve, a screen's
// or Dist2's: the flattened working point set, the corral state and the
// KKT system of the corral projection. A scratch must not be shared
// between concurrent goroutines.
type FilterScratch struct {
	pts    []float64 // flattened n x d working points
	x      []float64 // current min-norm iterate
	lam    []float64 // corral weights
	alpha  []float64 // affine minimizer candidate
	corral []int
	gram   []float64 // KKT system: (k+1) x (k+2) augmented, or Dist2's (k+1) x (k+1)
	rhs    []float64 // Dist2's KKT right-hand side
	kkt    linalg.Matrix
	lu     linalg.LU
}

var filterScratchPool = sync.Pool{New: func() any { return new(FilterScratch) }}

// GetFilterScratch fetches a scratch from the pool.
func GetFilterScratch() *FilterScratch { return filterScratchPool.Get().(*FilterScratch) }

// Release returns the scratch to the pool.
func (sc *FilterScratch) Release() { filterScratchPool.Put(sc) }

func growF(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// wolfeMinNorm runs Wolfe's min-norm-point algorithm over the n points
// of dimension d flattened in sc.pts, leaving the final iterate in
// sc.x and the corral weights in (sc.corral, sc.lam). It is the
// separation screen's twin of minNorm with a tighter optimality gap
// (the screen needs residuals near machine precision, not 1e-9
// relative) and a hard major-cycle budget; on budget exhaustion the
// iterate is simply the best found, and the caller's exact certificate
// checks decide whether it is usable.
func (sc *FilterScratch) wolfeMinNorm(n, d int) {
	pt := func(i int) []float64 { return sc.pts[i*d : (i+1)*d] }
	sc.x = growF(sc.x, d)

	scale2 := 1.0
	best, bestN := 0, math.Inf(1)
	for i := 0; i < n; i++ {
		p := pt(i)
		nn := 0.0
		for _, v := range p {
			nn += v * v
		}
		if nn > scale2 {
			scale2 = nn
		}
		if nn < bestN {
			best, bestN = i, nn
		}
	}
	gapTol := 1e-13 * scale2

	sc.corral = append(sc.corral[:0], best)
	sc.lam = append(sc.lam[:0], 1)
	copy(sc.x, pt(best))

	budget := 2*d + 12
	for major := 0; major < budget; major++ {
		// Most violating vertex: minimize <x, p_j>.
		j, jv := -1, math.Inf(1)
		for i := 0; i < n; i++ {
			p := pt(i)
			v := 0.0
			for k, xv := range sc.x {
				v += xv * p[k]
			}
			if v < jv {
				j, jv = i, v
			}
		}
		xx := 0.0
		for _, xv := range sc.x {
			xx += xv * xv
		}
		if jv > xx-gapTol {
			return // optimal within the screen gap
		}
		inCorral := false
		for _, c := range sc.corral {
			if c == j {
				inCorral = true
				break
			}
		}
		if inCorral {
			return // numerical stall
		}
		sc.corral = append(sc.corral, j)
		sc.lam = append(sc.lam, 0)

		// Minor cycles: project onto the corral's affine hull, walk back
		// to the last convex point and drop vanished vertices.
		for minor := 0; minor <= d+3; minor++ {
			if !sc.affineMinNorm(d) {
				sc.corral = sc.corral[:len(sc.corral)-1]
				sc.lam = sc.lam[:len(sc.lam)-1]
				break
			}
			const posEps = 1e-11
			allPos := true
			for _, a := range sc.alpha {
				if a <= posEps {
					allPos = false
					break
				}
			}
			if allPos {
				copy(sc.lam, sc.alpha)
				break
			}
			theta := 1.0
			for i, a := range sc.alpha {
				if a < posEps && sc.lam[i] > a {
					if t := sc.lam[i] / (sc.lam[i] - a); t < theta {
						theta = t
					}
				}
			}
			// Blend and compact in place.
			keep := 0
			for i := range sc.lam {
				nl := (1-theta)*sc.lam[i] + theta*sc.alpha[i]
				if nl > posEps {
					sc.lam[keep] = nl
					sc.corral[keep] = sc.corral[i]
					keep++
				}
			}
			if keep == 0 {
				sc.corral[0] = sc.corral[len(sc.corral)-1]
				sc.lam[0] = 1
				keep = 1
			}
			sc.corral = sc.corral[:keep]
			sc.lam = sc.lam[:keep]
		}
		// Recompute x from the corral.
		for k := range sc.x {
			sc.x[k] = 0
		}
		for i, c := range sc.corral {
			p := pt(c)
			l := sc.lam[i]
			for k := range sc.x {
				sc.x[k] += l * p[k]
			}
		}
	}
}

// affineMinNorm solves the corral's KKT system (Gram matrix bordered by
// the affine constraint) by in-place Gaussian elimination with partial
// pivoting, writing the affine minimizer into sc.alpha. ok=false on a
// numerically singular (affinely dependent) corral.
func (sc *FilterScratch) affineMinNorm(d int) bool {
	k := len(sc.corral)
	kk := k + 1
	cols := kk + 1 // augmented
	sc.gram = growF(sc.gram, kk*cols)
	g := sc.gram
	pt := func(i int) []float64 { return sc.pts[sc.corral[i]*d : (sc.corral[i]+1)*d] }
	diagMax := 1.0
	for i := 0; i < k; i++ {
		pi := pt(i)
		for j := i; j < k; j++ {
			pj := pt(j)
			dot := 0.0
			for c := range pi {
				dot += pi[c] * pj[c]
			}
			g[i*cols+j] = dot
			g[j*cols+i] = dot
			if i == j && dot > diagMax {
				diagMax = dot
			}
		}
		g[i*cols+k] = 1
		g[k*cols+i] = 1
		g[i*cols+kk] = 0
	}
	g[k*cols+k] = 0
	g[k*cols+kk] = 1

	if !gaussSolve(g, kk, cols) {
		// Ridge fallback for affinely dependent corrals, as in
		// affineMinNorm of wolfe.go.
		for i := 0; i < k; i++ {
			pi := pt(i)
			for j := i; j < k; j++ {
				pj := pt(j)
				dot := 0.0
				for c := range pi {
					dot += pi[c] * pj[c]
				}
				if i == j {
					dot += 1e-10 * diagMax
				}
				g[i*cols+j] = dot
				g[j*cols+i] = dot
			}
			g[i*cols+k] = 1
			g[k*cols+i] = 1
			g[i*cols+kk] = 0
		}
		g[k*cols+k] = 0
		g[k*cols+kk] = 1
		if !gaussSolve(g, kk, cols) {
			return false
		}
	}
	sc.alpha = growF(sc.alpha, k)
	for i := 0; i < k; i++ {
		sc.alpha[i] = g[i*cols+kk]
	}
	return true
}

// gaussSolve reduces the n x (cols) augmented system in place with
// partial pivoting; the solution lands in column cols-1. ok=false when
// a pivot is numerically zero.
func gaussSolve(g []float64, n, cols int) bool {
	for c := 0; c < n; c++ {
		// Partial pivot.
		pr, pv := c, math.Abs(g[c*cols+c])
		for r := c + 1; r < n; r++ {
			if a := math.Abs(g[r*cols+c]); a > pv {
				pr, pv = r, a
			}
		}
		if pv < 1e-13 {
			return false
		}
		if pr != c {
			for j := 0; j < cols; j++ {
				g[pr*cols+j], g[c*cols+j] = g[c*cols+j], g[pr*cols+j]
			}
		}
		inv := 1 / g[c*cols+c]
		for j := c; j < cols; j++ {
			g[c*cols+j] *= inv
		}
		for r := 0; r < n; r++ {
			if r == c {
				continue
			}
			f := g[r*cols+c]
			if f == 0 {
				continue
			}
			for j := c; j < cols; j++ {
				g[r*cols+j] -= f * g[c*cols+j]
			}
		}
	}
	return true
}

// HullsSeparated certifies that the (delta,p)-relaxed hulls of a and b
// are disjoint (delta = 0 gives exact hulls), with enough margin that
// the exact joint feasibility LP over any family containing a and b
// must also be infeasible. It returns false whenever it cannot certify
// — a false is never evidence of intersection. p is only consulted
// when delta > 0 and must then be 1 or +Inf (the polyhedral norms of
// the relaxed-hull LP).
//
// The screen runs on wolfeMinNorm, not on minNorm: at coordinate scale
// 1e3 minNorm stops at a vertex of a pair difference instead of its
// min-norm point (TestMinNormStopsAtVertexAtScale, 5435.67 against a
// true 4105.11), and on minNorm the screen left seeds 160 and 168 of
// tverberg's TestTverbergTightRescaled wrong.
func HullsSeparated(a, b *vec.Set, delta, p float64, sc *FilterScratch) bool {
	na, nb, d := a.Len(), b.Len(), a.Dim()
	if na == 0 || nb == 0 || d == 0 || na*nb > sepMaxPoints {
		return false
	}
	if sc == nil {
		sc = GetFilterScratch()
		defer sc.Release()
	}
	// Minkowski difference: conv(a) and conv(b) are disjoint iff 0 is
	// outside conv({a_i - b_j}).
	sc.pts = growF(sc.pts, na*nb*d)
	for i := 0; i < na; i++ {
		pa := a.At(i)
		for j := 0; j < nb; j++ {
			pb := b.At(j)
			row := sc.pts[(i*nb+j)*d : (i*nb+j+1)*d]
			for k := 0; k < d; k++ {
				row[k] = pa[k] - pb[k]
			}
		}
	}
	sc.wolfeMinNorm(na*nb, d)
	gn := 0.0
	for _, v := range sc.x {
		gn += v * v
	}
	gn = math.Sqrt(gn)
	if gn == 0 {
		sepFallbacks.Inc()
		return false
	}
	// Exact support values in direction g over the original sets.
	minA, maxB := math.Inf(1), math.Inf(-1)
	beta := 0.0
	for i := 0; i < na; i++ {
		pa := a.At(i)
		dot := 0.0
		for k := 0; k < d; k++ {
			dot += sc.x[k] * pa[k]
		}
		if dot < minA {
			minA = dot
		}
		if v := math.Abs(dot) / gn; v > beta {
			beta = v
		}
	}
	for j := 0; j < nb; j++ {
		pb := b.At(j)
		dot := 0.0
		for k := 0; k < d; k++ {
			dot += sc.x[k] * pb[k]
		}
		if dot > maxB {
			maxB = dot
		}
		if v := math.Abs(dot) / gn; v > beta {
			beta = v
		}
	}
	// Relaxed hulls inflate each support by delta * dual-norm of the
	// direction: ||g||_1 for p = inf, ||g||_inf for p = 1.
	need := 0.0
	if delta > 0 {
		dual := 0.0
		if math.IsInf(p, 1) {
			for _, v := range sc.x {
				dual += math.Abs(v)
			}
		} else {
			for _, v := range sc.x {
				if a := math.Abs(v); a > dual {
					dual = a
				}
			}
		}
		need = 2 * delta * dual / gn
	}
	feasScale := math.Max(1, delta)
	if (minA-maxB)/gn-need >= filterRejectMargin*feasScale*(1+beta) {
		sepRejects.Inc()
		return true
	}
	sepFallbacks.Inc()
	return false
}
