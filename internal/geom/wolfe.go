package geom

import (
	"math"
	"slices"

	"relaxedbvc/internal/linalg"
	"relaxedbvc/internal/vec"
)

// Dist2 returns the Euclidean distance from q to conv(s) and the nearest
// point of the hull (memoized), computed with Wolfe's min-norm-point
// algorithm applied to the translated set {s_i - q}. Wolfe's method
// terminates finitely in exact arithmetic; we add iteration caps and
// tolerances for floating point.
func Dist2(q vec.V, s *vec.Set) (float64, vec.V) {
	if s.Len() == 0 {
		panic("geom: Dist2 on empty set")
	}
	return cachedDist(opDist2, q, s, 0, func() (float64, vec.V) { return Dist2Uncached(q, s) })
}

// Dist2Uncached is Dist2 bypassing the memo cache. Iterative solvers
// whose inner loops query a fresh point every step (so keys never
// repeat) should use it: caching those lookups costs key encoding and
// table growth without ever producing a hit. It allocates only the
// nearest point it returns.
func Dist2Uncached(q vec.V, s *vec.Set) (float64, vec.V) {
	d, near, _ := Dist2Certified(q, s)
	return d, near
}

// Dist2Certified is Dist2Uncached that also reports whether Wolfe's
// method stopped at its optimality test, not at a numerical stall or its
// iteration cap (after which the distance may be far above the true one).
func Dist2Certified(q vec.V, s *vec.Set) (float64, vec.V, bool) {
	n, d := s.Len(), q.Dim()
	if n == 0 {
		panic("geom: Dist2 on empty set")
	}
	if s.Dim() != d {
		panic("geom: Dist2 dimension mismatch")
	}
	sc := GetFilterScratch()
	defer sc.Release()
	sc.pts = growF(sc.pts, n*d)
	for i := 0; i < n; i++ {
		p, row := s.At(i), sc.pts[i*d:(i+1)*d]
		for j := range row {
			row[j] = p[j] - q[j]
		}
	}
	certified := sc.minNorm(n, d)
	near := make(vec.V, d)
	for j := range near {
		near[j] = sc.x[j] + q[j]
	}
	return vec.V(sc.x).Norm2(), near, certified
}

// MinNormPoint returns the point of minimum Euclidean norm in the convex
// hull of pts, along with its convex weights over pts (zero for points not
// in the final corral).
func MinNormPoint(pts []vec.V) (vec.V, []float64) {
	n := len(pts)
	if n == 0 {
		panic("geom: MinNormPoint on empty set")
	}
	d := pts[0].Dim()
	sc := GetFilterScratch()
	defer sc.Release()
	sc.pts = growF(sc.pts, n*d)
	for i, p := range pts {
		if p.Dim() != d {
			panic("geom: MinNormPoint dimension mismatch")
		}
		copy(sc.pts[i*d:], p)
	}
	sc.minNorm(n, d)
	weights := make([]float64, n)
	// Normalize the corral weights onto the full index set.
	sum := 0.0
	for _, l := range sc.lam {
		sum += l
	}
	for i, c := range sc.corral {
		weights[c] = sc.lam[i] / sum
	}
	return vec.V(sc.x).Clone(), weights
}

// minNorm runs Wolfe's min-norm-point algorithm over the n points of
// dimension d flattened in sc.pts, leaving the minimizer in sc.x and its
// corral weights in (sc.corral, sc.lam). Every dot product, update and
// comparison is the one of the vec.V formulation it replaced
// (wolfe_ref_test.go), in the same order, so it returns the same bits
// without allocating once the scratch has grown. The screens' Wolfe,
// wolfeMinNorm, stops at a tighter gap and solves by Gauss-Jordan.
// minNorm reports whether it stopped at its optimality test.
func (sc *FilterScratch) minNorm(n, d int) bool {
	pt := func(i int) vec.V { return sc.pts[i*d : (i+1)*d] }
	// Scale-aware tolerance.
	scale := 1.0
	for i := 0; i < n; i++ {
		if v := pt(i).Norm2(); v > scale {
			scale = v
		}
	}
	tol := 1e-12 * scale * scale

	// Start from the point of smallest norm.
	best := 0
	for i := 1; i < n; i++ {
		if pt(i).Norm2() < pt(best).Norm2() {
			best = i
		}
	}
	sc.corral = append(sc.corral[:0], best)
	sc.lam = append(sc.lam[:0], 1)
	sc.x = growF(sc.x, d)
	x := vec.V(sc.x)
	copy(x, pt(best))

	for major := 0; major < 200+20*n; major++ {
		// Most violating vertex: minimize <x, p_j>.
		j, jv := -1, math.Inf(1)
		for i := 0; i < n; i++ {
			if v := x.Dot(pt(i)); v < jv {
				j, jv = i, v
			}
		}
		xx := x.Dot(x)
		if jv > xx-1e-9*scale*scale-tol {
			return true // optimality: no vertex improves
		}
		if slices.Contains(sc.corral, j) {
			return false // numerical stall; x is as good as we can certify
		}
		sc.corral = append(sc.corral, j)
		sc.lam = append(sc.lam, 0)

		// Minor cycle: project onto the affine hull of the corral; walk
		// back and drop vertices until the affine minimizer is convex.
		for minor := 0; minor <= n+2; minor++ {
			if !sc.affineMin(d) {
				// Degenerate Gram system: drop the most recently added
				// vertex and stop the minor cycle.
				sc.corral = sc.corral[:len(sc.corral)-1]
				sc.lam = sc.lam[:len(sc.lam)-1]
				break
			}
			const posEps = 1e-11
			alpha := sc.alpha
			if !slices.ContainsFunc(alpha, func(a float64) bool { return a <= posEps }) {
				copy(sc.lam, alpha)
				break
			}
			// Line search from lam toward alpha to the first vanishing weight.
			theta := 1.0
			for i, a := range alpha {
				if a < posEps && sc.lam[i] > a {
					if t := sc.lam[i] / (sc.lam[i] - a); t < theta {
						theta = t
					}
				}
			}
			// Blend, and drop zeroed vertices in place.
			keep := 0
			for i := range sc.lam {
				if nl := (1-theta)*sc.lam[i] + theta*alpha[i]; nl > posEps {
					sc.corral[keep], sc.lam[keep] = sc.corral[i], nl
					keep++
				}
			}
			if keep == 0 {
				// Everything vanished numerically; keep the first vertex.
				sc.lam[0], keep = 1, 1
			}
			sc.corral, sc.lam = sc.corral[:keep], sc.lam[:keep]
		}
		// Recompute x from the corral weights.
		clear(x)
		for i, c := range sc.corral {
			x.AXPY(sc.lam[i], pt(c))
		}
	}
	return false
}

// affineMin solves min ||sum alpha_i p_{c_i}||^2 s.t. sum alpha = 1 with
// alpha free, via the KKT system over the Gram matrix, into sc.alpha.
// false when the system is numerically singular (affinely dependent
// corral).
func (sc *FilterScratch) affineMin(d int) bool {
	k := len(sc.corral)
	kk := k + 1
	sc.gram = growF(sc.gram, kk*kk)
	m := &sc.kkt
	*m = linalg.Matrix{Rows: kk, Cols: kk, Data: sc.gram}
	pt := func(i int) vec.V { return sc.pts[sc.corral[i]*d : (sc.corral[i]+1)*d] }
	for i := 0; i < k; i++ {
		for j := i; j < k; j++ {
			g := pt(i).Dot(pt(j))
			m.Set(i, j, g)
			m.Set(j, i, g)
		}
		m.Set(i, k, 1)
		m.Set(k, i, 1)
	}
	m.Set(k, k, 0)
	sc.rhs = growF(sc.rhs, kk)
	clear(sc.rhs)
	sc.rhs[k] = 1
	sc.alpha = growF(sc.alpha, kk)
	if sc.lu.FactorInto(m); sc.lu.SolveInto(sc.alpha, sc.rhs) != nil {
		// Ridge fallback for affinely dependent corrals: a tiny Tikhonov
		// term on the Gram block makes the system solvable and biases the
		// answer toward the minimum-norm multiplier, which is what Wolfe's
		// method wants anyway.
		scale := 1.0
		for i := 0; i < k; i++ {
			if g := m.At(i, i); g > scale {
				scale = g
			}
		}
		for i := 0; i < k; i++ {
			m.Set(i, i, m.At(i, i)+1e-10*scale)
		}
		if sc.lu.FactorInto(m); sc.lu.SolveInto(sc.alpha, sc.rhs) != nil {
			return false
		}
	}
	sc.alpha = sc.alpha[:k]
	return true
}
