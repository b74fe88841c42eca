package simplexgeo

import (
	"math"

	"relaxedbvc/internal/linalg"
	"relaxedbvc/internal/vec"
)

// Simplex formulas only tests use: independent cross-checks of the dual
// basis of Lemma 11 and the radii of Lemma 12 (barycentric coordinates,
// facet distances, volume, escribed spheres, Heron's formula).

// Vertices returns the d+1 vertices (not copies).
func (s *Simplex) Vertices() []vec.V { return s.pts }

// DualBasis returns b_1, ..., b_{d+1} per Lemma 11: <a_i - a_j, b_k> =
// delta_ik - delta_jk, with b_{d+1} = -sum_{i<=d} b_i.
func (s *Simplex) DualBasis() []vec.V { return s.dual }

// Barycentric returns the barycentric coordinates of x with respect to
// the simplex vertices: x = sum t_i a_i with sum t_i = 1. By Lemma 11,
// t_i = <x - a_{d+1}, b_i> for i <= d, and t_{d+1} = 1 - sum.
func (s *Simplex) Barycentric(x vec.V) []float64 {
	t := make([]float64, s.d+1)
	diff := x.Sub(s.pts[s.d])
	rest := 1.0
	for i := 0; i < s.d; i++ {
		t[i] = diff.Dot(s.dual[i])
		rest -= t[i]
	}
	t[s.d] = rest
	return t
}

// Contains reports whether x lies in the (closed) simplex, within tol on
// the barycentric coordinates.
func (s *Simplex) Contains(x vec.V, tol float64) bool {
	for _, t := range s.Barycentric(x) {
		if t < -tol {
			return false
		}
	}
	return true
}

// FacetDistance returns the Euclidean distance from x to the hyperplane
// supporting facet pi_k (the facet opposite vertex k, 0-based). For x
// inside the simplex this is the positive distance t_k / ||b_k||.
func (s *Simplex) FacetDistance(x vec.V, k int) float64 {
	t := s.Barycentric(x)
	return math.Abs(t[k]) / s.dual[k].Norm2()
}

// HeronInradius returns the inradius of a triangle with side lengths
// a, b, c via Heron's formula, as used in the d = 2 base case of the
// Theorem 9 induction: r = sqrt((p-a)(p-b)(p-c)/p), p the semiperimeter.
func HeronInradius(a, b, c float64) float64 {
	p := (a + b + c) / 2
	v := (p - a) * (p - b) * (p - c) / p
	if v <= 0 {
		return 0
	}
	return math.Sqrt(v)
}

// Volume returns the d-dimensional volume of the simplex:
// |det A| / d!.
func (s *Simplex) Volume() float64 {
	cols := make([]vec.V, s.d)
	for i := 0; i < s.d; i++ {
		cols[i] = s.pts[i].Sub(s.pts[s.d])
	}
	det := math.Abs(linalg.Det(linalg.FromColumns(cols...)))
	fact := 1.0
	for i := 2; i <= s.d; i++ {
		fact *= float64(i)
	}
	return det / fact
}

// EscribedRadius returns the radius of the escribed (ex-)sphere opposite
// vertex k: the sphere tangent to facet pi_k from outside and to the
// extensions of the other facets. From the dual-basis representation
// (Akira Toda [2]): rho_k = 1 / (sum_{j != k} ||b_j|| - ||b_k||).
// The denominator is always positive because b_k = -sum_{j != k} b_j
// forces ||b_k|| < sum_{j != k} ||b_j|| for a non-degenerate simplex.
func (s *Simplex) EscribedRadius(k int) float64 {
	sum := 0.0
	for j, b := range s.dual {
		if j == k {
			continue
		}
		sum += b.Norm2()
	}
	return 1 / (sum - s.dual[k].Norm2())
}

// EscribedCenter returns the center of the escribed sphere opposite
// vertex k. In barycentric coordinates the center has weight
// proportional to -||b_k|| at vertex k and +||b_j|| elsewhere.
func (s *Simplex) EscribedCenter(k int) vec.V {
	denom := 0.0
	w := make([]float64, len(s.dual))
	for j, b := range s.dual {
		w[j] = b.Norm2()
		if j == k {
			w[j] = -w[j]
		}
		denom += w[j]
	}
	c := vec.New(s.d)
	for j, p := range s.pts {
		c.AXPY(w[j]/denom, p)
	}
	return c
}
