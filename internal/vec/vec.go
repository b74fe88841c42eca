// Package vec provides d-dimensional real vectors, Lp norms, point
// multisets, and the combinatorial enumerators (subsets, projections,
// partitions) used throughout the relaxed Byzantine vector consensus
// library.
//
// Terminology follows the paper: inputs are column vectors in R^d viewed
// as points; a multiset may repeat points; E(S) is the set of edges
// (segments) between pairs of points of S.
package vec

import (
	"fmt"
	"math"
	"strings"
)

// V is a point (or column vector) in R^d.
type V []float64

// New returns a zero vector of dimension d.
func New(d int) V { return make(V, d) }

// Of builds a vector from its coordinates.
func Of(xs ...float64) V {
	v := make(V, len(xs))
	copy(v, xs)
	return v
}

// Dim returns the dimension of v.
func (v V) Dim() int { return len(v) }

// Clone returns a deep copy of v.
func (v V) Clone() V {
	w := make(V, len(v))
	copy(w, v)
	return w
}

// Add returns v + w. Panics if dimensions differ.
func (v V) Add(w V) V {
	mustSameDim(v, w)
	out := make(V, len(v))
	for i := range v {
		out[i] = v[i] + w[i]
	}
	return out
}

// Sub returns v - w. Panics if dimensions differ.
func (v V) Sub(w V) V {
	mustSameDim(v, w)
	out := make(V, len(v))
	for i := range v {
		out[i] = v[i] - w[i]
	}
	return out
}

// Scale returns a*v.
func (v V) Scale(a float64) V {
	out := make(V, len(v))
	for i := range v {
		out[i] = a * v[i]
	}
	return out
}

// AddInPlace sets v = v + w and returns v.
func (v V) AddInPlace(w V) V {
	mustSameDim(v, w)
	for i := range v {
		v[i] += w[i]
	}
	return v
}

// AXPY sets v = v + a*w and returns v.
func (v V) AXPY(a float64, w V) V {
	mustSameDim(v, w)
	for i := range v {
		v[i] += a * w[i]
	}
	return v
}

// Dot returns the inner product <v, w>.
func (v V) Dot(w V) float64 {
	mustSameDim(v, w)
	s := 0.0
	for i := range v {
		s += v[i] * w[i]
	}
	return s
}

// Norm2 returns the Euclidean norm ||v||_2.
func (v V) Norm2() float64 {
	// Hypot-style scaling to avoid overflow is unnecessary at the scales
	// used here; plain sum of squares keeps it fast for the hot loops.
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// NormP returns the Lp norm of v for p >= 1. Use math.Inf(1) for
// L-infinity. Any other p, NaN included, panics.
func (v V) NormP(p float64) float64 {
	if !(p >= 1) {
		panic(fmt.Sprintf("vec: NormP requires p >= 1, got %v", p))
	}
	if math.IsInf(p, 1) {
		m := 0.0
		for _, x := range v {
			if a := math.Abs(x); a > m {
				m = a
			}
		}
		return m
	}
	switch p {
	case 1:
		s := 0.0
		for _, x := range v {
			s += math.Abs(x)
		}
		return s
	case 2:
		return v.Norm2()
	}
	s := 0.0
	for _, x := range v {
		s += math.Pow(math.Abs(x), p)
	}
	return math.Pow(s, 1/p)
}

// DistP returns ||v - w||_p.
func (v V) DistP(w V, p float64) float64 { return v.Sub(w).NormP(p) }

// Dist2 returns the Euclidean distance ||v - w||_2.
func (v V) Dist2(w V) float64 {
	mustSameDim(v, w)
	s := 0.0
	for i := range v {
		d := v[i] - w[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// Equal reports whether v and w agree exactly (same dim, same coordinates).
func (v V) Equal(w V) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if v[i] != w[i] {
			return false
		}
	}
	return true
}

// ApproxEqual reports whether ||v - w||_inf <= tol.
func (v V) ApproxEqual(w V, tol float64) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if math.Abs(v[i]-w[i]) > tol {
			return false
		}
	}
	return true
}

// String renders v as (x1, x2, ..., xd).
func (v V) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, x := range v {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%.6g", x)
	}
	b.WriteByte(')')
	return b.String()
}

// Mean returns the arithmetic mean of the points. Panics on empty input.
func Mean(pts []V) V {
	if len(pts) == 0 {
		panic("vec: Mean of empty point set")
	}
	m := New(pts[0].Dim())
	for _, p := range pts {
		m.AddInPlace(p)
	}
	return m.Scale(1 / float64(len(pts)))
}

// Lerp returns (1-t)*a + t*b.
func Lerp(a, b V, t float64) V {
	mustSameDim(a, b)
	out := make(V, len(a))
	for i := range a {
		out[i] = (1-t)*a[i] + t*b[i]
	}
	return out
}

func mustSameDim(v, w V) {
	if len(v) != len(w) {
		panic(fmt.Sprintf("vec: dimension mismatch %d vs %d", len(v), len(w)))
	}
}
