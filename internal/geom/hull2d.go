package geom

import (
	"sort"

	"relaxedbvc/internal/vec"
)

// Hull2D computes the convex hull of 2-D points with Andrew's monotone
// chain, returning the hull vertices in counter-clockwise order without
// repetition of the first point. Collinear boundary points are dropped.
//
// It serves as an independent exact oracle for the LP-based membership
// predicates in two dimensions (see the cross-validation property tests)
// and powers the 2-D visual summaries of the examples.
func Hull2D(pts []vec.V) []vec.V {
	if len(pts) == 0 {
		return nil
	}
	for _, p := range pts {
		if p.Dim() != 2 {
			panic("geom: Hull2D requires 2-D points")
		}
	}
	// Sort lexicographically, deduplicate.
	sorted := make([]vec.V, len(pts))
	copy(sorted, pts)
	sort.Slice(sorted, func(i, j int) bool {
		//bvclint:allow floateq -- lexicographic sort needs an exact total order; a tolerance would break transitivity
		if sorted[i][0] != sorted[j][0] {
			return sorted[i][0] < sorted[j][0]
		}
		return sorted[i][1] < sorted[j][1]
	})
	uniq := sorted[:0]
	for i, p := range sorted {
		if i == 0 || !p.Equal(sorted[i-1]) {
			uniq = append(uniq, p)
		}
	}
	n := len(uniq)
	if n <= 2 {
		out := make([]vec.V, n)
		for i, p := range uniq {
			out[i] = p.Clone()
		}
		return out
	}
	cross := func(o, a, b vec.V) float64 {
		return (a[0]-o[0])*(b[1]-o[1]) - (a[1]-o[1])*(b[0]-o[0])
	}
	var hull []vec.V
	// Lower chain.
	for _, p := range uniq {
		for len(hull) >= 2 && cross(hull[len(hull)-2], hull[len(hull)-1], p) <= 0 {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, p)
	}
	// Upper chain.
	lower := len(hull) + 1
	for i := n - 2; i >= 0; i-- {
		p := uniq[i]
		for len(hull) >= lower && cross(hull[len(hull)-2], hull[len(hull)-1], p) <= 0 {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, p)
	}
	hull = hull[:len(hull)-1] // last point repeats the first
	out := make([]vec.V, len(hull))
	for i, p := range hull {
		out[i] = p.Clone()
	}
	return out
}

// PolygonArea returns the (positive) area of a CCW convex polygon.
func PolygonArea(hull []vec.V) float64 {
	if len(hull) < 3 {
		return 0
	}
	s := 0.0
	for i := range hull {
		a := hull[i]
		b := hull[(i+1)%len(hull)]
		s += a[0]*b[1] - b[0]*a[1]
	}
	if s < 0 {
		s = -s
	}
	return s / 2
}
