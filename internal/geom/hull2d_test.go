package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"relaxedbvc/internal/vec"
)

func TestHull2DSquare(t *testing.T) {
	pts := []vec.V{
		vec.Of(0, 0), vec.Of(1, 0), vec.Of(1, 1), vec.Of(0, 1),
		vec.Of(0.5, 0.5), vec.Of(0.2, 0.8), // interior points dropped
	}
	hull := Hull2D(pts)
	if len(hull) != 4 {
		t.Fatalf("hull size = %d: %v", len(hull), hull)
	}
	if got := PolygonArea(hull); math.Abs(got-1) > 1e-12 {
		t.Errorf("area = %v", got)
	}
	// CCW orientation: positive cross products around the ring.
	for i := range hull {
		a, b, c := hull[i], hull[(i+1)%4], hull[(i+2)%4]
		cr := (b[0]-a[0])*(c[1]-a[1]) - (b[1]-a[1])*(c[0]-a[0])
		if cr <= 0 {
			t.Fatalf("not CCW at %d: %v", i, hull)
		}
	}
}

func TestHull2DDegenerate(t *testing.T) {
	if h := Hull2D(nil); h != nil {
		t.Error("empty hull should be nil")
	}
	if h := Hull2D([]vec.V{vec.Of(1, 2)}); len(h) != 1 {
		t.Errorf("single point hull = %v", h)
	}
	// Duplicates collapse.
	if h := Hull2D([]vec.V{vec.Of(1, 2), vec.Of(1, 2)}); len(h) != 1 {
		t.Errorf("duplicate hull = %v", h)
	}
	// Collinear points become a segment (2 extreme points).
	h := Hull2D([]vec.V{vec.Of(0, 0), vec.Of(1, 1), vec.Of(2, 2), vec.Of(3, 3)})
	if len(h) != 2 {
		t.Errorf("collinear hull = %v", h)
	}
}

func TestInPolygonBasics(t *testing.T) {
	hull := Hull2D([]vec.V{vec.Of(0, 0), vec.Of(2, 0), vec.Of(2, 2), vec.Of(0, 2)})
	if !inPolygon(vec.Of(1, 1), hull, 1e-9) {
		t.Error("center not in square")
	}
	if !inPolygon(vec.Of(0, 1), hull, 1e-9) {
		t.Error("boundary not in square")
	}
	if inPolygon(vec.Of(-0.01, 1), hull, 1e-9) {
		t.Error("outside point in square")
	}
	// Degenerate shapes.
	if !inPolygon(vec.Of(1, 1), []vec.V{vec.Of(1, 1)}, 1e-9) {
		t.Error("point-polygon membership")
	}
	if !inPolygon(vec.Of(1, 0), []vec.V{vec.Of(0, 0), vec.Of(2, 0)}, 1e-9) {
		t.Error("segment-polygon membership")
	}
	if inPolygon(vec.Of(1, 1), nil, 1) {
		t.Error("empty polygon contains a point")
	}
}

// Cross-validation: the exact 2-D monotone-chain oracle and the LP-based
// membership must agree everywhere except a thin boundary band.
func TestPropertyHull2DAgreesWithLP(t *testing.T) {
	rng := rand.New(rand.NewSource(241))
	f := func() bool {
		n := 3 + rng.Intn(8)
		pts := make([]vec.V, n)
		for i := range pts {
			pts[i] = vec.Of(rng.NormFloat64()*2, rng.NormFloat64()*2)
		}
		hull := Hull2D(pts)
		s := vec.NewSet(pts...)
		for probe := 0; probe < 20; probe++ {
			q := vec.Of(rng.NormFloat64()*3, rng.NormFloat64()*3)
			d2, _ := Dist2(q, s)
			inLP := d2 <= 1e-9
			inPoly := inPolygon(q, hull, 1e-9)
			// Skip points within the numerical boundary band.
			if d2 < 1e-7 && !inPoly {
				continue
			}
			if inLP != inPoly {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Cross-validation: polygon area shrinks (weakly) when points are
// removed.
func TestPropertyHullAreaMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(242))
	f := func() bool {
		n := 4 + rng.Intn(6)
		pts := make([]vec.V, n)
		for i := range pts {
			pts[i] = vec.Of(rng.NormFloat64(), rng.NormFloat64())
		}
		full := PolygonArea(Hull2D(pts))
		sub := PolygonArea(Hull2D(pts[:n-1]))
		return sub <= full+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestHull2DRejectsWrongDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("3-D point accepted")
		}
	}()
	Hull2D([]vec.V{vec.Of(1, 2, 3)})
}

// inPolygon reports whether q lies inside or on the boundary of the
// convex polygon given by its CCW-ordered vertices, within tolerance tol
// on the edge half-plane tests. Degenerate polygons (point, segment) are
// handled as the corresponding lower-dimensional membership. It is the
// independent referee that TestPropertyHull2DAgreesWithLP holds Hull2D
// and the LP-based distance to.
func inPolygon(q vec.V, hull []vec.V, tol float64) bool {
	switch len(hull) {
	case 0:
		return false
	case 1:
		return q.Dist2(hull[0]) <= tol
	case 2:
		// Distance to the segment.
		d, _ := Dist2(q, vec.NewSet(hull[0], hull[1]))
		return d <= tol
	}
	for i := range hull {
		a := hull[i]
		b := hull[(i+1)%len(hull)]
		// CCW: interior is to the left of each directed edge.
		crossV := (b[0]-a[0])*(q[1]-a[1]) - (b[1]-a[1])*(q[0]-a[0])
		if crossV < -tol {
			return false
		}
	}
	return true
}
