package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"relaxedbvc/internal/linalg"
	"relaxedbvc/internal/vec"
)

// Property: Dist2 is zero exactly when the point is in the hull (up to
// the LP/Wolfe tolerance band).
func TestPropertyDistZeroIffInHull(t *testing.T) {
	rng := rand.New(rand.NewSource(201))
	f := func() bool {
		d := 2 + rng.Intn(3)
		n := d + 1 + rng.Intn(3)
		pts := make([]vec.V, n)
		for i := range pts {
			pts[i] = randVec(rng, d, 2)
		}
		s := vec.NewSet(pts...)
		q := randVec(rng, d, 2)
		dist, _ := Dist2(q, s)
		in := InHull(q, s)
		if in && dist > 1e-6 {
			return false
		}
		if !in && dist < 1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Property: the nearest point returned by Dist2 achieves the distance and
// lies in the hull.
func TestPropertyNearestPointAchievesDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	f := func() bool {
		d := 2 + rng.Intn(3)
		n := 3 + rng.Intn(4)
		pts := make([]vec.V, n)
		for i := range pts {
			pts[i] = randVec(rng, d, 3)
		}
		s := vec.NewSet(pts...)
		q := randVec(rng, d, 5)
		dist, nearest := Dist2(q, s)
		if math.Abs(q.Dist2(nearest)-dist) > 1e-6*(1+dist) {
			return false
		}
		dn, _ := Dist2(nearest, s)
		return dn < 1e-5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Property: distances are translation invariant.
func TestPropertyTranslationInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(203))
	f := func() bool {
		d := 2 + rng.Intn(2)
		n := 3 + rng.Intn(3)
		pts := make([]vec.V, n)
		shift := randVec(rng, d, 10)
		shifted := make([]vec.V, n)
		for i := range pts {
			pts[i] = randVec(rng, d, 2)
			shifted[i] = pts[i].Add(shift)
		}
		q := randVec(rng, d, 4)
		d1, _ := Dist2(q, vec.NewSet(pts...))
		d2, _ := Dist2(q.Add(shift), vec.NewSet(shifted...))
		return math.Abs(d1-d2) < 1e-7*(1+d1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Property: hull distance never exceeds the distance to any single
// member point, and never exceeds distance to the centroid.
func TestPropertyHullDistanceDominated(t *testing.T) {
	rng := rand.New(rand.NewSource(204))
	f := func() bool {
		d := 2 + rng.Intn(3)
		n := 2 + rng.Intn(5)
		pts := make([]vec.V, n)
		for i := range pts {
			pts[i] = randVec(rng, d, 3)
		}
		s := vec.NewSet(pts...)
		q := randVec(rng, d, 5)
		dist, _ := Dist2(q, s)
		for _, p := range pts {
			if dist > q.Dist2(p)+1e-7 {
				return false
			}
		}
		return dist <= q.Dist2(vec.Mean(pts))+1e-7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Property: distances are invariant under orthogonal transformations
// (random rotation: an orthonormal basis of d Gaussian vectors).
func TestPropertyRotationInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(206))
	f := func() bool {
		d := 2 + rng.Intn(3)
		g := make([]vec.V, d)
		for j := range g {
			g[j] = vec.New(d)
			for i := range g[j] {
				g[j][i] = rng.NormFloat64()
			}
		}
		q := linalg.OrthonormalBasis(g)
		if q.Cols != d {
			return false
		}
		rot := func(v vec.V) vec.V {
			out := vec.New(d)
			for i := range out {
				for j := 0; j < d; j++ {
					out[i] += q.At(i, j) * v[j]
				}
			}
			return out
		}
		n := 3 + rng.Intn(3)
		pts := make([]vec.V, n)
		rpts := make([]vec.V, n)
		for i := range pts {
			pts[i] = randVec(rng, d, 2)
			rpts[i] = rot(pts[i])
		}
		x := randVec(rng, d, 4)
		d1, _ := Dist2(x, vec.NewSet(pts...))
		d2, _ := Dist2(rot(x), vec.NewSet(rpts...))
		return math.Abs(d1-d2) < 1e-7*(1+d1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
