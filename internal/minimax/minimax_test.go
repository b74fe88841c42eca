package minimax

import (
	"math"
	"math/rand"
	"testing"

	"relaxedbvc/internal/relax"
	"relaxedbvc/internal/simplexgeo"
	"relaxedbvc/internal/vec"
)

func randVec(rng *rand.Rand, d int, scale float64) vec.V {
	v := vec.New(d)
	for i := range v {
		v[i] = rng.NormFloat64() * scale
	}
	return v
}

func randSimplexSet(rng *rand.Rand, d int) *vec.Set {
	for {
		pts := make([]vec.V, d+1)
		for i := range pts {
			pts[i] = randVec(rng, d, 3)
		}
		if _, err := simplexgeo.New(pts); err == nil {
			return vec.NewSet(pts...)
		}
	}
}

func TestMaxDist2(t *testing.T) {
	a := vec.NewSet(vec.Of(0, 0))
	b := vec.NewSet(vec.Of(4, 0))
	if got := MaxDist2(vec.Of(1, 0), []*vec.Set{a, b}); math.Abs(got-3) > 1e-12 {
		t.Errorf("MaxDist2 = %v", got)
	}
}

func TestMinMaxDist2TwoPoints(t *testing.T) {
	// Two singletons at distance 4: optimum is the midpoint, value 2.
	a := vec.NewSet(vec.Of(-2, 0))
	b := vec.NewSet(vec.Of(2, 0))
	res := MinMaxDist2([]*vec.Set{a, b})
	if math.Abs(res.Delta-2) > 1e-6 {
		t.Errorf("delta = %v, want 2", res.Delta)
	}
	if math.Abs(res.Point[0]) > 1e-5 || math.Abs(res.Point[1]) > 1e-5 {
		t.Errorf("point = %v, want origin", res.Point)
	}
}

func TestMinMaxDist2ThreePointsEquilateral(t *testing.T) {
	// Three singleton sets at the vertices of an equilateral triangle with
	// circumradius 1: optimal point is the center, value 1.
	h := math.Sqrt(3) / 2
	sets := []*vec.Set{
		vec.NewSet(vec.Of(0, 1)),
		vec.NewSet(vec.Of(-h, -0.5)),
		vec.NewSet(vec.Of(h, -0.5)),
	}
	res := MinMaxDist2(sets)
	if math.Abs(res.Delta-1) > 1e-5 {
		t.Errorf("delta = %v, want 1", res.Delta)
	}
}

func TestMinMaxDist2Identical(t *testing.T) {
	s := vec.NewSet(vec.Of(1, 2), vec.Of(1, 2))
	res := MinMaxDist2([]*vec.Set{s, s})
	if res.Delta > 1e-9 {
		t.Errorf("delta = %v, want 0", res.Delta)
	}
}

// Lemma 13: for f=1 and an affinely independent set of d+1 inputs,
// delta*_2 equals the inradius of the input simplex, attained at the
// incenter.
func TestDeltaStar2SimplexClosedForm(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 10; trial++ {
		d := 2 + rng.Intn(3)
		s := randSimplexSet(rng, d)
		sx, err := simplexgeo.New(s.Points())
		if err != nil {
			t.Fatal(err)
		}
		res := DeltaStar2(s, 1)
		if !res.Exact {
			t.Fatal("closed form not used for simplex input")
		}
		if math.Abs(res.Delta-sx.Inradius()) > 1e-12 {
			t.Fatalf("delta = %v, inradius = %v", res.Delta, sx.Inradius())
		}
	}
}

// E7 core: the cutting-plane solver, given nothing but the family,
// brackets the Lemma 13 inradius within its gap tolerance.
func TestDeltaStar2IterativeMatchesInradius(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		d := 2 + rng.Intn(3)
		s := randSimplexSet(rng, d)
		want := DeltaStar2(s, 1).Delta
		got := DeltaStar2Iterative(s, 1)
		tol := gapTol * s.MaxEdge(2)
		if !got.Converged || got.Exact {
			t.Fatalf("d=%d: %+v", d, got)
		}
		if want < got.Lower-tol || want > got.Delta+tol {
			t.Fatalf("d=%d: inradius %v outside the bracket [%v, %v]", d, want, got.Lower, got.Delta)
		}
	}
}

// delta*_inf <= delta*_2 <= delta*_1 (pointwise distance ordering).
func TestDeltaStar2BracketedByPolyNorms(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 6; trial++ {
		d := 2 + rng.Intn(2)
		s := randSimplexSet(rng, d)
		d2 := DeltaStar2(s, 1).Delta
		dInf, _ := relax.DeltaStarPoly(s, 1, math.Inf(1))
		d1, _ := relax.DeltaStarPoly(s, 1, 1)
		if dInf > d2+1e-6 || d2 > d1+1e-6 {
			t.Fatalf("bracket violated: inf=%v 2=%v 1=%v", dInf, d2, d1)
		}
	}
}

// Theorem 8: affinely dependent inputs with f=1, n=d+1 give delta* = 0.
func TestDeltaStar2DegenerateInputs(t *testing.T) {
	// Four coplanar points in R^3 (n = d+1 = 4) with a genuinely
	// intersecting Gamma after projection: use points whose 2-D Gamma with
	// f=1 is non-empty, i.e. n=4 points in a 2-plane with n >= d'+2 = 4.
	base := []vec.V{vec.Of(0, 0), vec.Of(2, 0), vec.Of(0, 2), vec.Of(2, 2)}
	// Embed the plane z = x + y.
	pts := make([]vec.V, 4)
	for i, b := range base {
		pts[i] = vec.Of(b[0], b[1], b[0]+b[1])
	}
	s := vec.NewSet(pts...)
	res := DeltaStar2(s, 1)
	if res.Delta > 1e-6 {
		t.Fatalf("degenerate inputs: delta = %v, want 0", res.Delta)
	}
	if !res.Exact {
		t.Error("degenerate path should report exact")
	}
}

func TestDeltaStar2RepeatedPoint(t *testing.T) {
	// n = d+1 with a repeated point: affinely dependent, delta* = 0
	// (a subset of size n-1 containing the duplicate always includes it).
	s := vec.NewSet(vec.Of(1, 1), vec.Of(1, 1), vec.Of(3, 0))
	res := DeltaStar2(s, 1)
	if res.Delta > 1e-6 {
		t.Fatalf("delta = %v, want 0", res.Delta)
	}
}

// Theorem 9 numeric check on random simplices, treating each vertex in
// turn as the faulty input.
func TestTheorem9BoundHolds(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 12; trial++ {
		d := 3 + rng.Intn(3)
		n := d + 1
		s := randSimplexSet(rng, d)
		dstar := DeltaStar2(s, 1).Delta
		for faulty := 0; faulty < n; faulty++ {
			bound := Theorem9Bound(s.Without(faulty), n)
			if dstar >= bound {
				t.Fatalf("d=%d faulty=%d: delta*=%v >= bound=%v", d, faulty, dstar, bound)
			}
		}
	}
}

// Theorem 12 numeric check: f=2, d=3, n=(d+1)f=8.
func TestTheorem12BoundHolds(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	d, f := 3, 2
	n := (d + 1) * f
	for trial := 0; trial < 2; trial++ {
		pts := make([]vec.V, n)
		for i := range pts {
			pts[i] = randVec(rng, d, 2)
		}
		s := vec.NewSet(pts...)
		dstar := DeltaStar2(s, f).Delta
		// Worst case over which f inputs are faulty: bound must hold for
		// every choice, so check the smallest bound (fewest edges removed
		// maximizes... we simply check all choices).
		vec.Combinations(n, f, func(faulty []int) bool {
			keep := make([]int, 0, n-f)
			fm := map[int]bool{}
			for _, x := range faulty {
				fm[x] = true
			}
			for i := 0; i < n; i++ {
				if !fm[i] {
					keep = append(keep, i)
				}
			}
			bound := Theorem12Bound(s.Subset(keep), d)
			if dstar >= bound {
				t.Fatalf("delta*=%v >= Theorem12 bound=%v (faulty=%v)", dstar, bound, faulty)
			}
			return true
		})
	}
}

func TestBoundHelpers(t *testing.T) {
	s := vec.NewSet(vec.Of(0, 0, 0), vec.Of(3, 0, 0), vec.Of(0, 4, 0))
	// maxEdge = 5, minEdge = 3.
	if got := Theorem9Bound(s, 4); math.Abs(got-math.Min(1.5, 2.5)) > 1e-12 {
		t.Errorf("Theorem9Bound = %v", got)
	}
	if got := Theorem12Bound(s, 3); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("Theorem12Bound = %v", got)
	}
	if got := Conjecture1Bound(s, 7, 2); math.Abs(got-5) > 1e-12 {
		t.Errorf("Conjecture1Bound = %v", got) // floor(7/2)-2 = 1
	}
}

func TestHolderScale(t *testing.T) {
	if got := HolderScale(4, 2); math.Abs(got-1) > 1e-12 {
		t.Errorf("HolderScale(4,2) = %v", got)
	}
	if got := HolderScale(4, math.Inf(1)); math.Abs(got-2) > 1e-12 {
		t.Errorf("HolderScale(4,inf) = %v", got)
	}
	if got := HolderScale(9, 4); math.Abs(got-math.Pow(9, 0.25)) > 1e-12 {
		t.Errorf("HolderScale(9,4) = %v", got)
	}
}

func TestDeltaStar2Validation(t *testing.T) {
	s := vec.NewSet(vec.Of(0), vec.Of(1))
	for _, f := range []int{0, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("f=%d did not panic", f)
				}
			}()
			DeltaStar2(s, f)
		}()
	}
}

// Lemma 16 for the L2 delta*: removing an input cannot decrease delta*.
func TestLemma16MonotonicityL2(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	d, f, n := 3, 2, 7
	pts := make([]vec.V, n)
	for i := range pts {
		pts[i] = randVec(rng, d, 2)
	}
	s := vec.NewSet(pts...)
	dFull := DeltaStar2Iterative(s, f).Delta
	for i := 0; i < n; i++ {
		dLess := DeltaStar2Iterative(s.Without(i), f).Delta
		if dFull > dLess+1e-4*(1+dLess) {
			t.Fatalf("Lemma 16 violated: %v > %v after removing %d", dFull, dLess, i)
		}
	}
}
