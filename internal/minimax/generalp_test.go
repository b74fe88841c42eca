package minimax

import (
	"math"
	"math/rand"
	"testing"

	"relaxedbvc/internal/relax"
	"relaxedbvc/internal/vec"
)

func TestDeltaStarPDispatchesToL2(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	s := randSimplexSet(rng, 3)
	if got, want := DeltaStarP(s, 1, 2).Delta, DeltaStar2(s, 1).Delta; got != want {
		t.Fatalf("p=2 dispatch: %v vs %v", got, want)
	}
}

func TestDeltaStarPMatchesExactLPNorms(t *testing.T) {
	// p = 1 and p = inf are the exact LP values, certified: the dispatch
	// returns relax.DeltaStarPoly's delta and point with Lower = Delta.
	rng := rand.New(rand.NewSource(82))
	for trial := 0; trial < 4; trial++ {
		d := 2 + rng.Intn(2)
		s := randSimplexSet(rng, d)
		for _, p := range []float64{1, math.Inf(1)} {
			exact, pt := relax.DeltaStarPoly(s, 1, p)
			got := DeltaStarP(s, 1, p)
			if math.Float64bits(got.Delta) != math.Float64bits(exact) || !got.Point.Equal(pt) {
				t.Fatalf("p=%v: DeltaStarP (%v, %v), exact LP (%v, %v)", p, got.Delta, got.Point, exact, pt)
			}
			if !got.Exact || !got.Converged || got.Lower != got.Delta {
				t.Fatalf("p=%v: exact LP value not certified: %+v", p, got)
			}
		}
	}
}

func TestDeltaStarPNormOrdering(t *testing.T) {
	// dist_p decreases in p, so delta*_p does too:
	// delta*_inf <= delta*_4 <= delta*_2 <= delta*_1 (within tolerance).
	rng := rand.New(rand.NewSource(83))
	s := randSimplexSet(rng, 3)
	tol := 5e-3
	dInf := DeltaStarP(s, 1, math.Inf(1)).Delta
	d4 := DeltaStarP(s, 1, 4).Delta
	d2 := DeltaStarP(s, 1, 2).Delta
	d1 := DeltaStarP(s, 1, 1).Delta
	if dInf > d4+tol || d4 > d2+tol || d2 > d1+tol {
		t.Fatalf("ordering violated: inf=%v 4=%v 2=%v 1=%v", dInf, d4, d2, d1)
	}
}

func TestDeltaStarPTheorem14Bound(t *testing.T) {
	// The true delta*_p must respect the Theorem 14 transferred bound
	// d^(1/2-1/p) * kappa * maxEdge_p with kappa = 1/(n-2).
	rng := rand.New(rand.NewSource(84))
	for trial := 0; trial < 3; trial++ {
		d := 3
		n := d + 1
		s := randSimplexSet(rng, d)
		for _, p := range []float64{3, 4} {
			dstar := DeltaStarP(s, 1, p).Delta
			nonFaulty := s.Without(n - 1)
			bound := HolderScale(d, p) / float64(n-2) * nonFaulty.MaxEdge(p)
			if dstar >= bound {
				t.Fatalf("p=%v: delta*_p=%v >= bound=%v", p, dstar, bound)
			}
		}
	}
}

func TestLpGradient(t *testing.T) {
	g := lpGradient(vec.Of(3, -4), 2)
	if math.Abs(g[0]-0.6) > 1e-12 || math.Abs(g[1]+0.8) > 1e-12 {
		t.Errorf("L2 gradient = %v", g)
	}
	gi := lpGradient(vec.Of(1, -5, 2), math.Inf(1))
	if gi[0] != 0 || gi[1] != -1 || gi[2] != 0 {
		t.Errorf("Linf subgradient = %v", gi)
	}
	gz := lpGradient(vec.New(2), 3)
	if gz[0] != 0 || gz[1] != 0 {
		t.Errorf("zero-residual gradient = %v", gz)
	}
}

func TestDeltaStarPValidation(t *testing.T) {
	s := vec.NewSet(vec.Of(0), vec.Of(1))
	for name, fn := range map[string]func(){
		"bad f": func() { DeltaStarP(s, 0, 3) },
		"bad p": func() { DeltaStarP(s, 1, 0.5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}
