package minimax

import (
	"math"
	"math/rand"
	"testing"

	"relaxedbvc/internal/relax"
	"relaxedbvc/internal/vec"
	"relaxedbvc/internal/workload"
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
	// returns relax.DeltaStarPoly's delta and point with Lower = Delta,
	// also at f = 0 (the hull of S itself), which Step 2 may ask for.
	rng := rand.New(rand.NewSource(82))
	for trial := 0; trial < 4; trial++ {
		d := 2 + rng.Intn(2)
		s := randSimplexSet(rng, d)
		for _, f := range []int{0, 1} {
			for _, p := range []float64{1, math.Inf(1)} {
				exact, pt := relax.DeltaStarPoly(s, f, p)
				got := DeltaStarP(s, f, p)
				if math.Float64bits(got.Delta) != math.Float64bits(exact) || !got.Point.Equal(pt) {
					t.Fatalf("f=%d p=%v: DeltaStarP (%v, %v), exact LP (%v, %v)", f, p, got.Delta, got.Point, exact, pt)
				}
				if !got.Exact || !got.Converged || got.Lower != got.Delta {
					t.Fatalf("f=%d p=%v: exact LP value not certified: %+v", f, p, got)
				}
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

func TestDeltaStarPBracket(t *testing.T) {
	// The general-p bracket at the delta*_2 point: Lower <= Delta, a
	// positive Lower wherever delta*_2's is, Delta <= the L2 value for
	// p > 2 (||v||_p <= ||v||_2), and Delta ~ 0 where Gamma(S) is
	// non-empty (n >= (d+1)f+1, Vaidya-Garg).
	rng := rand.New(rand.NewSource(85))
	type instance struct {
		s        *vec.Set
		f        int
		gammaSet bool
	}
	var cases []instance
	for trial := 0; trial < 4; trial++ {
		cases = append(cases,
			instance{randSimplexSet(rng, 2+trial%2), 1, false},
			instance{vec.NewSet(workload.Gaussian(rng, 5, 2, 1)...), 1, true},
			instance{vec.NewSet(workload.Gaussian(rng, 7, 2, 1)...), 2, true},
			instance{vec.NewSet(workload.Gaussian(rng, 5, 3, 1)...), 1, true})
	}
	for i, c := range cases {
		fam := relax.DroppedSubsets(c.s, c.f)
		scale := 0.0
		for _, q := range c.s.Points() {
			scale = math.Max(scale, q.NormP(math.Inf(1)))
		}
		r2 := DeltaStar2(c.s, c.f)
		for _, p := range []float64{1.5, 3, 4} {
			r := DeltaStarP(c.s, c.f, p)
			if !(r.Lower <= r.Delta) {
				t.Errorf("case %d p=%v: Lower %v > Delta %v", i, p, r.Lower, r.Delta)
			}
			if r2.Lower > 0 && !(r.Lower > 0) {
				t.Errorf("case %d p=%v: Lower %v, delta*_2's Lower %v", i, p, r.Lower, r2.Lower)
			}
			if l2 := MaxDist2(r.Point, fam); p > 2 && r.Delta > l2+1e-15*scale {
				t.Errorf("case %d p=%v: Delta %v above the L2 value %v", i, p, r.Delta, l2)
			}
			if c.gammaSet && r.Delta > 1e-12*scale {
				t.Errorf("case %d p=%v: Delta %v where Gamma is non-empty", i, p, r.Delta)
			}
			if r.Exact {
				t.Errorf("case %d p=%v: a bracket reported Exact", i, p)
			}
		}
	}
}

func TestDeltaStarPValidation(t *testing.T) {
	s := vec.NewSet(vec.Of(0), vec.Of(1))
	for name, fn := range map[string]func(){
		"bad f": func() { DeltaStarP(s, 0, 3) },
		"bad p": func() { DeltaStarP(s, 1, 0.5) },
		"NaN p": func() { DeltaStarP(s, 1, math.NaN()) },
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
