package relax

import (
	"math"
	"math/rand"
	"testing"

	"relaxedbvc/internal/geom"
	"relaxedbvc/internal/vec"
)

// supportPoint is a one-direction fan.
func supportPoint(sets []*vec.Set, dir vec.V) (vec.V, bool) {
	pt := SupportPoints(sets, []vec.V{dir})[0]
	return pt, pt != nil
}

func TestSupportPointSingleHull(t *testing.T) {
	tri := vec.NewSet(vec.Of(0, 0), vec.Of(2, 0), vec.Of(0, 3))
	pt, ok := supportPoint([]*vec.Set{tri}, vec.Of(1, 0))
	if !ok || math.Abs(pt[0]-2) > 1e-8 {
		t.Fatalf("support in +x = %v (ok=%v)", pt, ok)
	}
	pt, ok = supportPoint([]*vec.Set{tri}, vec.Of(0, 1))
	if !ok || math.Abs(pt[1]-3) > 1e-8 {
		t.Fatalf("support in +y = %v", pt)
	}
	// Diagonal direction: the maximizer of x+y over the triangle is a
	// vertex of the hypotenuse (or any point on it when tied — here
	// (0,3) wins since 0+3 > 2+0).
	pt, ok = supportPoint([]*vec.Set{tri}, vec.Of(1, 1))
	if !ok || math.Abs(pt[0]+pt[1]-3) > 1e-8 {
		t.Fatalf("support in (1,1) = %v", pt)
	}
}

func TestSupportPointIntersection(t *testing.T) {
	a := vec.NewSet(vec.Of(0, 0), vec.Of(4, 0), vec.Of(0, 4), vec.Of(4, 4))
	b := vec.NewSet(vec.Of(2, 2), vec.Of(6, 2), vec.Of(2, 6), vec.Of(6, 6))
	// Intersection is the square [2,4]^2.
	pt, ok := supportPoint([]*vec.Set{a, b}, vec.Of(1, 0))
	if !ok || math.Abs(pt[0]-4) > 1e-8 {
		t.Fatalf("support = %v", pt)
	}
	pt, ok = supportPoint([]*vec.Set{a, b}, vec.Of(-1, -1))
	if !ok || math.Abs(pt[0]-2) > 1e-8 || math.Abs(pt[1]-2) > 1e-8 {
		t.Fatalf("support = %v", pt)
	}
}

func TestSupportPointEmptyCases(t *testing.T) {
	a := vec.NewSet(vec.Of(0, 0))
	b := vec.NewSet(vec.Of(5, 5))
	if _, ok := supportPoint([]*vec.Set{a, b}, vec.Of(1, 0)); ok {
		t.Error("support over empty intersection")
	}
	if _, ok := supportPoint([]*vec.Set{a, vec.NewSet()}, vec.Of(1, 0)); ok {
		t.Error("support over family with empty member")
	}
	for name, fn := range map[string]func(){
		"empty family": func() { supportPoint(nil, vec.Of(1)) },
		"dim mismatch": func() { supportPoint([]*vec.Set{a}, vec.Of(1)) },
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

func TestGammaSupportPoint(t *testing.T) {
	// Gamma of 4 points in R^1 with f=1: the interval between the 2nd
	// and 3rd order statistics.
	y := vec.NewSet(vec.Of(1), vec.Of(2), vec.Of(5), vec.Of(9))
	pts := SupportPoints(DroppedSubsets(y, 1), []vec.V{vec.Of(1), vec.Of(-1)})
	if hi := pts[0]; hi == nil || math.Abs(hi[0]-5) > 1e-8 {
		t.Fatalf("upper support = %v", hi)
	}
	if lo := pts[1]; lo == nil || math.Abs(lo[0]-2) > 1e-8 {
		t.Fatalf("lower support = %v", lo)
	}
}

// Property: a support point is feasible (in every hull) and no feasible
// probe beats it in the chosen direction.
func TestPropertySupportPointOptimality(t *testing.T) {
	rng := rand.New(rand.NewSource(261))
	for trial := 0; trial < 20; trial++ {
		d := 2
		a := vec.NewSet(randVec(rng, d, 2), randVec(rng, d, 2), randVec(rng, d, 2), randVec(rng, d, 2))
		b := vec.NewSet(randVec(rng, d, 2), randVec(rng, d, 2), randVec(rng, d, 2), randVec(rng, d, 2))
		fam := []*vec.Set{a, b}
		dir := randVec(rng, d, 1)
		pt, ok := supportPoint(fam, dir)
		if !ok {
			continue
		}
		for _, s := range fam {
			if dd, _ := geom.Dist2(pt, s); dd > 1e-6 {
				t.Fatalf("support point infeasible by %v", dd)
			}
		}
		// Probe: random feasible points (via intersection LP) must not
		// score higher.
		probe, okP := IntersectHulls(fam)
		if okP && dir.Dot(probe) > dir.Dot(pt)+1e-6 {
			t.Fatalf("probe %v beats support %v in direction %v", probe, pt, dir)
		}
	}
}

func TestMinIntersectionDeltaInfeasiblePanic(t *testing.T) {
	// MinIntersectionDelta with a structurally empty set (one member
	// empty) panics per its contract.
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for empty member set")
		}
	}()
	MinIntersectionDelta([]*vec.Set{vec.NewSet()}, math.Inf(1))
}

func TestIntersectKHullsEmptyMember(t *testing.T) {
	if _, ok := IntersectKHulls([]*vec.Set{vec.NewSet(vec.Of(1, 2)), vec.NewSet()}, 1); ok {
		t.Fatal("intersection with empty member should be empty")
	}
	if _, ok := IntersectRelaxedHulls([]*vec.Set{vec.NewSet()}, 1, math.Inf(1)); ok {
		t.Fatal("relaxed intersection with empty member should be empty")
	}
}
