package relax

import (
	"math"
	"math/rand"
	"testing"

	"relaxedbvc/internal/geom"
	"relaxedbvc/internal/lp"
	"relaxedbvc/internal/vec"
)

// supportPoint is a one-direction fan.
func supportPoint(sets []*vec.Set, dir vec.V) (vec.V, bool) {
	pt := SupportPoints(sets, []vec.V{dir})[0]
	return pt, pt != nil
}

// oneShotSupportPoint is SupportPoint as it was before the fan form: its
// own LP build and a full two-phase solve for a single direction.
func oneShotSupportPoint(sets []*vec.Set, dir vec.V) vec.V {
	prob := buildHullIntersectionLP(sets)
	if prob == nil {
		return nil
	}
	d := sets[0].Dim()
	obj := make([]float64, prob.NumVars())
	copy(obj[:d], dir)
	prob.SetObjective(obj, lp.Maximize)
	res, err := prob.Solve()
	if err != nil {
		panic(err)
	}
	if res.Status != lp.Optimal {
		return nil
	}
	return vec.V(res.X[:d]).Clone()
}

// TestSupportFanMatchesPerDirection: the fan (one build, one phase 1,
// one phase 2 per direction) returns bit for bit what a separate
// two-phase solve per direction returns, on the convex workload's shapes
// (n = 8 and 9, f = 2, d = 2), below the Tverberg floor where Gamma(S)
// is empty and no direction has an optimum, and on degenerate families
// (collinear and repeated points) where Gamma(S) collapses and convex
// consensus takes its anchor fallback.
func TestSupportFanMatchesPerDirection(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	fan := func(k int) []vec.V {
		dirs := make([]vec.V, k)
		for i := range dirs {
			a := 2 * math.Pi * float64(i) / float64(k)
			dirs[i] = vec.Of(math.Cos(a), math.Sin(a))
		}
		return dirs
	}
	families := []struct {
		name string
		draw func() *vec.Set
	}{
		{"n=8", func() *vec.Set { return randSet(rng, 8, 2, 3) }},
		{"n=9", func() *vec.Set { return randSet(rng, 9, 2, 3) }},
		{"n=5, Gamma empty", func() *vec.Set { return randSet(rng, 5, 2, 3) }},
		{"collinear", func() *vec.Set {
			s := vec.NewSet()
			for i := 0; i < 7; i++ {
				x := float64(rng.Intn(5))
				s.Append(vec.Of(x, 2*x+1))
			}
			return s
		}},
		{"two clusters", func() *vec.Set {
			s := vec.NewSet()
			for i := 0; i < 6; i++ {
				s.Append(vec.Of(float64(i%2)*1e3, float64(i%2)))
			}
			return s
		}},
	}
	points, missing := 0, 0
	for _, f := range families {
		name := f.name
		for trial := 0; trial < 12; trial++ {
			fam := DroppedSubsets(f.draw(), 2)
			dirs := fan(4 + 12*(trial%2))
			got := SupportPoints(fam, dirs)
			for i, dir := range dirs {
				want := oneShotSupportPoint(fam, dir)
				if (got[i] == nil) != (want == nil) {
					t.Fatalf("%s trial %d dir %d: fan %v, per-direction %v", name, trial, i, got[i], want)
				}
				if want == nil {
					missing++
					continue
				}
				points++
				for j := range want {
					if math.Float64bits(got[i][j]) != math.Float64bits(want[j]) {
						t.Fatalf("%s trial %d dir %d: fan %v != per-direction %v", name, trial, i, got[i], want)
					}
				}
			}
		}
	}
	if points == 0 || missing == 0 {
		t.Fatalf("compared %d support points and %d directions without one; want both", points, missing)
	}
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
