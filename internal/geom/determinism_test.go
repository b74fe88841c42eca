package geom

import (
	"math"
	"math/rand"
	"testing"

	"relaxedbvc/internal/vec"
)

func randSet(rng *rand.Rand, n, d int) *vec.Set {
	pts := make([]vec.V, n)
	for i := range pts {
		p := vec.New(d)
		for k := range p {
			p[k] = rng.NormFloat64() * 3
		}
		pts[i] = p
	}
	return vec.NewSet(pts...)
}

// hullAnswers is what the hull predicates return for one (q, s): InHull
// and the distance with its nearest point in each norm of distNorms.
type hullAnswers struct {
	in    bool
	dists []float64
	near  []vec.V
}

var distNorms = []float64{1, 1.5, 2, 3, math.Inf(1)}

func answerHull(q vec.V, s *vec.Set) hullAnswers {
	a := hullAnswers{in: InHull(q, s)}
	for _, p := range distNorms {
		d, near := DistP(q, s, p)
		a.dists = append(a.dists, d)
		a.near = append(a.near, near)
	}
	return a
}

// TestHullPredicatesDeterministic asks InHull and DistP twice on each of
// 40 instances of mixed shapes, the second time in reverse order, so
// that calls of other shapes run in between on the same pooled LP and
// Wolfe scratch. Both answers must have the same bits: stale pool state
// would show as a difference.
func TestHullPredicatesDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	type instance struct {
		q vec.V
		s *vec.Set
	}
	inst := make([]instance, 40)
	first := make([]hullAnswers, len(inst))
	for i := range inst {
		d := 1 + rng.Intn(4)
		inst[i] = instance{q: randVec(rng, d, 3), s: randSet(rng, 3+rng.Intn(8), d)}
		first[i] = answerHull(inst[i].q, inst[i].s)
	}
	for i := len(inst) - 1; i >= 0; i-- {
		got, want := answerHull(inst[i].q, inst[i].s), first[i]
		if got.in != want.in {
			t.Fatalf("instance %d: InHull %v, then %v", i, want.in, got.in)
		}
		for k, p := range distNorms {
			if math.Float64bits(got.dists[k]) != math.Float64bits(want.dists[k]) || !sameBits(got.near[k], want.near[k]) {
				t.Fatalf("instance %d p=%v: DistP (%v, %v), then (%v, %v)", i, p, want.dists[k], want.near[k], got.dists[k], got.near[k])
			}
		}
	}
}
