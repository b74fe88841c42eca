package relax

import (
	"math"
	"math/rand"
	"testing"

	"relaxedbvc/internal/vec"
)

// relaxAnswers is what GammaPoint and DeltaStarPoly (p = 1 and +Inf)
// return for one (S, f).
type relaxAnswers struct {
	gamma   vec.V
	gammaOK bool
	deltas  [2]float64
	points  [2]vec.V
}

var polyNorms = [2]float64{1, math.Inf(1)}

func answerRelax(s *vec.Set, f int) relaxAnswers {
	var a relaxAnswers
	a.gamma, a.gammaOK = GammaPoint(s, f)
	for k, p := range polyNorms {
		a.deltas[k], a.points[k] = DeltaStarPoly(s, f, p)
	}
	return a
}

// TestRelaxKernelsDeterministic asks GammaPoint and DeltaStarPoly twice
// on each of 25 instances of mixed shapes (some with an empty Gamma),
// the second time in reverse order, so that calls of other shapes run in
// between on the same pooled LP, intersect and Wolfe scratch. Both
// answers must have the same bits: stale pool state would show as a
// difference.
func TestRelaxKernelsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	type instance struct {
		s *vec.Set
		f int
	}
	inst := make([]instance, 25)
	first := make([]relaxAnswers, len(inst))
	for i := range inst {
		d, f := 1+rng.Intn(3), 1+rng.Intn(2)
		inst[i] = instance{s: randSet(rng, (d+1)*f+rng.Intn(3), d, 2), f: f}
		first[i] = answerRelax(inst[i].s, inst[i].f)
	}
	for i := len(inst) - 1; i >= 0; i-- {
		got, want := answerRelax(inst[i].s, inst[i].f), first[i]
		if got.gammaOK != want.gammaOK || !sameBits(got.gamma, want.gamma) {
			t.Fatalf("instance %d: GammaPoint (%v, %v), then (%v, %v)", i, want.gamma, want.gammaOK, got.gamma, got.gammaOK)
		}
		for k, p := range polyNorms {
			if math.Float64bits(got.deltas[k]) != math.Float64bits(want.deltas[k]) || !sameBits(got.points[k], want.points[k]) {
				t.Fatalf("instance %d p=%v: DeltaStarPoly (%v, %v), then (%v, %v)", i, p, want.deltas[k], want.points[k], got.deltas[k], got.points[k])
			}
		}
	}
}
