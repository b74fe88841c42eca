package lp

import (
	"math"
	"math/rand"
	"testing"
)

// diffResults compares two results bit for bit (signed zeros and NaN
// payloads included) and returns a description of the first difference.
func diffResults(got, want *Result) string {
	switch {
	case got.Status != want.Status:
		return "status " + got.Status.String() + " != " + want.Status.String()
	case len(got.X) != len(want.X) || len(got.Dual) != len(want.Dual):
		return "result lengths differ"
	case math.Float64bits(got.Objective) != math.Float64bits(want.Objective):
		return "objective bits differ"
	}
	for i := range got.X {
		if math.Float64bits(got.X[i]) != math.Float64bits(want.X[i]) {
			return "X bits differ"
		}
	}
	for i := range got.Dual {
		if math.Float64bits(got.Dual[i]) != math.Float64bits(want.Dual[i]) {
			return "Dual bits differ"
		}
	}
	return ""
}

func negZeros(r *Result) (n int) {
	for _, v := range append(append([]float64{r.Objective}, r.X...), r.Dual...) {
		if v == 0 && math.Signbit(v) {
			n++
		}
	}
	return n
}

// TestRefBitIdentical is the same-bits proof of the sparse pivot, the
// once-only phase 1 and the direct standardization: on a seeded stream
// of the production LP shapes, Status, every X, Objective, every Dual and
// the pivot count equal the reference solver's bit for bit — solved in
// place as Problem.Solve does, and from a copy as Prepared.Solve does.
func TestRefBitIdentical(t *testing.T) {
	total := 10000
	if testing.Short() {
		total = 1000
	}
	rng := rand.New(rand.NewSource(24))
	byStatus := map[Status]int{}
	byShape := map[string]int{}
	negZero, blandSolves := 0, 0
	for i := 0; i < total; i++ {
		s := genLP(rng, i)
		ref := newRefProblem(s.n)
		s.apply(ref)
		want, wantPivots, wantBland := ref.refSolve()

		p := s.problem()
		var pr Prepared
		p.prepare(&pr)
		pivots, bland := pr.pivots1, pr.t.blandMode
		got := new(Result)
		phase2 := pr.solve(got, p.obj, p.sense, true)
		pivots, bland = pivots+phase2, bland || pr.t.blandMode
		pr.Release()
		if d := diffResults(got, want); d != "" {
			t.Fatalf("problem %d (%s, %d vars): in place: %s", i, s.shape, s.n, d)
		}
		if pivots != wantPivots || bland != wantBland {
			t.Fatalf("problem %d (%s): %d pivots (Bland %v), reference %d (Bland %v)", i, s.shape, pivots, bland, wantPivots, wantBland)
		}

		held := p.Prepare()
		if d := diffResults(held.Solve(s.obj, s.sense), want); d != "" {
			t.Fatalf("problem %d (%s, %d vars): from a copy: %s", i, s.shape, s.n, d)
		}
		held.Release()

		byStatus[want.Status]++
		byShape[s.shape]++
		negZero += negZeros(want)
		if wantBland {
			blandSolves++
		}
	}
	t.Logf("%d problems %v: %v, %d negative zeros in the outputs, %d Bland-mode solves", total, byShape, byStatus, negZero, blandSolves)
	if byStatus[Optimal] == 0 || byStatus[Infeasible] == 0 || byStatus[Unbounded] == 0 || negZero == 0 || blandSolves == 0 {
		t.Fatal("stream missed an outcome the oracle must exercise")
	}
}
