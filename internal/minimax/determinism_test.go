package minimax

import (
	"testing"

	"relaxedbvc/internal/vec"
)

// TestDeltaStar2Deterministic asks DeltaStar2 and DeltaStar2Iterative
// twice on each of 16 instances of mixed shapes (closed-form simplices
// among them), the second time in reverse order, so that solves of other
// shapes run in between on the same pooled Wolfe scratch. Both answers
// must have the same bits: stale pool state would show as a difference.
func TestDeltaStar2Deterministic(t *testing.T) {
	type instance struct {
		s *vec.Set
		f int
	}
	shapes := []struct{ n, f, d int }{{3, 1, 2}, {4, 1, 3}, {5, 1, 2}, {6, 2, 3}, {7, 2, 2}, {7, 2, 3}, {5, 1, 3}, {4, 1, 2}}
	var inst []instance
	for k := 0; k < 16; k++ {
		sh := shapes[k%len(shapes)]
		inst = append(inst, instance{s: randInstance(int64(300+k), sh.n, sh.d), f: sh.f})
	}
	first := make([][2]Result, len(inst))
	for i, in := range inst {
		first[i] = [2]Result{DeltaStar2(in.s, in.f), DeltaStar2Iterative(in.s, in.f)}
	}
	for i := len(inst) - 1; i >= 0; i-- {
		in := inst[i]
		got := [2]Result{DeltaStar2(in.s, in.f), DeltaStar2Iterative(in.s, in.f)}
		for k, name := range []string{"DeltaStar2", "DeltaStar2Iterative"} {
			if !sameResult(got[k], first[i][k]) {
				t.Fatalf("instance %d: %s %+v, then %+v", i, name, first[i][k], got[k])
			}
		}
	}
}
