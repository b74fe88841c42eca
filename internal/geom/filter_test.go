package geom

import (
	"math/rand"
	"testing"

	"relaxedbvc/internal/vec"
)

// TestMembershipScreenMatchesLP: every answer the certified membership
// screen decides is the exact LP's answer, on members, non-members and
// near-boundary queries alike; undecided queries are the LP's to answer.
func TestMembershipScreenMatchesLP(t *testing.T) {
	fsc := GetFilterScratch()
	defer fsc.Release()
	decided, total := 0, 0
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(500 + seed))
		for _, d := range []int{2, 3, 5} {
			s := randSet(rng, d+4, d)
			center := vec.Mean(s.Points())
			far := center.Clone()
			for j := range far {
				far[j] += 50
			}
			queries := []vec.V{
				center,
				s.At(0).Clone(),                  // vertex: boundary case
				vec.Lerp(center, s.At(1), 0.999), // just inside a chord
				vec.Lerp(center, far, 0.02),
				far, // far outside: reject-certificate path
				randSet(rng, 1, d).At(0),
			}
			for qi, q := range queries {
				total++
				in, ok := hullMembershipScreen(q, s, fsc)
				if !ok {
					continue
				}
				decided++
				if lp := inHullLP(q, s); in != lp {
					t.Errorf("seed %d d=%d query %d: screen decided %v, LP says %v", seed, d, qi, in, lp)
				}
			}
		}
	}
	if decided < total/2 {
		t.Errorf("screen decided only %d of %d queries", decided, total)
	}
	t.Logf("screen decided %d of %d queries", decided, total)
}
