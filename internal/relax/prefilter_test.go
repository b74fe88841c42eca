package relax

import (
	"math"
	"math/rand"
	"testing"

	"relaxedbvc/internal/vec"
)

// TestIntersectMatchesLP: on every candidate family of the (7,2,2) and
// (8,3,2) Tverberg partition scans, the screened Intersect decides
// exactly as the joint LP alone, for each hull kind. Unit-scale inputs:
// at ×1e3 the LP itself is wrong on some of these families (ROADMAP
// item 1) and the screens are what keep the scan right.
func TestIntersectMatchesLP(t *testing.T) {
	kinds := []Intersector{
		{Kind: HullExact},
		{Kind: HullKProj, K: 1},
		{Kind: HullDeltaP, Delta: 0.2, P: math.Inf(1)},
		{Kind: HullDeltaP, Delta: 0.2, P: 1},
	}
	isc, lsc := GetIntersectScratch(), GetIntersectScratch()
	defer isc.Release()
	defer lsc.Release()
	for seed := int64(0); seed < 3; seed++ {
		for _, c := range []struct{ n, d, f int }{{7, 2, 2}, {8, 3, 2}} {
			y := randSet(rand.New(rand.NewSource(400+seed)), c.n, c.d, 2)
			sets := make([]*vec.Set, c.f+1)
			for b := range sets {
				sets[b] = new(vec.Set)
			}
			for _, it := range kinds {
				feasible := 0
				vec.Partitions(c.n, c.f+1, func(bl [][]int) bool {
					for b, idxs := range bl {
						y.SubsetInto(idxs, sets[b])
					}
					_, got := it.Intersect(sets, isc)
					if _, want := it.solveLP(sets, c.d, lsc); got != want {
						t.Errorf("seed %d n=%d d=%d %+v blocks %v: Intersect %v, LP %v",
							seed, c.n, c.d, it, bl, got, want)
					}
					if got {
						feasible++
					}
					return true
				})
				t.Logf("seed %d n=%d d=%d %+v: %d feasible candidates", seed, c.n, c.d, it, feasible)
			}
		}
	}
}

// TestRelaxedIntersectMatchesLP: on the dropped-subset families of
// Γ_(δ,p) — which share n−2f points, so the separation screen never
// certifies and the witness and bbox screens do the work — the screened
// Intersect decides exactly as the joint LP alone for both polyhedral
// norms, from a tight δ to a loose one, and repeats its point bit for bit.
func TestRelaxedIntersectMatchesLP(t *testing.T) {
	isc, lsc := GetIntersectScratch(), GetIntersectScratch()
	defer isc.Release()
	defer lsc.Release()
	for seed := int64(0); seed < 3; seed++ {
		y := randSet(rand.New(rand.NewSource(600+seed)), 7, 2, 2)
		family := DroppedSubsets(y, 2)
		for _, p := range []float64{1, math.Inf(1)} {
			for _, delta := range []float64{0.01, 0.5, 4} {
				it := Intersector{Kind: HullDeltaP, Delta: delta, P: p}
				pt, got := it.Intersect(family, isc)
				if _, want := it.solveLP(family, 2, lsc); got != want {
					t.Fatalf("seed %d p=%v delta=%v: Intersect %v, LP %v", seed, p, delta, got, want)
				}
				again, ok := it.Intersect(family, isc)
				if ok != got || len(again) != len(pt) {
					t.Fatalf("seed %d p=%v delta=%v: repeat ok=%v point %v, first ok=%v point %v",
						seed, p, delta, ok, again, got, pt)
				}
				for j := range pt {
					if math.Float64bits(again[j]) != math.Float64bits(pt[j]) {
						t.Errorf("seed %d p=%v delta=%v: repeat point %v, first %v", seed, p, delta, again, pt)
						break
					}
				}
			}
		}
	}
}

// TestInHullKMatchesSweep: the conv(S) ⊆ H_k(S) accept in front of
// InHullK never changes its answer from the per-projection sweep of
// Definition 6.
func TestInHullKMatchesSweep(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		for _, d := range []int{3, 5, 9} {
			s := randSet(rng, d+4, d, 2)
			center := vec.Mean(s.Points())
			far := center.Clone()
			for j := range far {
				far[j] += 50
			}
			queries := []vec.V{
				center,                        // member: every projection contains the mean
				vec.Lerp(center, s.At(0), .5), // member by convexity
				randVec(rng, d, 2),            // random: either answer
				far,                           // far outside
			}
			for qi, q := range queries {
				for k := 1; k < d; k++ {
					if got, want := InHullK(q, s, k), inHullKSweep(q, s, k); got != want {
						t.Errorf("seed %d d=%d k=%d query %d: InHullK %v, sweep %v", seed, d, k, qi, got, want)
					}
				}
			}
		}
	}
}
