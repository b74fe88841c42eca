package relaxedbvc_test

// Filtered-predicate parity property tests: every engine-visible
// kernel decision must be bit-identical with the certified float
// screens enabled (the default, fast path) and disabled (the
// exact-everything path). The screens only decide with exactly-verified
// certificates, so any divergence here is a soundness bug, not a
// tolerance choice. Named TestKernelParity* so the
// CI "Kernel parity under -race" step (-run KernelParity -race -count=2)
// covers them automatically.

import (
	"math"
	"math/rand"
	"testing"

	bvc "relaxedbvc"
	"relaxedbvc/internal/geom"
	"relaxedbvc/internal/minimax"
	"relaxedbvc/internal/relax"
	"relaxedbvc/internal/tverberg"
	"relaxedbvc/internal/vec"
)

// setupFilterParity is setupKernelParity plus a guaranteed restore of
// the filtered-predicate toggle.
func setupFilterParity(t *testing.T) {
	t.Helper()
	setupKernelParity(t)
	t.Cleanup(func() { setFiltered(true) })
}

// setFiltered switches the certified screens and drops every cached
// kernel result, so the exact path cannot replay the filtered one's.
func setFiltered(on bool) {
	geom.SetFilteredPredicates(on)
	bvc.ResetCaches()
}

// TestKernelParityFilteredPartition: the Tverberg partition scan —
// whose per-candidate Intersect calls run the bbox, witness and
// separation screens before the joint LP — must return the same
// blocks, point and feasibility bit with the screens disabled.
// Checked at 1 worker and at the parallel setting: the screens keep
// per-worker scratch, so both composition orders are pinned.
func TestKernelParityFilteredPartition(t *testing.T) {
	setupFilterParity(t)
	cases := []struct{ n, d, f int }{
		{7, 2, 2}, // feasible regime
		{8, 3, 2}, // infeasible regime: full scan, screens fire constantly
	}
	for seed := int64(0); seed < 3; seed++ {
		for _, c := range cases {
			rng := rand.New(rand.NewSource(400 + seed))
			y := paritySet(rng, c.n, c.d)
			for _, w := range []int{1, parityWorkers()} {
				setWorkers(w)
				setFiltered(true)
				blocksF, ptF, okF := tverberg.Partition(y, c.f)
				setFiltered(false)
				blocksX, ptX, okX := tverberg.Partition(y, c.f)
				if okF != okX {
					t.Fatalf("seed %d n=%d d=%d f=%d w=%d: ok filtered=%v exact=%v",
						seed, c.n, c.d, c.f, w, okF, okX)
				}
				if !okF {
					continue
				}
				if !sameBlocks(blocksF, blocksX) {
					t.Errorf("seed %d n=%d d=%d f=%d w=%d: blocks differ:\n  filtered: %v\n  exact: %v",
						seed, c.n, c.d, c.f, w, blocksF, blocksX)
				}
				if !sameBits(ptF, ptX) {
					t.Errorf("seed %d n=%d d=%d f=%d w=%d: points differ: %v vs %v",
						seed, c.n, c.d, c.f, w, ptF, ptX)
				}
			}
		}
	}
}

// TestKernelParityFilteredInHull: the screened hull-membership
// predicate (Wolfe min-norm certificate, exact LP fallback) must agree
// with the pure-LP answer on members, non-members and near-boundary
// queries alike.
func TestKernelParityFilteredInHull(t *testing.T) {
	setupFilterParity(t)
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(500 + seed))
		for _, d := range []int{2, 3, 5} {
			s := paritySet(rng, d+4, d)
			center := vec.Mean(s.Points())
			queries := []vec.V{
				center,
				s.At(0).Clone(),                  // vertex: boundary case
				vec.Lerp(center, s.At(1), 0.999), // just inside a chord
				vec.Lerp(center, farPoint(center), 0.02),
				farPoint(center), // far outside: reject-certificate path
				paritySet(rng, 1, d).At(0),
			}
			for qi, q := range queries {
				setFiltered(true)
				inF := geom.InHull(q, s)
				setFiltered(false)
				inX := geom.InHull(q, s)
				if inF != inX {
					t.Errorf("seed %d d=%d query %d: filtered InHull=%v, exact=%v",
						seed, d, qi, inF, inX)
				}
			}
		}
	}
}

// TestKernelParityFilteredIntersect: the relaxed-hull intersection
// decision and witness point must survive toggling the separation
// screen, across worker counts and both polyhedral norms.
func TestKernelParityFilteredIntersect(t *testing.T) {
	setupFilterParity(t)
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(600 + seed))
		y := paritySet(rng, 7, 2)
		family := relax.DroppedSubsets(y, 2)
		for _, p := range []float64{1, math.Inf(1)} {
			for _, delta := range []float64{0.01, 0.5, 4} {
				for _, w := range []int{1, parityWorkers()} {
					setWorkers(w)
					setFiltered(true)
					ptF, okF := relax.IntersectRelaxedHulls(family, delta, p)
					setFiltered(false)
					ptX, okX := relax.IntersectRelaxedHulls(family, delta, p)
					if okF != okX {
						t.Fatalf("seed %d p=%v delta=%v w=%d: ok filtered=%v exact=%v",
							seed, p, delta, w, okF, okX)
					}
					if okF && !sameBits(ptF, ptX) {
						t.Errorf("seed %d p=%v delta=%v w=%d: points differ: %v vs %v",
							seed, p, delta, w, ptF, ptX)
					}
				}
			}
		}
	}
}

// TestKernelParityFilteredDeltaStarP: the minimax descent consumes
// thousands of screened distance evaluations; its (δ, point) output
// must not move by a bit when the screens are off.
func TestKernelParityFilteredDeltaStarP(t *testing.T) {
	if testing.Short() {
		t.Skip("minimax descent is slow under -race; skipped in -short")
	}
	setupFilterParity(t)
	for seed := int64(0); seed < 2; seed++ {
		rng := rand.New(rand.NewSource(700 + seed))
		s := paritySet(rng, 7, 2)
		for _, p := range []float64{1, math.Inf(1)} {
			setFiltered(true)
			rF := minimax.DeltaStarP(s, 2, p)
			setFiltered(false)
			rX := minimax.DeltaStarP(s, 2, p)
			if math.Float64bits(rF.Delta) != math.Float64bits(rX.Delta) {
				t.Errorf("seed %d p=%v: filtered delta %v, exact %v", seed, p, rF.Delta, rX.Delta)
			}
			if !sameBits(rF.Point, rX.Point) {
				t.Errorf("seed %d p=%v: points differ: %v vs %v", seed, p, rF.Point, rX.Point)
			}
		}
	}
}
