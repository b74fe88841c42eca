package relaxedbvc_test

// Kernel parity property tests: the parallel combinatorial geometry
// kernels must return bit-identical results at workers=1 (the
// sequential scan) and workers=GOMAXPROCS (the chunked/first-hit
// parallel paths). The kernel caches are dropped at every switch of
// setting (a miss is the uncached computation), so the second setting
// cannot replay the first's memo entries — both do the full work. CI
// runs these under `-race -count=2` (see the "Kernel parity
// under -race" step) so a schedule-dependent race in the first-hit
// reductions cannot hide behind one lucky interleaving.

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	bvc "relaxedbvc"
	"relaxedbvc/internal/minimax"
	"relaxedbvc/internal/relax"
	"relaxedbvc/internal/tverberg"
	"relaxedbvc/internal/vec"
)

// parityWorkers is the parallel setting compared against 1 worker:
// GOMAXPROCS, raised to at least 4 so the parallel chunk/scan code
// paths are exercised even on single-core CI runners.
func parityWorkers() int {
	if w := runtime.GOMAXPROCS(0); w > 4 {
		return w
	}
	return 4
}

// setupKernelParity restores the default worker budget and empty caches
// after the test.
func setupKernelParity(t *testing.T) {
	t.Helper()
	t.Cleanup(func() { setWorkers(0) })
}

// setWorkers switches the kernel worker budget and drops every cached
// kernel result, so whatever runs next computes from scratch.
func setWorkers(w int) {
	bvc.SetKernelWorkers(w)
	bvc.ResetCaches()
}

func paritySet(rng *rand.Rand, n, d int) *vec.Set {
	pts := make([]vec.V, n)
	for i := range pts {
		v := vec.New(d)
		for j := range v {
			v[j] = rng.NormFloat64() * 2
		}
		pts[i] = v
	}
	return vec.NewSet(pts...)
}

// farPoint returns c shifted well outside any hull of the test sets.
func farPoint(c vec.V) vec.V {
	out := c.Clone()
	for j := range out {
		out[j] += 50
	}
	return out
}

func sameBits(a, b vec.V) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameBlocks(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// TestKernelParityPartition: the chunked parallel partition scan must
// return the sequential scan's first hit — same blocks, same point,
// same feasibility bit — on both feasible (n = (d+1)f + 1, Theorem 7)
// and infeasible (n = (d+1)f general position, Section 8 tightness)
// instances.
func TestKernelParityPartition(t *testing.T) {
	setupKernelParity(t)
	W := parityWorkers()
	cases := []struct{ n, d, f int }{
		{7, 2, 2}, // feasible regime
		{8, 3, 2}, // infeasible regime: full scan, worst case
		{9, 3, 2}, // feasible regime at the Theorem 7 bound
	}
	for seed := int64(0); seed < 4; seed++ {
		for _, c := range cases {
			rng := rand.New(rand.NewSource(seed))
			y := paritySet(rng, c.n, c.d)

			setWorkers(1)
			blocks1, pt1, ok1 := tverberg.Partition(y, c.f)
			setWorkers(W)
			blocksN, ptN, okN := tverberg.Partition(y, c.f)

			if ok1 != okN {
				t.Fatalf("seed %d n=%d d=%d f=%d: ok %v vs %v", seed, c.n, c.d, c.f, ok1, okN)
			}
			if !ok1 {
				continue
			}
			if !sameBlocks(blocks1, blocksN) {
				t.Errorf("seed %d n=%d d=%d f=%d: blocks differ:\n  1 worker: %v\n  %d workers: %v",
					seed, c.n, c.d, c.f, blocks1, W, blocksN)
			}
			if !sameBits(pt1, ptN) {
				t.Errorf("seed %d n=%d d=%d f=%d: points differ: %v vs %v",
					seed, c.n, c.d, c.f, pt1, ptN)
			}
		}
	}
}

// TestKernelParityInHullK: the parallel C(d,k) projection sweep must
// agree with the sequential conjunction for member and non-member
// queries alike.
func TestKernelParityInHullK(t *testing.T) {
	setupKernelParity(t)
	W := parityWorkers()
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		const d, k = 9, 4 // C(9,4) = 126 projection subsets
		s := paritySet(rng, 13, d)
		center := vec.Mean(s.Points())
		queries := []vec.V{
			center,                        // member: every projection contains the mean
			vec.Lerp(center, s.At(0), .5), // member by convexity
			paritySet(rng, 1, d).At(0),    // random: either answer, must agree
			farPoint(center),              // far outside: early-exit path
		}
		for qi, q := range queries {
			setWorkers(1)
			in1 := relax.InHullK(q, s, k)
			setWorkers(W)
			inN := relax.InHullK(q, s, k)
			if in1 != inN {
				t.Errorf("seed %d query %d: InHullK %v at 1 worker, %v at %d workers",
					seed, qi, in1, inN, W)
			}
		}
	}
}

// TestKernelParityIntersectRelaxedHulls: the prefiltered relaxed-hull
// intersection decision — and the returned witness point — must be a
// pure function of the family, identical for every worker count.
func TestKernelParityIntersectRelaxedHulls(t *testing.T) {
	setupKernelParity(t)
	W := parityWorkers()
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(200 + seed))
		y := paritySet(rng, 7, 2)
		family := relax.DroppedSubsets(y, 2) // C(7,2) = 21 subsets
		for _, p := range []float64{1, math.Inf(1)} {
			for _, delta := range []float64{0.01, 0.5, 4} {
				setWorkers(1)
				pt1, ok1 := relax.IntersectRelaxedHulls(family, delta, p)
				setWorkers(W)
				ptN, okN := relax.IntersectRelaxedHulls(family, delta, p)
				if ok1 != okN {
					t.Fatalf("seed %d p=%v delta=%v: ok %v vs %v", seed, p, delta, ok1, okN)
				}
				if ok1 && !sameBits(pt1, ptN) {
					t.Errorf("seed %d p=%v delta=%v: points differ: %v vs %v",
						seed, p, delta, pt1, ptN)
				}
			}
		}
	}
}

// TestKernelParityDeltaStarP: the δ* minimax descent fans its per-set
// distance probes and warm-start descents over the kernel workers; the
// index-ordered reductions must leave (δ, point) bit-identical to the
// sequential solver.
func TestKernelParityDeltaStarP(t *testing.T) {
	if testing.Short() {
		t.Skip("minimax descent is slow under -race; skipped in -short")
	}
	setupKernelParity(t)
	W := parityWorkers()
	for seed := int64(0); seed < 2; seed++ {
		rng := rand.New(rand.NewSource(300 + seed))
		s := paritySet(rng, 7, 2) // C(7,5) = 21 dropped subsets per probe
		for _, p := range []float64{1, math.Inf(1)} {
			setWorkers(1)
			r1 := minimax.DeltaStarP(s, 2, p)
			setWorkers(W)
			rN := minimax.DeltaStarP(s, 2, p)
			if math.Float64bits(r1.Delta) != math.Float64bits(rN.Delta) {
				t.Errorf("seed %d p=%v: delta %v at 1 worker, %v at %d workers",
					seed, p, r1.Delta, rN.Delta, W)
			}
			if !sameBits(r1.Point, rN.Point) {
				t.Errorf("seed %d p=%v: points differ: %v vs %v", seed, p, r1.Point, rN.Point)
			}
		}
	}
}
