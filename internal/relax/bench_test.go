package relax

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"relaxedbvc/internal/vec"
)

// BenchmarkSupportFan is the convex Step-2 kernel at the batch workload's
// largest shape (n=9 f=2 d=2: 36 dropped subsets): one lazy
// block-generation loop over the whole fan.
func BenchmarkSupportFan(b *testing.B) {
	fam := DroppedSubsets(randSet(rand.New(rand.NewSource(9)), 9, 2, 3), 2)
	for _, k := range []int{4, 16} {
		dirs := make([]vec.V, k)
		for i := range dirs {
			a := 2 * math.Pi * float64(i) / float64(k)
			dirs[i] = vec.Of(math.Cos(a), math.Sin(a))
		}
		b.Run(fmt.Sprintf("dirs=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, pt := range SupportPoints(fam, dirs) {
					if pt == nil {
						b.Fatal("no support point")
					}
				}
			}
		})
	}
}

// BenchmarkGammaPoint is the exact Step-2 kernel at n=9 f=2 d=3 (36
// dropped subsets of 7 points in R^3): one Gamma(S) point.
func BenchmarkGammaPoint(b *testing.B) {
	fam := DroppedSubsets(randSet(rand.New(rand.NewSource(9)), 9, 3, 3), 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := IntersectHulls(fam); !ok {
			b.Fatal("Gamma(S) is empty")
		}
	}
}

// BenchmarkDeltaStarPoly is the δ-relaxed Step-2 kernel for p = 1 and
// p = +Inf at batch_lp's δ-relaxed shape (n=7 f=2 d=2: 21 dropped
// subsets) and at n=9 f=2 d=3 (84): one δ*_p solve by lazy block
// generation.
func BenchmarkDeltaStarPoly(b *testing.B) {
	for _, c := range []struct{ n, f, d int }{{7, 2, 2}, {9, 2, 3}} {
		fam := DroppedSubsets(randSet(rand.New(rand.NewSource(9)), c.n, c.d, 3), c.f)
		for _, p := range []float64{1, math.Inf(1)} {
			b.Run(fmt.Sprintf("n=%d_d=%d_p=%v", c.n, c.d, p), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					MinIntersectionDelta(fam, p)
				}
			})
		}
	}
}

// BenchmarkInEveryHull is the certification predicate on a certified
// Gamma(S) point at n=9 f=2 d=2 (36 dropped subsets): one Wolfe run per
// hull, and the L-infinity witness LP wherever Wolfe rejects.
func BenchmarkInEveryHull(b *testing.B) {
	fam := DroppedSubsets(randSet(rand.New(rand.NewSource(9)), 9, 2, 3), 2)
	pt, ok := IntersectHulls(fam)
	if !ok || !InEveryHull(fam, pt) {
		b.Fatal("no certified Gamma(S) point")
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !InEveryHull(fam, pt) {
			b.Fatal("certified point rejected")
		}
	}
}
