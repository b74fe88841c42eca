package relax

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"relaxedbvc/internal/vec"
)

// BenchmarkSupportFan is the convex Step-2 kernel at the batch workload's
// largest shape (n=9 f=2 d=2: 36 dropped subsets): one build and phase 1,
// then one phase 2 per direction.
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
