package minimax

import (
	"math"
	"math/rand"
	"testing"

	"relaxedbvc/internal/vec"
)

// TestDeltaStar2CacheBitForBit fuzzes sets and asserts the memoized
// DeltaStar2 agrees bit for bit with the uncached computation, cold and
// warm, including the Point witness.
func TestDeltaStar2CacheBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 15; trial++ {
		d := 1 + rng.Intn(2)
		n := d + 2 + rng.Intn(2)
		pts := make([]vec.V, n)
		for i := range pts {
			p := vec.New(d)
			for k := range p {
				p[k] = rng.NormFloat64() * 2
			}
			pts[i] = p
		}
		s := vec.NewSet(pts...)

		Cache.Reset() // a miss is the uncached computation
		want := DeltaStar2(s, 1)

		Cache.Reset()
		for pass := 0; pass < 2; pass++ {
			got := DeltaStar2(s, 1)
			if math.Float64bits(got.Delta) != math.Float64bits(want.Delta) || got.Exact != want.Exact {
				t.Fatalf("trial %d pass %d: cached=%+v uncached=%+v", trial, pass, got, want)
			}
			for k := range want.Point {
				if math.Float64bits(got.Point[k]) != math.Float64bits(want.Point[k]) {
					t.Fatalf("trial %d pass %d: point coord %d cached=%v uncached=%v",
						trial, pass, k, got.Point[k], want.Point[k])
				}
			}
		}
		st := Cache.Stats()
		if st.Hits == 0 {
			t.Fatalf("trial %d: expected warm-pass hits, stats %+v", trial, st)
		}
	}
}
