package relax

import (
	"math"
	"math/rand"
	"testing"

	"relaxedbvc/internal/vec"
)

func fuzzSet(rng *rand.Rand, n, d int) *vec.Set {
	pts := make([]vec.V, n)
	for i := range pts {
		p := vec.New(d)
		for k := range p {
			p[k] = rng.NormFloat64() * 2
		}
		pts[i] = p
	}
	return vec.NewSet(pts...)
}

// TestGammaPointCacheBitForBit fuzzes sets and asserts the memoized
// GammaPoint and DeltaStarPoly agree bit for bit with the uncached
// computation, cold and warm.
func TestGammaPointCacheBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 25; trial++ {
		d := 1 + rng.Intn(2)
		f := 1
		n := (d+1)*f + 1 + rng.Intn(3)
		s := fuzzSet(rng, n, d)

		Cache.Reset() // a miss is the uncached computation
		wantPt, wantOK := GammaPoint(s, f)
		wantDelta, wantDP := DeltaStarPoly(s, f, math.Inf(1))

		Cache.Reset()
		for pass := 0; pass < 2; pass++ {
			gotPt, gotOK := GammaPoint(s, f)
			if gotOK != wantOK {
				t.Fatalf("trial %d pass %d: GammaPoint ok cached=%v uncached=%v", trial, pass, gotOK, wantOK)
			}
			for k := range wantPt {
				if math.Float64bits(gotPt[k]) != math.Float64bits(wantPt[k]) {
					t.Fatalf("trial %d pass %d: GammaPoint coord %d cached=%v uncached=%v",
						trial, pass, k, gotPt[k], wantPt[k])
				}
			}
			gotDelta, gotDP := DeltaStarPoly(s, f, math.Inf(1))
			if math.Float64bits(gotDelta) != math.Float64bits(wantDelta) {
				t.Fatalf("trial %d pass %d: DeltaStarPoly cached=%v uncached=%v", trial, pass, gotDelta, wantDelta)
			}
			for k := range wantDP {
				if math.Float64bits(gotDP[k]) != math.Float64bits(wantDP[k]) {
					t.Fatalf("trial %d pass %d: DeltaStarPoly point coord %d differs", trial, pass, k)
				}
			}
		}
	}
}

// TestGammaPointCacheClone ensures callers cannot corrupt cached points.
func TestGammaPointCacheClone(t *testing.T) {
	Cache.Reset()
	rng := rand.New(rand.NewSource(5))
	s := fuzzSet(rng, 5, 1)
	pt, ok := GammaPoint(s, 1)
	if !ok {
		t.Skip("empty Gamma on this seed")
	}
	want := pt[0]
	pt[0] = math.NaN()
	pt2, _ := GammaPoint(s, 1)
	if math.IsNaN(pt2[0]) || pt2[0] != want {
		t.Fatal("mutating a returned point corrupted the cached Gamma entry")
	}
}
