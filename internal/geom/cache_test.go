package geom

import (
	"math"
	"math/rand"
	"testing"

	"relaxedbvc/internal/vec"
)

func randSet(rng *rand.Rand, n, d int) *vec.Set {
	pts := make([]vec.V, n)
	for i := range pts {
		p := vec.New(d)
		for k := range p {
			p[k] = rng.NormFloat64() * 3
		}
		pts[i] = p
	}
	return vec.NewSet(pts...)
}

// TestCacheBitForBit fuzzes point sets and asserts every cached kernel
// returns exactly — bit for bit — what the uncached computation returns,
// both on a cold cache (first call stores compute's own output) and on a
// warm cache (second call replays the stored entry).
func TestCacheBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ps := []float64{1, 1.5, 2, 3, math.Inf(1)}
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(6)
		d := 1 + rng.Intn(3)
		s := randSet(rng, n, d)
		q := vec.New(d)
		for k := range q {
			q[k] = rng.NormFloat64() * 3
		}
		p := ps[rng.Intn(len(ps))]

		Cache.Reset() // a miss is the uncached computation
		wantIn := InHull(q, s)
		wantD, wantPt := DistP(q, s, p)

		Cache.Reset()
		for pass := 0; pass < 2; pass++ { // cold then warm
			if got := InHull(q, s); got != wantIn {
				t.Fatalf("trial %d pass %d: InHull cached=%v uncached=%v", trial, pass, got, wantIn)
			}
			gotD, gotPt := DistP(q, s, p)
			if math.Float64bits(gotD) != math.Float64bits(wantD) {
				t.Fatalf("trial %d pass %d p=%v: DistP cached=%v uncached=%v", trial, pass, p, gotD, wantD)
			}
			for k := range wantPt {
				if math.Float64bits(gotPt[k]) != math.Float64bits(wantPt[k]) {
					t.Fatalf("trial %d pass %d p=%v: point coord %d cached=%v uncached=%v",
						trial, pass, p, k, gotPt[k], wantPt[k])
				}
			}
		}
	}
}

// TestCacheHitCounting checks that repeat queries hit and that the
// returned point is a private copy the caller may mutate.
func TestCacheHitCounting(t *testing.T) {
	Cache.Reset()
	rng := rand.New(rand.NewSource(11))
	s := randSet(rng, 5, 2)
	q := vec.V{0.25, -0.75}

	d1, pt1 := Dist2(q, s)
	pt1[0] = math.NaN() // must not corrupt the cache entry
	d2, pt2 := Dist2(q, s)
	if d1 != d2 {
		t.Fatalf("distances differ across hits: %v vs %v", d1, d2)
	}
	if math.IsNaN(pt2[0]) {
		t.Fatal("mutating a returned point corrupted the cached entry")
	}
	st := Cache.Stats()
	if st.Hits == 0 {
		t.Fatalf("expected a cache hit, got stats %+v", st)
	}
}
