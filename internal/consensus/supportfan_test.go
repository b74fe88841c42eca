package consensus

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"relaxedbvc/internal/relax"
	"relaxedbvc/internal/vec"
)

// perDirectionFan is supportFan as it was before relax solved the whole
// fan off one feasible basis: a separate LP build and two-phase solve
// per direction, with the same validation and anchor substitution. It
// also reports how many vertices the anchor replaced; ok=false is
// supportFan's ErrEmptyIntersection.
func perDirectionFan(cfg *SyncConfig, s *vec.Set, fan []vec.V) (verts []vec.V, anchored int, ok bool) {
	fam := relax.DroppedSubsets(s, cfg.F)
	var anchor vec.V
	for _, dir := range fan {
		pt := relax.SupportPoints(fam, []vec.V{dir})[0]
		if pt == nil || !inEveryHull(fam, pt, convexTol) {
			if anchor == nil {
				a, ok := gammaAnchor(s, cfg.F, fam)
				if !ok {
					return nil, 0, false
				}
				anchor = a
			}
			pt = anchor
			anchored++
		}
		verts = append(verts, pt)
	}
	return verts, anchored, true
}

// TestSupportFanMatchesPerDirectionLoop: the convex Step-2 choice is bit
// for bit the per-direction loop it replaced — on the batch workload's
// planar shapes and at the Tverberg floor (n=5 f=1 d=3, and n=6 f=1 d=4
// at coordinate scale 1e3), where Gamma(S) is a single point and the
// support LPs are fragile enough that directions take the anchor
// fallback.
func TestSupportFanMatchesPerDirectionLoop(t *testing.T) {
	anchoredTotal, certified := 0, 0
	for _, c := range []struct {
		n, f, d, directions int
		scale               float64
	}{{8, 2, 2, 4, 3}, {9, 2, 2, 16, 3}, {5, 1, 3, 10, 3}, {6, 1, 4, 12, 1000}} {
		fan := directionFan(c.d, c.directions)
		for seed := int64(0); seed < 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			cfg := &SyncConfig{N: c.n, F: c.f, D: c.d}
			s := vec.NewSet(randInputs(rng, c.n, c.d, c.scale)...)
			got, err := supportFan(cfg, s, fan)
			want, anchored, ok := perDirectionFan(cfg, s, fan)
			if !ok {
				if !errors.Is(err, ErrEmptyIntersection) {
					t.Fatalf("n=%d f=%d d=%d seed=%d: per-direction loop finds Gamma(S) empty, fan: %v", c.n, c.f, c.d, seed, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("n=%d f=%d d=%d seed=%d: %v", c.n, c.f, c.d, seed, err)
			}
			anchoredTotal += anchored
			certified += len(want) - anchored
			if len(got) != len(want) {
				t.Fatalf("n=%d seed=%d: %d vertices, want %d", c.n, seed, len(got), len(want))
			}
			for i := range want {
				for j := range want[i] {
					if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
						t.Fatalf("n=%d f=%d d=%d seed=%d vertex %d: fan %v != per-direction %v", c.n, c.f, c.d, seed, i, got[i], want[i])
					}
				}
			}
		}
	}
	if anchoredTotal == 0 || certified == 0 {
		t.Fatalf("%d anchored and %d certified vertices compared; want both", anchoredTotal, certified)
	}
	t.Logf("%d certified support points, %d anchor substitutions", certified, anchoredTotal)
}
