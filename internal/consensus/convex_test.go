package consensus

import (
	"context"

	"math"
	"math/rand"
	"slices"
	"testing"

	"relaxedbvc/internal/broadcast"
	"relaxedbvc/internal/geom"
	"relaxedbvc/internal/relax"
	"relaxedbvc/internal/transport"
	"relaxedbvc/internal/vec"
)

func TestConvexHullConsensusBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	cfg := &SyncConfig{
		N: 5, F: 1, D: 2,
		Inputs:    randInputs(rng, 5, 2, 2),
		Byzantine: map[int]broadcast.EIGBehavior{4: &twoFacedVec{vec.Of(30, 30), vec.Of(-30, -30)}},
	}
	res, err := RunConvexHullConsensus(context.Background(), cfg, 12)
	if err != nil {
		t.Fatal(err)
	}
	honest := honestIDs(cfg.N, cfg.Byzantine)
	// Agreement on the polytope.
	for _, i := range honest[1:] {
		if !slices.EqualFunc(res.Vertices[honest[0]], res.Vertices[i], vec.V.Equal) {
			t.Fatalf("polytope disagreement between %d and %d", honest[0], i)
		}
	}
	// Validity: all vertices in the non-faulty hull.
	nonFaulty := honestInputs(cfg.Inputs, cfg.Byzantine)
	if !CheckConvexValidity(res.Vertices[honest[0]], nonFaulty, 1e-6) {
		t.Fatal("convex validity violated")
	}
	// Every vertex is in Gamma(S): distance to every (n-f)-subset hull ~0.
	fam := relax.DroppedSubsets(res2set(cfg, res, honest[0]), cfg.F)
	for _, v := range res.Vertices[honest[0]] {
		for _, sub := range fam {
			if d, _ := geom.Dist2(v, sub); d > 1e-6 {
				t.Fatalf("vertex %v misses a subset hull by %v", v, d)
			}
		}
	}
	if len(res.Vertices[honest[0]]) < 2*cfg.D {
		t.Fatal("fewer directions than the 2d minimum")
	}
}

// res2set rebuilds the agreed multiset for a process from the sync run
// (broadcast again deterministically for checking purposes).
func res2set(cfg *SyncConfig, _ *ConvexResult, _ int) *vec.Set {
	info, err := step1(context.Background(), transport.Plane{}, cfg)
	if err != nil {
		panic(err)
	}
	return info.sets[honestIDs(cfg.N, cfg.Byzantine)[0]]
}

func TestConvexHullConsensusContainsGammaPoint(t *testing.T) {
	// The Gamma point from exact BVC must lie inside the agreed polytope
	// (it is in Gamma, and the polytope is an inner approximation whose
	// hull contains any point expressible as a combination of support
	// points... we check the weaker, correct property: the Gamma point is
	// within Gamma, and each polytope vertex is within Gamma).
	rng := rand.New(rand.NewSource(102))
	cfg := &SyncConfig{N: 5, F: 1, D: 2, Inputs: randInputs(rng, 5, 2, 2)}
	cres, err := RunConvexHullConsensus(context.Background(), cfg, 16)
	if err != nil {
		t.Fatal(err)
	}
	eres, err := RunSync(context.Background(), transport.Plane{}, cfg, ExactChooser(cfg))
	if err != nil {
		t.Fatal(err)
	}
	// With enough directions the polytope hull should contain the single
	// Gamma point chosen by exact BVC (both are in Gamma; the support
	// points span Gamma's extent in the fan directions).
	hull := vec.NewSet(cres.Vertices[0]...)
	pt := eres.Outputs[0]
	d, _ := geom.Dist2(pt, hull)
	// The inner approximation may miss the point slightly in unexplored
	// directions; with 16 directions in 2-D the gap should be tiny.
	if d > 0.15 {
		t.Fatalf("Gamma point %v far from polytope (%v)", pt, d)
	}
}

func TestConvexHullConsensusDegenerateGamma(t *testing.T) {
	// All inputs identical: Gamma is that single point; the polytope
	// collapses to it.
	p := vec.Of(1.5, -2)
	inputs := []vec.V{p.Clone(), p.Clone(), p.Clone(), p.Clone()}
	cfg := &SyncConfig{N: 4, F: 1, D: 2, Inputs: inputs}
	res, err := RunConvexHullConsensus(context.Background(), cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Vertices[0] {
		if !v.ApproxEqual(p, 1e-7) {
			t.Fatalf("vertex %v != %v", v, p)
		}
	}
}

func TestConvexHullConsensusEmptyGamma(t *testing.T) {
	cfg := &SyncConfig{
		N: 4, F: 1, D: 3,
		Inputs: []vec.V{vec.Of(0, 0, 0), vec.Of(1, 0, 0), vec.Of(0, 1, 0), vec.Of(0, 0, 1)},
	}
	if _, err := RunConvexHullConsensus(context.Background(), cfg, 8); err == nil {
		t.Fatal("empty Gamma accepted")
	}
}

func TestDirectionFanDeterministicAndUnit(t *testing.T) {
	a := directionFan(3, 20)
	b := directionFan(3, 20)
	if len(a) < 20 || len(a) != len(b) {
		t.Fatalf("fan sizes %d %d", len(a), len(b))
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatal("fan not deterministic")
		}
		if n := a[i].Norm2(); math.Abs(n-1) > 1e-9 {
			t.Fatalf("direction %d not unit: %v", i, n)
		}
	}
	// First 2d are the signed axes.
	if a[0][0] != 1 || a[1][0] != -1 {
		t.Fatal("fan does not start with signed axes")
	}
}
