package consensus

import (
	"context"

	"math/rand"
	"slices"
	"testing"

	"relaxedbvc/internal/adversary"
	"relaxedbvc/internal/broadcast"
	"relaxedbvc/internal/sched"
	"relaxedbvc/internal/transport"
	"relaxedbvc/internal/vec"
)

// Cross-feature and larger-scale configurations (skipped under -short).

func TestSignedBroadcastKRelaxedAndConvex(t *testing.T) {
	rng := rand.New(rand.NewSource(121))
	inputs := randInputs(rng, 5, 3, 2)
	cfg := &SyncConfig{
		N: 5, F: 1, D: 3, Inputs: inputs,
		SignedBroadcast: true,
		ByzantineSigned: map[int]broadcast.DSBehavior{
			4: adversary.SignedEquivocator(map[int]vec.V{0: vec.Of(7, 7, 7), 1: vec.Of(-7, -7, -7)}),
		},
	}
	kres, err := RunSync(context.Background(), transport.Plane{}, cfg, must(KRelaxedChooser(cfg, 2)))
	if err != nil {
		t.Fatal(err)
	}
	honest := honestIDs(cfg.N, cfg.ByzantineSigned)
	if AgreementError(kres.Outputs, honest) != 0 {
		t.Fatal("k-relaxed agreement violated under signed broadcast")
	}
	for _, i := range honest {
		if !CheckKValidity(kres.Outputs[i], honestInputs(cfg.Inputs, cfg.ByzantineSigned), 2, 1e-6) {
			t.Fatal("k-relaxed validity violated")
		}
	}
	cres, err := RunConvexHullConsensus(context.Background(), cfg, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range honest[1:] {
		if !slices.EqualFunc(cres.Vertices[honest[0]], cres.Vertices[i], vec.V.Equal) {
			t.Fatal("convex agreement violated under signed broadcast")
		}
	}
	if !CheckConvexValidity(cres.Vertices[honest[0]], honestInputs(cfg.Inputs, cfg.ByzantineSigned), 1e-6) {
		t.Fatal("convex validity violated")
	}
}

func TestAsyncF2(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	// f = 2 async: n >= 3f+1 = 7 for the RBC; ModeExact needs
	// (d+2)f+1 = 9 at d = 2... use relaxed mode at n = 7.
	rng := rand.New(rand.NewSource(122))
	cfg := &AsyncConfig{
		N: 7, F: 2, D: 2,
		Inputs: randInputs(rng, 7, 2, 2),
		Rounds: 8,
		Mode:   ModeRelaxed,
		Byzantine: map[int]*AsyncByzantine{
			5: {Input: vec.Of(30, 30), SilentFrom: NeverMisbehave, CorruptFrom: NeverMisbehave},
			6: {SilentFrom: 0, CorruptFrom: NeverMisbehave},
		},
	}
	res, err := RunAsync(context.Background(), transport.Plane{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkAsyncRun(t, cfg, res, 0.1)
}

func TestSignedBroadcastLargeScale(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	// n = 10, f = 3 with signed broadcast: exact BVC with d = 2 needs
	// (d+1)f+1 = 10 processes — exactly n.
	rng := rand.New(rand.NewSource(123))
	inputs := randInputs(rng, 10, 2, 2)
	cfg := &SyncConfig{
		N: 10, F: 3, D: 2, Inputs: inputs,
		SignedBroadcast: true,
		ByzantineSigned: map[int]broadcast.DSBehavior{
			7: adversary.SignedEquivocator(map[int]vec.V{0: vec.Of(9, 9), 1: vec.Of(-9, 9)}),
			8: adversary.SignedEquivocator(map[int]vec.V{2: vec.Of(5, -5)}),
			9: adversary.SignedEquivocator(nil),
		},
	}
	res, err := RunSync(context.Background(), transport.Plane{}, cfg, ExactChooser(cfg))
	if err != nil {
		t.Fatal(err)
	}
	honest := honestIDs(cfg.N, cfg.ByzantineSigned)
	if AgreementError(res.Outputs, honest) != 0 {
		t.Fatal("agreement violated")
	}
	for _, i := range honest {
		if !CheckExactValidity(res.Outputs[i], honestInputs(cfg.Inputs, cfg.ByzantineSigned), 1e-6) {
			t.Fatal("validity violated")
		}
	}
}

func TestALGOHighDimension(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	// d = 8 with n = d+1 = 9, f = 1: the headline regime at a dimension
	// where exact BVC would need 10 processes.
	rng := rand.New(rand.NewSource(124))
	inputs := randInputs(rng, 9, 8, 2)
	cfg := &SyncConfig{
		N: 9, F: 1, D: 8, Inputs: inputs,
		Byzantine: map[int]broadcast.EIGBehavior{8: adversary.RandomLiar(5, 8, 10)},
	}
	res, err := RunSync(context.Background(), transport.Plane{}, cfg, must(DeltaRelaxedChooser(cfg, 2)))
	if err != nil {
		t.Fatal(err)
	}
	honest := honestIDs(cfg.N, cfg.Byzantine)
	if AgreementError(res.Outputs, honest) != 0 {
		t.Fatal("agreement violated")
	}
	delta := res.Delta[honest[0]]
	nonFaulty := honestInputs(cfg.Inputs, cfg.Byzantine)
	if !CheckDeltaValidity(res.Outputs[honest[0]], nonFaulty, delta, 2, 1e-6) {
		t.Fatal("validity violated")
	}
	// Theorem 9 at d = 8.
	if bound := theorem9(nonFaulty, 9); delta >= bound {
		t.Fatalf("Theorem 9 violated at d=8: %v >= %v", delta, bound)
	}
}

func theorem9(nonFaulty *vec.Set, n int) float64 {
	minE := nonFaulty.MinEdge(2)
	maxE := nonFaulty.MaxEdge(2)
	b := minE / 2
	if m := maxE / float64(n-2); m < b {
		b = m
	}
	return b
}

// Replayability: identical configs and seeds must give bit-identical
// outcomes across independent runs (the whole simulation stack is
// deterministic).
func TestDeterministicReplay(t *testing.T) {
	mk := func() (*SyncResult, *AsyncResult) {
		rng := rand.New(rand.NewSource(131))
		inputs := randInputs(rng, 4, 3, 2)
		sc := &SyncConfig{
			N: 4, F: 1, D: 3, Inputs: inputs,
			Byzantine: map[int]broadcast.EIGBehavior{2: adversary.Equivocator(vec.Of(9, 9, 9), vec.Of(-9, -9, -9))},
		}
		sres, err := RunSync(context.Background(), transport.Plane{}, sc, must(DeltaRelaxedChooser(sc, 2)))
		if err != nil {
			t.Fatal(err)
		}
		ac := &AsyncConfig{
			N: 4, F: 1, D: 3, Inputs: inputs, Rounds: 5, Mode: ModeRelaxed,
			Schedule: &sched.RandomSchedule{Rng: rand.New(rand.NewSource(77))},
		}
		ares, err := RunAsync(context.Background(), transport.Plane{}, ac)
		if err != nil {
			t.Fatal(err)
		}
		return sres, ares
	}
	s1, a1 := mk()
	s2, a2 := mk()
	for i := range s1.Outputs {
		if !s1.Outputs[i].Equal(s2.Outputs[i]) {
			t.Fatalf("sync replay diverged at %d: %v vs %v", i, s1.Outputs[i], s2.Outputs[i])
		}
	}
	for i := range a1.Outputs {
		if (a1.Outputs[i] == nil) != (a2.Outputs[i] == nil) {
			t.Fatalf("async replay decided-ness diverged at %d", i)
		}
		if a1.Outputs[i] != nil && !a1.Outputs[i].Equal(a2.Outputs[i]) {
			t.Fatalf("async replay diverged at %d", i)
		}
	}
	if a1.Messages != a2.Messages || a1.Steps != a2.Steps {
		t.Fatalf("async stats diverged: %d/%d vs %d/%d", a1.Messages, a1.Steps, a2.Messages, a2.Steps)
	}
}
