package consensus

import (
	"context"
	"math/rand"
	"testing"

	"relaxedbvc/internal/adversary"
	"relaxedbvc/internal/broadcast"
	"relaxedbvc/internal/transport"
	"relaxedbvc/internal/vec"
)

// Signed-broadcast (Dolev-Strong) Step 1: the footnote-3 configuration
// n = 3, f = 1 works where oral messages cannot.
func TestSignedBroadcastN3(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	inputs := randInputs(rng, 3, 2, 2)
	cfg := &SyncConfig{
		N: 3, F: 1, D: 2, Inputs: inputs,
		SignedBroadcast: true,
		ByzantineSigned: map[int]broadcast.DSBehavior{
			2: adversary.SignedEquivocator(map[int]vec.V{0: vec.Of(9, 9), 1: vec.Of(-9, -9)}),
		},
	}
	res, err := RunSync(context.Background(), transport.Plane{}, cfg, must(DeltaRelaxedChooser(cfg, 2)))
	if err != nil {
		t.Fatal(err)
	}
	honest := honestIDs(cfg.N, cfg.ByzantineSigned)
	if len(honest) != 2 {
		t.Fatalf("honest = %v", honest)
	}
	if AgreementError(res.Outputs, honest) != 0 {
		t.Fatal("signed broadcast failed to defeat equivocation at n=3")
	}
	// Views identical.
	for c := 0; c < 3; c++ {
		if !res.AgreedSet[honest[0]].At(c).Equal(res.AgreedSet[honest[1]].At(c)) {
			t.Fatalf("views differ on commander %d", c)
		}
	}
	delta := res.Delta[honest[0]]
	if !CheckDeltaValidity(res.Outputs[honest[0]], honestInputs(cfg.Inputs, cfg.ByzantineSigned), delta, 2, 1e-6) {
		t.Fatal("validity violated under signed broadcast")
	}
}

func TestSignedBroadcastMatchesOralOnHonestRuns(t *testing.T) {
	// With no Byzantine processes the two Step-1 implementations must
	// yield the same agreed multiset and hence the same outputs.
	rng := rand.New(rand.NewSource(92))
	inputs := randInputs(rng, 4, 2, 2)
	oral := &SyncConfig{N: 4, F: 1, D: 2, Inputs: inputs}
	signed := &SyncConfig{N: 4, F: 1, D: 2, Inputs: inputs, SignedBroadcast: true}
	ro, err1 := RunSync(context.Background(), transport.Plane{}, oral, ExactChooser(oral))
	rs, err2 := RunSync(context.Background(), transport.Plane{}, signed, ExactChooser(signed))
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	for i := 0; i < 4; i++ {
		if !ro.Outputs[i].ApproxEqual(rs.Outputs[i], 1e-12) {
			t.Fatalf("outputs differ: %v vs %v", ro.Outputs[i], rs.Outputs[i])
		}
	}
}

func TestSignedBroadcastExactBVCWithByzantine(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	inputs := randInputs(rng, 4, 2, 2)
	cfg := &SyncConfig{
		N: 4, F: 1, D: 2, Inputs: inputs,
		SignedBroadcast: true,
		ByzantineSigned: map[int]broadcast.DSBehavior{
			3: adversary.SignedEquivocator(map[int]vec.V{0: vec.Of(5, 5), 1: vec.Of(-5, -5), 2: vec.Of(5, -5)}),
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
	// An equivocating Byzantine commander's instance falls to the default
	// vector at every honest process (identically).
	def := cfg.defaultVec()
	for _, i := range honest {
		if !res.AgreedSet[i].At(3).Equal(def) {
			t.Fatalf("equivocator's slot = %v, want default", res.AgreedSet[i].At(3))
		}
	}
}

func TestSignedByzantineCountValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	cfg := &SyncConfig{
		N: 4, F: 0, D: 2, Inputs: randInputs(rng, 4, 2, 1),
		SignedBroadcast: true,
		ByzantineSigned: map[int]broadcast.DSBehavior{0: adversary.SignedEquivocator(nil)},
	}
	if _, err := RunSync(context.Background(), transport.Plane{}, cfg, ExactChooser(cfg)); err == nil {
		t.Fatal("too many signed Byzantine accepted")
	}
}
