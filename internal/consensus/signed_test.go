package consensus

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"relaxedbvc/internal/adversary"
	"relaxedbvc/internal/broadcast"
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
	res, err := RunDeltaRelaxedBVC(context.Background(), cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	honest := cfg.HonestIDs()
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
	if !CheckDeltaValidity(res.Outputs[honest[0]], cfg.NonFaultyInputs(), delta, 2, 1e-6) {
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
	ro, err1 := RunExactBVC(context.Background(), oral)
	rs, err2 := RunExactBVC(context.Background(), signed)
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
	res, err := RunExactBVC(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	honest := cfg.HonestIDs()
	if AgreementError(res.Outputs, honest) != 0 {
		t.Fatal("agreement violated")
	}
	for _, i := range honest {
		if !CheckExactValidity(res.Outputs[i], cfg.NonFaultyInputs(), 1e-6) {
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
	if _, err := RunExactBVC(context.Background(), cfg); err == nil {
		t.Fatal("too many signed Byzantine accepted")
	}
}

// A config may script both rosters; only the one its Step 1 runs makes
// a process Byzantine, so the validity set keeps the other's inputs.
func TestHonestIDsReadsTheActiveRoster(t *testing.T) {
	for _, signed := range []bool{false, true} {
		cfg := &SyncConfig{
			N: 4, F: 1, D: 2, SignedBroadcast: signed,
			Inputs:          randInputs(rand.New(rand.NewSource(95)), 4, 2, 1),
			Byzantine:       map[int]broadcast.EIGBehavior{0: adversary.Silent()},
			ByzantineSigned: map[int]broadcast.DSBehavior{3: adversary.SignedEquivocator(nil)},
		}
		want := "[1 2 3]"
		if signed {
			want = "[0 1 2]"
		}
		if got := fmt.Sprint(cfg.HonestIDs()); got != want {
			t.Fatalf("SignedBroadcast=%v: HonestIDs() = %s, want %s", signed, got, want)
		}
		if got := cfg.NonFaultyInputs().Len(); got != 3 {
			t.Fatalf("SignedBroadcast=%v: %d non-faulty inputs, want 3", signed, got)
		}
	}
}
