package adversary_test

// Table-driven coverage of every adversary behavior: first the
// documented wire behavior (what bytes the behavior emits at the
// broadcast level), then tolerance — protocols run at the paper's
// process-count bounds must satisfy agreement and validity against each
// behavior occupying one of the f Byzantine slots.

import (
	"bytes"
	"context"
	"testing"

	bvc "relaxedbvc"
	"relaxedbvc/internal/adversary"
	"relaxedbvc/internal/broadcast"
	"relaxedbvc/internal/vec"
)

func TestWireBehaviorTable(t *testing.T) {
	honest := broadcast.EncodeVec(vec.Of(9, 9))
	for _, tc := range []struct {
		name  string
		b     broadcast.EIGBehavior
		to    int
		want  vec.V // nil: expect silence; decodes otherwise
		raw   []byte
		same  bool // expect the honest value passed through
		undec bool // expect undecodable bytes
	}{
		{name: "silent", b: adversary.Silent(), to: 1, want: nil},
		{name: "honest", b: adversary.Honest(), to: 1, same: true},
		{name: "fixed", b: adversary.FixedVector(vec.Of(1, 2)), to: 3, want: vec.Of(1, 2)},
		{name: "equivocator-even", b: adversary.Equivocator(vec.Of(1, 0), vec.Of(0, 1)), to: 2, want: vec.Of(1, 0)},
		{name: "equivocator-odd", b: adversary.Equivocator(vec.Of(1, 0), vec.Of(0, 1)), to: 3, want: vec.Of(0, 1)},
		{name: "per-recipient-hit", b: adversary.PerRecipient(map[int]vec.V{2: vec.Of(7, 7)}), to: 2, want: vec.Of(7, 7)},
		{name: "per-recipient-miss", b: adversary.PerRecipient(map[int]vec.V{2: vec.Of(7, 7)}), to: 1, same: true},
		{name: "random-liar", b: adversary.RandomLiar(5, 2, 1), to: 0, raw: adversary.RandomLiar(5, 2, 1).RelayValue(0, nil, 0, nil)},
		{name: "garbage", b: adversary.Garbage(), to: 0, undec: true},
		{name: "relay-liar-own", b: adversary.RelayOnlyLiar(0, vec.Of(4, 4)), to: 1, same: true},
	} {
		got := tc.b.RelayValue(0, []int{0}, tc.to, honest)
		switch {
		case tc.same:
			if !bytes.Equal(got, honest) {
				t.Errorf("%s: deviated from the honest value", tc.name)
			}
		case tc.undec:
			if _, err := broadcast.DecodeVec(got); err == nil {
				t.Errorf("%s: bytes unexpectedly decodable", tc.name)
			}
		case tc.raw != nil:
			if !bytes.Equal(got, tc.raw) {
				t.Errorf("%s: not deterministic across constructions", tc.name)
			}
		case tc.want == nil:
			if got != nil {
				t.Errorf("%s: sent %x, want silence", tc.name, got)
			}
		default:
			v, err := broadcast.DecodeVec(got)
			if err != nil || !v.Equal(tc.want) {
				t.Errorf("%s: sent %v (%v), want %v", tc.name, v, err, tc.want)
			}
		}
	}
	// RelayOnlyLiar corrupts only other commanders' instances.
	rl := adversary.RelayOnlyLiar(0, vec.Of(4, 4))
	if v, _ := broadcast.DecodeVec(rl.RelayValue(1, nil, 2, honest)); !v.Equal(vec.Of(4, 4)) {
		t.Error("relay-liar: other instance not corrupted")
	}
}

// behaviorTable returns every oral-broadcast behavior, built for
// dimension d.
func behaviorTable(d int) map[string]broadcast.EIGBehavior {
	lie := vec.New(d)
	lie[0] = 40
	alt := vec.New(d)
	alt[d-1] = -40
	return map[string]broadcast.EIGBehavior{
		"silent":        adversary.Silent(),
		"honest":        adversary.Honest(),
		"fixed":         adversary.FixedVector(lie),
		"equivocator":   adversary.Equivocator(lie, alt),
		"per-recipient": adversary.PerRecipient(map[int]vec.V{0: lie, 1: alt}),
		"random-liar":   adversary.RandomLiar(11, d, 20),
		"garbage":       adversary.Garbage(),
		"relay-liar":    adversary.RelayOnlyLiar(0, lie),
	}
}

func inputsFor(n, d int) []vec.V {
	out := make([]vec.V, n)
	for i := range out {
		v := vec.New(d)
		for j := range v {
			v[j] = float64((i*7+j*3)%5) / 4
		}
		out[i] = v
	}
	return out
}

// TestExactBVCToleratesEveryBehavior runs exact BVC at its tight bound
// n = max(3f+1, (d+1)f+1) with each behavior in the Byzantine slot.
func TestExactBVCToleratesEveryBehavior(t *testing.T) {
	const d, f = 2, 1
	n := (d+1)*f + 1
	if m := 3*f + 1; m > n {
		n = m
	}
	for name, b := range behaviorTable(d) {
		byzID := n - 1
		if name == "relay-liar" {
			b = adversary.RelayOnlyLiar(byzID, vec.Of(40, 0))
		}
		spec := bvc.Spec{
			Protocol: bvc.ProtocolExact, N: n, F: f, D: d,
			Inputs:    inputsFor(n, d),
			Byzantine: map[int]bvc.ByzantineBehavior{byzID: b},
		}
		res, err := bvc.Run(context.Background(), spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		honest := spec.HonestIDs()
		if eps := bvc.AgreementError(res.Outputs, honest); eps != 0 {
			t.Errorf("%s: agreement violated (%v)", name, eps)
		}
		for _, i := range honest {
			if !bvc.CheckExactValidity(res.Outputs[i], spec.NonFaultyInputs(), 1e-6) {
				t.Errorf("%s: validity violated at process %d: %v", name, i, res.Outputs[i])
			}
		}
	}
}

// TestALGOToleratesEveryBehavior runs the paper's ALGO at n = 3f+1 (the
// relaxed bound, below the exact one for d = 3) against each behavior.
func TestALGOToleratesEveryBehavior(t *testing.T) {
	const d, f = 3, 1
	n := 3*f + 1
	for name, b := range behaviorTable(d) {
		byzID := 0
		spec := bvc.Spec{
			Protocol: bvc.ProtocolDeltaRelaxed, N: n, F: f, D: d,
			Inputs:    inputsFor(n, d),
			Byzantine: map[int]bvc.ByzantineBehavior{byzID: b},
		}
		res, err := bvc.Run(context.Background(), spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		honest := spec.HonestIDs()
		if eps := bvc.AgreementError(res.Outputs, honest); eps != 0 {
			t.Errorf("%s: agreement violated (%v)", name, eps)
		}
		for _, i := range honest {
			if !bvc.CheckDeltaValidity(res.Outputs[i], spec.NonFaultyInputs(), res.Delta[i], 2, 1e-6) {
				t.Errorf("%s: (delta,2)-validity violated at process %d", name, i)
			}
		}
	}
}

// TestSignedEquivocatorToleratedByDolevStrong covers the signed-mode
// "proof replayer": genuine signatures on equivocating values, caught by
// honest cross-forwarding. Signed broadcast tolerates any f < n, so the
// run uses n = 3 below the oral bound.
func TestSignedEquivocatorToleratedByDolevStrong(t *testing.T) {
	const n, f, d = 3, 1, 2
	inputs := inputsFor(n, d)
	spec := bvc.Spec{
		Protocol: bvc.ProtocolDeltaRelaxed, N: n, F: f, D: d,
		Inputs:          inputs,
		SignedBroadcast: true,
		SigSeed:         5,
		ByzantineSigned: map[int]bvc.SignedByzantineBehavior{
			2: adversary.SignedEquivocator(map[int]vec.V{0: vec.Of(30, 0), 1: vec.Of(0, 30)}),
		},
	}
	res, err := bvc.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	honest := spec.HonestIDs()
	if eps := bvc.AgreementError(res.Outputs, honest); eps != 0 {
		t.Fatalf("agreement violated under signed equivocation (%v)", eps)
	}
	for _, i := range honest {
		if !bvc.CheckDeltaValidity(res.Outputs[i], spec.NonFaultyInputs(), res.Delta[i], 2, 1e-6) {
			t.Fatalf("validity violated at process %d", i)
		}
	}
}

// TestWorstCasePlacementPressure pins the helper the Table 1 experiments
// use: the placement must sit at the requested radius from the honest
// centroid and must still be tolerated by ALGO when claimed by a fixed-
// vector adversary.
func TestWorstCasePlacementPressure(t *testing.T) {
	const d, f = 3, 1
	n := 3*f + 1
	inputs := inputsFor(n, d)
	honestIn := inputs[1:]
	placement := adversary.WorstCasePlacement(honestIn, 10)
	spec := bvc.Spec{
		Protocol: bvc.ProtocolDeltaRelaxed, N: n, F: f, D: d,
		Inputs:    inputs,
		Byzantine: map[int]bvc.ByzantineBehavior{0: adversary.FixedVector(placement)},
	}
	res, err := bvc.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range spec.HonestIDs() {
		if !bvc.CheckDeltaValidity(res.Outputs[i], spec.NonFaultyInputs(), res.Delta[i], 2, 1e-6) {
			t.Fatalf("worst-case placement broke validity at process %d", i)
		}
	}
}
