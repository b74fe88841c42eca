package relaxedbvc

import (
	"context"
	"encoding/json"
	"os"
	"testing"
)

// frozenInstance is one entry of testdata/exact_n9_f2_d3_frozen.json:
// an exact n=9 f=2 d=3 spec of the benchmark's generator (inputs uniform
// in [-5,5)^3, process n-1 a RandomLiar of scale 5 with the given seed)
// and how it failed when Gamma(S) was one joint LP over all C(n,f)
// dropped-subset hulls.
type frozenInstance struct {
	Index         int         `json:"index"`
	N             int         `json:"n"`
	F             int         `json:"f"`
	D             int         `json:"d"`
	Inputs        [][]float64 `json:"inputs"`
	LiarSeed      int64       `json:"liar_seed"`
	ParentFailure string      `json:"parent_failure"`
}

// TestExactFrozenInstances runs every frozen instance through Run and
// requires exact agreement among the honest processes and validity at
// tolerance 1e-6, the benchmark's check. Each one failed that check, or
// reported Gamma(S) empty, under the joint LP; the lazy block-generation
// loop's smaller LPs and certified points decide all of them.
func TestExactFrozenInstances(t *testing.T) {
	raw, err := os.ReadFile("testdata/exact_n9_f2_d3_frozen.json")
	if err != nil {
		t.Fatal(err)
	}
	var frozen []frozenInstance
	if err := json.Unmarshal(raw, &frozen); err != nil {
		t.Fatal(err)
	}
	if len(frozen) == 0 {
		t.Fatal("no frozen instances")
	}
	for _, e := range frozen {
		spec := Spec{
			Protocol: ProtocolExact, N: e.N, F: e.F, D: e.D,
			Byzantine: map[int]ByzantineBehavior{e.N - 1: RandomLiar(e.LiarSeed, e.D, 5)},
		}
		for _, v := range e.Inputs {
			spec.Inputs = append(spec.Inputs, NewVector(v...))
		}
		res, err := Run(context.Background(), spec)
		if err != nil {
			t.Fatalf("instance %d (was: %s): %v", e.Index, e.ParentFailure, err)
		}
		honest := spec.HonestIDs()
		if a := AgreementError(res.Outputs, honest); a != 0 {
			t.Fatalf("instance %d: agreement error %g", e.Index, a)
		}
		if !CheckExactValidity(res.Outputs[honest[0]], spec.NonFaultyInputs(), 1e-6) {
			t.Errorf("instance %d (was: %s): output %v violates validity", e.Index, e.ParentFailure, res.Outputs[honest[0]])
		}
	}
}
