package relaxedbvc_test

// Parity tests of the front door: Spec defaults mean what they say, and
// a batch returns at each index exactly what a sequential Run returns.

import (
	"context"
	"math"
	"math/rand"
	"testing"

	bvc "relaxedbvc"
)

func parityInputs(t *testing.T, seed int64, n, d int) []bvc.Vector {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	inputs := make([]bvc.Vector, n)
	for i := range inputs {
		v := make([]float64, d)
		for j := range v {
			v[j] = rng.NormFloat64() * 3
		}
		inputs[i] = bvc.NewVector(v...)
	}
	return inputs
}

func sameVec(a, b bvc.Vector) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func checkVecs(t *testing.T, name string, old, new []bvc.Vector) {
	t.Helper()
	if len(old) != len(new) {
		t.Fatalf("%s: %d vs %d outputs", name, len(old), len(new))
	}
	for i := range old {
		if !sameVec(old[i], new[i]) {
			t.Errorf("%s: output %d differs: %v vs %v", name, i, old[i], new[i])
		}
	}
}

func checkFloats(t *testing.T, name string, old, new []float64) {
	t.Helper()
	if len(old) != len(new) {
		t.Fatalf("%s: %d vs %d values", name, len(old), len(new))
	}
	for i := range old {
		if math.Float64bits(old[i]) != math.Float64bits(new[i]) {
			t.Errorf("%s: value %d differs: %v vs %v", name, i, old[i], new[i])
		}
	}
}

func TestParityDeltaRelaxedDefaultNorm(t *testing.T) {
	// Spec.NormP = 0 must mean p = 2, and the zero Protocol ALGO.
	inputs := parityInputs(t, 4, 4, 2)
	explicit, err := bvc.Run(context.Background(), bvc.Spec{Protocol: bvc.ProtocolDeltaRelaxed, NormP: 2, N: 4, F: 1, D: 2, Inputs: inputs})
	if err != nil {
		t.Fatal(err)
	}
	res, err := bvc.Run(context.Background(), bvc.Spec{N: 4, F: 1, D: 2, Inputs: inputs}) // all defaults
	if err != nil {
		t.Fatal(err)
	}
	checkVecs(t, "default norm", explicit.Outputs, res.Outputs)
	checkFloats(t, "default norm delta", explicit.Delta, res.Delta)
}

func TestComputeDeltaStarErrors(t *testing.T) {
	s := bvc.NewPointSet(bvc.NewVector(0, 0), bvc.NewVector(1, 1), bvc.NewVector(2, 0))
	if _, _, err := bvc.ComputeDeltaStar(nil, 1, 2); err == nil {
		t.Error("nil set: want error")
	}
	if _, _, err := bvc.ComputeDeltaStar(s, 3, 2); err == nil {
		t.Error("f = |S|: want error")
	}
	if _, _, err := bvc.ComputeDeltaStar(s, 1, 0.5); err == nil {
		t.Error("p < 1: want error")
	}
}

func TestRunUnknownProtocol(t *testing.T) {
	_, err := bvc.Run(context.Background(), bvc.Spec{Protocol: bvc.Protocol(99)})
	if err == nil {
		t.Fatal("want ErrUnknownProtocol")
	}
}

func TestRunBatchParity(t *testing.T) {
	// A batch of mixed specs must return, at each index, exactly what a
	// sequential Run of the same spec returns.
	specs := []bvc.Spec{
		{Protocol: bvc.ProtocolDeltaRelaxed, N: 4, F: 1, D: 2, Inputs: parityInputs(t, 20, 4, 2)},
		{Protocol: bvc.ProtocolExact, N: 5, F: 1, D: 2, Inputs: parityInputs(t, 21, 5, 2)},
		{Protocol: bvc.ProtocolScalar, N: 4, F: 1, D: 1, Inputs: parityInputs(t, 22, 4, 1)},
		{Protocol: bvc.ProtocolAsync, N: 4, F: 1, D: 2, Rounds: 3, Inputs: parityInputs(t, 23, 4, 2)},
	}
	sequential := make([]*bvc.Result, len(specs))
	for i, spec := range specs {
		r, err := bvc.Run(context.Background(), spec)
		if err != nil {
			t.Fatalf("sequential %d: %v", i, err)
		}
		sequential[i] = r
	}
	batched := bvc.RunBatch(context.Background(), bvc.BatchOptions{Workers: 4}, specs)
	if err := bvc.FirstBatchErr(batched); err != nil {
		t.Fatal(err)
	}
	for i, b := range batched {
		if b.Index != i {
			t.Fatalf("result %d has index %d", i, b.Index)
		}
		checkVecs(t, "batch outputs", sequential[i].Outputs, b.Result.Outputs)
		checkFloats(t, "batch delta", sequential[i].Delta, b.Result.Delta)
	}
}
