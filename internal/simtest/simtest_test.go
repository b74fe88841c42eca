package simtest

import (
	"context"
	"fmt"
	"strings"
	"testing"

	bvc "relaxedbvc"
)

// faultySpec returns a small async instance with a within-model fault
// cocktail: drops (recoverable), duplication, bounded delays and a
// healing partition.
func faultySpec() bvc.Spec {
	return bvc.Spec{
		Protocol: bvc.ProtocolAsync,
		N:        4, F: 1, D: 3,
		Inputs: []bvc.Vector{
			bvc.NewVector(0, 0, 0), bvc.NewVector(1, 0, 1),
			bvc.NewVector(0, 1, 1), bvc.NewVector(1, 1, 0),
		},
		Rounds: 5,
		Faults: &bvc.LinkFaults{
			Seed:        99,
			LinkProfile: bvc.LinkProfile{DropProb: 0.2, DupProb: 0.2, DelayMax: 2},
			Partitions:  []bvc.Partition{{Start: 1, End: 4, Group: []int{2}}},
		},
	}
}

func TestGenSpecDeterministic(t *testing.T) {
	cfg := FuzzConfig{Regime: RegimeMixed}
	for seed := int64(0); seed < 20; seed++ {
		a := GenSpec(seed, cfg)
		b := GenSpec(seed, cfg)
		ka := fmt.Sprintf("%s n=%d f=%d d=%d k=%d p=%v r=%d in=%v fl=%+v",
			a.Protocol, a.N, a.F, a.D, a.K, a.NormP, a.Rounds, a.Inputs, a.Faults)
		kb := fmt.Sprintf("%s n=%d f=%d d=%d k=%d p=%v r=%d in=%v fl=%+v",
			b.Protocol, b.N, b.F, b.D, b.K, b.NormP, b.Rounds, b.Inputs, b.Faults)
		if ka != kb {
			t.Fatalf("seed %d: GenSpec not deterministic:\n%s\n%s", seed, ka, kb)
		}
	}
}

func TestReplayDeterminism(t *testing.T) {
	// The core replay contract: the same Spec (same fault seed) yields a
	// byte-identical fingerprint — outputs, metrics and full transcript.
	ctx := context.Background()
	first, err := Fingerprint(ctx, faultySpec())
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if !strings.Contains(first, "transcript:\n#") {
		t.Fatalf("fingerprint has no transcript:\n%s", first)
	}
	for i := 0; i < 2; i++ {
		again, err := Fingerprint(ctx, faultySpec())
		if err != nil {
			t.Fatalf("replay %d failed: %v", i, err)
		}
		if again != first {
			t.Fatalf("replay %d diverged:\n--- first ---\n%s\n--- replay ---\n%s", i, first, again)
		}
	}
}

func TestRunCheckedCleanRun(t *testing.T) {
	rep := RunChecked(context.Background(), faultySpec())
	if rep.Err != nil {
		t.Fatalf("within-model run errored: %v", rep.Err)
	}
	if len(rep.Violations) > 0 {
		t.Fatalf("violations on a clean run: %v", rep.Violations)
	}
	if rep.Failed() {
		t.Fatal("clean run classified as failed")
	}
	m := rep.Result.Metrics
	if m.LinkDrops == 0 && m.LinkDuplicates == 0 && m.LinkDelays == 0 {
		t.Fatalf("fault counters empty despite injected faults: %+v", m)
	}
}

func TestPlantedViolationsDetected(t *testing.T) {
	spec := bvc.Spec{
		Protocol: bvc.ProtocolExact,
		N:        4, F: 1, D: 2,
		Inputs: []bvc.Vector{
			bvc.NewVector(0, 0), bvc.NewVector(1, 0),
			bvc.NewVector(0, 1), bvc.NewVector(1, 1),
		},
	}
	in := bvc.NewVector(0.5, 0.5)
	far := bvc.NewVector(50, 50)

	// Termination: a missing honest output.
	res := &bvc.Result{Outputs: []bvc.Vector{in, in, in, nil}}
	if vs := Check(spec, res); len(vs) == 0 || vs[0].Invariant != "termination" {
		t.Fatalf("missing output not flagged: %v", vs)
	}
	// Validity: an output outside the non-faulty hull.
	res = &bvc.Result{Outputs: []bvc.Vector{far, far, far, far}}
	if vs := Check(spec, res); !hasInvariant(vs, "validity") {
		t.Fatalf("hull escape not flagged: %v", vs)
	}
	// Agreement: honest outputs that differ.
	res = &bvc.Result{Outputs: []bvc.Vector{in, bvc.NewVector(0.9, 0.9), in, in}}
	if vs := Check(spec, res); !hasInvariant(vs, "agreement") {
		t.Fatalf("disagreement not flagged: %v", vs)
	}
	// A correct run passes.
	res = &bvc.Result{Outputs: []bvc.Vector{in, in, in, in}}
	if vs := Check(spec, res); len(vs) != 0 {
		t.Fatalf("clean planted run flagged: %v", vs)
	}
}

func TestPlantedACSViolationsDetected(t *testing.T) {
	// The extended oracle must bite: tamper with a genuine run's stream
	// and watch each invariant trip.
	cfg := FuzzConfig{Protocols: []bvc.Protocol{bvc.ProtocolACS}}
	spec := GenSpec(5042, cfg) // fault-free (RegimeNone default)
	res, err := bvc.Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if vs := Check(spec, res); len(vs) != 0 {
		t.Fatalf("genuine run flagged: %v", vs)
	}
	honest := HonestIDs(spec)
	tamper := func(mutate func(r *bvc.Result)) []Violation {
		clone := *res
		clone.ACS = make([][]bvc.ACSEpoch, len(res.ACS))
		for i := range res.ACS {
			clone.ACS[i] = make([]bvc.ACSEpoch, len(res.ACS[i]))
			for e := range res.ACS[i] {
				ep := res.ACS[i][e]
				ep.Subset = append([]int(nil), ep.Subset...)
				ep.Values = append([]bvc.Vector(nil), ep.Values...)
				clone.ACS[i][e] = ep
			}
		}
		mutate(&clone)
		return Check(spec, &clone)
	}

	i0 := honest[0]
	if vs := tamper(func(r *bvc.Result) { r.ACS[i0] = r.ACS[i0][:len(r.ACS[i0])-1] }); !hasInvariant(vs, "termination") {
		t.Fatalf("truncated stream not flagged: %v", vs)
	}
	if vs := tamper(func(r *bvc.Result) { r.ACS[i0][0].Subset = r.ACS[i0][0].Subset[:2] }); !hasInvariant(vs, "validity") {
		t.Fatalf("undersized subset not flagged: %v", vs)
	}
	if vs := tamper(func(r *bvc.Result) {
		r.ACS[i0][0].Values[0] = bvc.NewVector(make([]float64, spec.D)...)
	}); !hasInvariant(vs, "validity") {
		t.Fatalf("substituted slot value not flagged: %v", vs)
	}
	if vs := tamper(func(r *bvc.Result) { r.ACS[i0][0].Delta += 0.25 }); !hasInvariant(vs, "validity") {
		t.Fatalf("kernel-divergent decision not flagged: %v", vs)
	}
	if len(honest) > 1 {
		i1 := honest[1]
		if vs := tamper(func(r *bvc.Result) { r.ACS[i1][0].Epoch = 7 }); !hasInvariant(vs, "agreement") && !hasInvariant(vs, "validity") {
			t.Fatalf("diverging stream not flagged: %v", vs)
		}
	}
}

func hasInvariant(vs []Violation, inv string) bool {
	for _, v := range vs {
		if v.Invariant == inv {
			return true
		}
	}
	return false
}
