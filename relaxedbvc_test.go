package relaxedbvc

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

// The root package is a facade; these tests pin the re-exported API
// end-to-end the way a downstream user would exercise it.

func TestFacadeSyncALGO(t *testing.T) {
	// f = 1, d = 3, n = d+1: below the exact bound, ALGO succeeds.
	inputs := []Vector{
		NewVector(0, 0, 0),
		NewVector(1, 0.2, 0),
		NewVector(0, 1, 0.3),
		NewVector(0.1, 0, 1),
	}
	cfg := Spec{
		Protocol: ProtocolDeltaRelaxed, NormP: 2,
		N: 4, F: 1, D: 3,
		Inputs:    inputs,
		Byzantine: map[int]ByzantineBehavior{3: Equivocator(NewVector(9, 9, 9), NewVector(-9, -9, -9))},
	}
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	honest := cfg.HonestIDs()
	if AgreementError(res.Outputs, honest) != 0 {
		t.Fatal("agreement violated")
	}
	delta := res.Delta[honest[0]]
	nf := cfg.NonFaultyInputs()
	for _, i := range honest {
		if !CheckDeltaValidity(res.Outputs[i], nf, delta, 2, 1e-6) {
			t.Fatal("delta validity violated")
		}
	}
	if bound := Theorem9Bound(nf, 4); delta >= bound {
		t.Fatalf("Theorem 9 violated: %v >= %v", delta, bound)
	}
}

func TestFacadeExactAndKRelaxed(t *testing.T) {
	inputs := []Vector{
		NewVector(0, 0), NewVector(1, 0), NewVector(0, 1), NewVector(1, 1), NewVector(0.5, 0.5),
	}
	cfg := Spec{Protocol: ProtocolExact, N: 5, F: 1, D: 2, Inputs: inputs, Byzantine: map[int]ByzantineBehavior{4: Silent()}}
	if res, err := Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	} else if !CheckExactValidity(res.Outputs[0], cfg.NonFaultyInputs(), 1e-6) {
		t.Fatal("exact validity violated")
	}
	cfg.Protocol, cfg.K = ProtocolKRelaxed, 1
	if res, err := Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	} else if !CheckKValidity(res.Outputs[0], cfg.NonFaultyInputs(), 1, 1e-6) {
		t.Fatal("1-relaxed validity violated")
	}
	if _, err := Run(context.Background(), Spec{
		Protocol: ProtocolScalar, N: 4, F: 1, D: 1,
		Inputs: []Vector{NewVector(1), NewVector(2), NewVector(3), NewVector(4)},
	}); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeAsync(t *testing.T) {
	cfg := Spec{
		Protocol: ProtocolAsync, N: 4, F: 1, D: 3,
		Inputs: []Vector{
			NewVector(0, 0, 0), NewVector(1, 0, 0), NewVector(0, 1, 0), NewVector(0, 0, 1),
		},
		Rounds: 8,
		Mode:   ModeRelaxed,
		AsyncByzantine: map[int]*AsyncByzantine{
			3: {Input: NewVector(2, 2, 2), SilentFrom: NeverMisbehave, CorruptFrom: NeverMisbehave},
		},
	}
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if eps := AgreementError(res.Outputs, cfg.HonestIDs()); eps > 0.1 {
		t.Fatalf("epsilon = %v", eps)
	}
}

func TestFacadeGeometry(t *testing.T) {
	s := NewPointSet(NewVector(0, 0), NewVector(1, 0), NewVector(0, 1))
	if !InHull(NewVector(0.2, 0.2), s) || InHull(NewVector(1, 1), s) {
		t.Fatal("InHull wrong")
	}
	if !InRelaxedHull(NewVector(1, 1), s, 0.8, 2) {
		t.Fatal("InRelaxedHull wrong")
	}
	if !InKRelaxedHull(NewVector(1, 1), NewPointSet(NewVector(0, 1), NewVector(1, 0)), 1) {
		t.Fatal("InKRelaxedHull wrong")
	}
	d, nearest := DistToHull(NewVector(1, 1), s, 2)
	if math.Abs(d-math.Sqrt2/2) > 1e-7 || !InHull(nearest, s) {
		t.Fatalf("DistToHull = %v, %v", d, nearest)
	}
	if _, ok := GammaPoint(s, 1); ok {
		t.Fatal("Gamma of a triangle with f=1 should be empty")
	}
	dstar, pt, err := ComputeDeltaStar(s, 1, 2)
	if err != nil || dstar <= 0 || pt.Dim() != 2 {
		t.Fatalf("ComputeDeltaStar = %v, %v, %v", dstar, pt, err)
	}
	// delta* of a triangle with f=1 is its inradius.
	want := (2 - math.Sqrt2) / 2 // inradius of right isoceles with legs 1
	if math.Abs(dstar-want) > 1e-9 {
		t.Fatalf("delta* = %v, want %v", dstar, want)
	}
	if _, _, ok := TverbergPartition(NewPointSet(NewVector(0, 0), NewVector(2, 0), NewVector(0, 2), NewVector(0.5, 0.5)), 1); !ok {
		t.Fatal("Radon partition not found")
	}
}

func TestFacadeBounds(t *testing.T) {
	s := NewPointSet(NewVector(0, 0, 0), NewVector(3, 0, 0), NewVector(0, 4, 0))
	if got := Theorem9Bound(s, 4); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("Theorem9Bound = %v", got)
	}
	if got := Theorem12Bound(s, 3); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("Theorem12Bound = %v", got)
	}
	if got := Conjecture1Bound(s, 7, 2); math.Abs(got-5) > 1e-12 {
		t.Errorf("Conjecture1Bound = %v", got)
	}
	if got := HolderScale(4, LInf); math.Abs(got-2) > 1e-12 {
		t.Errorf("HolderScale = %v", got)
	}
}

func TestFacadeDeltaStarRejectsBadP(t *testing.T) {
	if _, _, err := ComputeDeltaStar(NewPointSet(NewVector(0), NewVector(1)), 1, 0.5); !errors.Is(err, ErrBadNorm) {
		t.Fatalf("err = %v, want ErrBadNorm", err)
	}
}

func TestFacadeDeltaStarGeneralP(t *testing.T) {
	s := NewPointSet(NewVector(0, 0), NewVector(1, 0), NewVector(0, 1))
	d2, _, _ := ComputeDeltaStar(s, 1, 2)
	d3, _, _ := ComputeDeltaStar(s, 1, 3)
	dInf, _, err := ComputeDeltaStar(s, 1, LInf)
	if err != nil {
		t.Fatal(err)
	}
	// Monotone in p: delta*_inf <= delta*_3 <= delta*_2 (solver tolerance).
	if dInf > d3+5e-3 || d3 > d2+5e-3 {
		t.Fatalf("delta* ordering violated: inf=%v 3=%v 2=%v", dInf, d3, d2)
	}
}

func TestFacadeByzantineConstructors(t *testing.T) {
	for name, b := range map[string]ByzantineBehavior{
		"silent":   Silent(),
		"fixed":    FixedVector(NewVector(1)),
		"perrecip": PerRecipient(map[int]Vector{0: NewVector(1)}),
		"random":   RandomLiar(1, 2, 1),
	} {
		if b == nil {
			t.Errorf("%s is nil", name)
		}
	}
}

func TestFacadeSignedBroadcastAndSchedules(t *testing.T) {
	// Footnote-3 configuration through the public API, with a trace.
	rec := NewTraceRecorder(0)
	cfg := Spec{
		Protocol: ProtocolDeltaRelaxed, NormP: 2,
		N: 3, F: 1, D: 2,
		Inputs:          []Vector{NewVector(1, 1), NewVector(1, 1), NewVector(0, 0)},
		SignedBroadcast: true,
		ByzantineSigned: map[int]SignedByzantineBehavior{
			2: SignedEquivocator(map[int]Vector{0: NewVector(1, 1), 1: NewVector(0, 0)}),
		},
		Trace: rec.Hook(),
	}
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if AgreementError(res.Outputs, cfg.HonestIDs()) != 0 {
		t.Fatal("signed broadcast failed to give agreement at n=3")
	}
	if rec.Total() == 0 || rec.Total() != res.Messages {
		t.Fatalf("trace total %d vs messages %d", rec.Total(), res.Messages)
	}
	// Schedules construct and run.
	for _, sch := range []Schedule{FIFOSchedule(), LIFOSchedule(), RandomSchedule(3), StarveSchedule(0)} {
		acfg := Spec{
			Protocol: ProtocolAsync, N: 4, F: 1, D: 2,
			Inputs:   []Vector{NewVector(0, 0), NewVector(1, 0), NewVector(0, 1), NewVector(1, 1)},
			Rounds:   4,
			Mode:     ModeRelaxed,
			Schedule: sch,
		}
		if _, err := Run(context.Background(), acfg); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFacadeIterativeAndK1Async(t *testing.T) {
	icfg := Spec{
		Protocol: ProtocolIterative, N: 5, F: 1, D: 2,
		Inputs: []Vector{NewVector(0, 0), NewVector(1, 0), NewVector(0, 1), NewVector(1, 1), NewVector(2, 2)},
		Rounds: 6,
		IterByzantine: map[int]IterByzantine{4: IterByzantineFunc(func(round, to int, _ Vector) Vector {
			return NewVector(float64(round*to), -5)
		})},
	}
	ires, err := Run(context.Background(), icfg)
	if err != nil {
		t.Fatal(err)
	}
	if h := ires.RangeHistory; h[len(h)-1] > h[0]*0.1 {
		t.Fatalf("no contraction: %v", h)
	}
	k1 := Spec{
		Protocol: ProtocolK1Async, N: 4, F: 1, D: 4,
		Inputs: []Vector{
			NewVector(0, 0, 0, 0), NewVector(1, 0, 1, 0), NewVector(0, 1, 0, 1), NewVector(1, 1, 1, 1),
		},
		Rounds: 6,
	}
	kres, err := Run(context.Background(), k1)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range k1.HonestIDs() {
		if !CheckKValidity(kres.Outputs[i], k1.NonFaultyInputs(), 1, 1e-6) {
			t.Fatal("k=1 validity violated")
		}
	}
}

func TestRunRefusesUnboundedEIGTree(t *testing.T) {
	// n=40 f=13 meets n >= 3f+1, but its oral-messages Step 1 needs
	// 40·39·…·27 ≈ 2e21 EIG leaf slots per process: the relay rounds ran
	// the machine out of memory. Run refuses it before building one.
	spec := Spec{Protocol: ProtocolScalar, N: 40, F: 13, D: 1, Inputs: make([]Vector, 40)}
	for i := range spec.Inputs {
		spec.Inputs[i] = NewVector(float64(i))
	}
	start := time.Now()
	_, err := Run(context.Background(), spec)
	if !errors.Is(err, ErrTooManyFaults) || !strings.Contains(err.Error(), "SignedBroadcast") {
		t.Fatalf("err = %v, want ErrTooManyFaults naming SignedBroadcast", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("refusal took %v", took)
	}
}

// TestZeroFaultNormRefused: with f = 0 the delta*_2 kernel has no point
// to drop, and Run used to panic in it ("minimax: DeltaStarP requires
// 1 <= f < |S|"). p = 2 now fails typed for both protocols that reach
// the kernel; p = 1 and +Inf, whose exact LPs decide f = 0, still run.
func TestZeroFaultNormRefused(t *testing.T) {
	inputs := []Vector{NewVector(0, 0), NewVector(1, 0), NewVector(0, 1), NewVector(1, 1)}
	for _, proto := range []Protocol{ProtocolDeltaRelaxed, ProtocolAsync} {
		for _, p := range []float64{2, 1, math.Inf(1)} {
			spec := Spec{Protocol: proto, N: 4, F: 0, D: 2, NormP: p, Rounds: 3, Inputs: inputs}
			t.Run(fmt.Sprintf("%s/p=%v", proto, p), func(t *testing.T) {
				var err error
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("Run panicked: %v", r)
						}
					}()
					_, err = Run(context.Background(), spec)
				}()
				switch {
				case p == 2 && !errors.Is(err, ErrTooManyFaults):
					t.Fatalf("err = %v, want ErrTooManyFaults", err)
				case p != 2 && err != nil:
					t.Fatalf("f = 0 at p = %v: %v", p, err)
				}
			})
		}
	}
}

// TestHonestIDsReadsTheProtocolsRoster: a process is honest unless the
// roster its Spec's protocol reads scripts it; an entry in a roster the
// run ignores must not drop that process's input from NonFaultyInputs,
// and a spec without Inputs has no non-faulty inputs rather than a
// panic.
func TestHonestIDsReadsTheProtocolsRoster(t *testing.T) {
	inputs := []Vector{NewVector(0, 0), NewVector(1, 0), NewVector(0, 1), NewVector(1, 1)}
	oral := map[int]ByzantineBehavior{3: Silent()}
	signed := map[int]SignedByzantineBehavior{1: SignedEquivocator(map[int]Vector{0: NewVector(1, 1)})}
	iter := map[int]IterByzantine{0: IterByzantineFunc(func(_, _ int, v Vector) Vector { return v })}
	async := map[int]*AsyncByzantine{2: {Input: NewVector(5, 5)}}
	acs := map[int]ACSBehavior{2: ACSMute}
	for _, c := range []struct {
		name string
		spec Spec
		want []int
	}{
		{"acs ignores oral", Spec{Protocol: ProtocolACS, Byzantine: oral, ACSByzantine: acs}, []int{0, 1, 3}},
		{"oral ignores signed", Spec{Protocol: ProtocolExact, Byzantine: oral, ByzantineSigned: signed}, []int{0, 1, 2}},
		{"signed ignores oral", Spec{Protocol: ProtocolDeltaRelaxed, SignedBroadcast: true, Byzantine: oral, ByzantineSigned: signed}, []int{0, 2, 3}},
		{"convex reads oral", Spec{Protocol: ProtocolConvex, Byzantine: oral, ACSByzantine: acs}, []int{0, 1, 2}},
		{"iterative", Spec{Protocol: ProtocolIterative, IterByzantine: iter, AsyncByzantine: async}, []int{1, 2, 3}},
		{"k1-async", Spec{Protocol: ProtocolK1Async, IterByzantine: iter, AsyncByzantine: async}, []int{0, 1, 3}},
	} {
		c.spec.N, c.spec.F, c.spec.D, c.spec.Inputs = 4, 1, 2, inputs
		if got := c.spec.HonestIDs(); fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("%s: HonestIDs = %v, want %v", c.name, got, c.want)
		}
		if got := c.spec.NonFaultyInputs().Len(); got != len(c.want) {
			t.Errorf("%s: NonFaultyInputs has %d points, want %d", c.name, got, len(c.want))
		}
	}
	// An ACS spec that proposes only through Proposals has no Inputs.
	spec := Spec{Protocol: ProtocolACS, N: 4, F: 1, D: 2, Proposals: [][]Vector{inputs}}
	if got := spec.NonFaultyInputs().Len(); got != 0 {
		t.Errorf("ACS spec without Inputs: NonFaultyInputs has %d points, want 0", got)
	}
}
