package consensus

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"relaxedbvc/internal/geom"
	"relaxedbvc/internal/minimax"
	"relaxedbvc/internal/sched"
	"relaxedbvc/internal/transport"
	"relaxedbvc/internal/vec"
)

func checkAsyncRun(t *testing.T, cfg *AsyncConfig, res *AsyncResult, wantEps float64) {
	t.Helper()
	honest := honestIDs(cfg.N, cfg.Byzantine)
	for _, i := range honest {
		if res.Outputs[i] == nil {
			t.Fatalf("honest process %d never decided", i)
		}
	}
	if eps := AgreementError(res.Outputs, honest); eps > wantEps {
		t.Fatalf("epsilon-agreement violated: %v > %v after %d rounds", eps, wantEps, cfg.Rounds)
	}
}

func TestAsyncExactModeAllHonest(t *testing.T) {
	// ModeExact needs n >= (d+2)f+1: d=2, f=1 => n >= 5.
	rng := rand.New(rand.NewSource(71))
	cfg := &AsyncConfig{
		N: 5, F: 1, D: 2,
		Inputs: randInputs(rng, 5, 2, 3),
		Rounds: 12,
		Mode:   ModeExact,
	}
	res, err := RunAsync(context.Background(), transport.Plane{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkAsyncRun(t, cfg, res, 1e-2)
	// Exact validity: outputs in the hull of the non-faulty inputs.
	for _, i := range honestIDs(cfg.N, cfg.Byzantine) {
		if !CheckExactValidity(res.Outputs[i], honestInputs(cfg.Inputs, cfg.Byzantine), 1e-6) {
			t.Fatalf("validity violated: %v", res.Outputs[i])
		}
	}
}

func TestAsyncExactModeWithByzantine(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for name, byz := range map[string]*AsyncByzantine{
		"lying-input": {Input: vec.Of(1e3, -1e3), SilentFrom: NeverMisbehave, CorruptFrom: NeverMisbehave},
		"silent":      {SilentFrom: 0, CorruptFrom: NeverMisbehave},
		"mute":        {SilentFrom: 0, CorruptFrom: NeverMisbehave, MuteRBC: true},
		"corrupting":  {SilentFrom: NeverMisbehave, CorruptFrom: 1},
		"late-silent": {SilentFrom: 3, CorruptFrom: NeverMisbehave},
	} {
		cfg := &AsyncConfig{
			N: 5, F: 1, D: 2,
			Inputs:    randInputs(rng, 5, 2, 3),
			Rounds:    12,
			Mode:      ModeExact,
			Byzantine: map[int]*AsyncByzantine{4: byz},
			Schedule:  &sched.RandomSchedule{Rng: rand.New(rand.NewSource(13))},
		}
		res, err := RunAsync(context.Background(), transport.Plane{}, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkAsyncRun(t, cfg, res, 5e-2)
		for _, i := range honestIDs(cfg.N, cfg.Byzantine) {
			if !CheckExactValidity(res.Outputs[i], honestInputs(cfg.Inputs, cfg.Byzantine), 1e-6) {
				t.Fatalf("%s: validity violated: %v", name, res.Outputs[i])
			}
		}
	}
}

func TestAsyncRelaxedModeBelowExactBound(t *testing.T) {
	// The paper's point: ModeRelaxed works with n = 4 < (d+2)f+1 = 5 for
	// d = 3, f = 1, at the price of (delta,2)-relaxed validity with the
	// Theorem 15 bound delta < kappa(n-f, f, d, 2) max ||e||_2.
	rng := rand.New(rand.NewSource(73))
	cfg := &AsyncConfig{
		N: 4, F: 1, D: 3,
		Inputs:    randInputs(rng, 4, 3, 2),
		Rounds:    10,
		Mode:      ModeRelaxed,
		Byzantine: map[int]*AsyncByzantine{2: {Input: vec.Of(5, -5, 5), SilentFrom: NeverMisbehave, CorruptFrom: NeverMisbehave}},
	}
	res, err := RunAsync(context.Background(), transport.Plane{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkAsyncRun(t, cfg, res, 5e-2)
	honest := honestIDs(cfg.N, cfg.Byzantine)
	nonFaulty := honestInputs(cfg.Inputs, cfg.Byzantine)
	// Outputs are convex combinations of round-1 values, each of which is
	// within its own delta of the hull of a witness subset. The final
	// output must be within maxDelta of the hull of ALL round-0 values
	// that could appear... conservatively: within maxDelta of the hull of
	// the non-faulty inputs union the Byzantine round-0 value. We check
	// the Theorem 15 headline: distance to the non-faulty hull is below
	// the kappa(n-f,...) bound with kappa from Theorem 9 at n-f inputs.
	maxDelta := 0.0
	for _, i := range honest {
		if res.Delta[i] > maxDelta {
			maxDelta = res.Delta[i]
		}
	}
	if maxDelta <= 0 {
		t.Log("delta = 0 (degenerate witness set); acceptable")
	}
	// Theorem 15-style bound with kappa(n-f, f, d, 2) = 1/(floor((n-f))-2)
	// ... we use the explicit max-edge bound over non-faulty inputs plus
	// the Byzantine value's influence: every process's round-1 value is
	// within its delta of the hull of its witnessed round-0 values.
	for _, i := range honest {
		dist, _ := geom.Dist2(res.Outputs[i], nonFaulty)
		// The output may also lean toward the Byzantine input, but stays
		// within the hull of all round-0 values fattened by maxDelta; vs
		// the non-faulty hull this is bounded by maxDelta plus the
		// Byzantine pull. Sanity bound: diameter of all inputs + maxDelta.
		all := nonFaulty.Clone()
		all.Append(vec.Of(5, -5, 5))
		if dist > all.MaxEdge(2)+maxDelta {
			t.Fatalf("output %v implausibly far from inputs (%v)", res.Outputs[i], dist)
		}
		dAll, _ := geom.Dist2(res.Outputs[i], all)
		if dAll > maxDelta+1e-6 {
			t.Fatalf("(delta,2) validity w.r.t. received values violated: %v > %v", dAll, maxDelta)
		}
	}
}

func TestAsyncRelaxedDeltaWithinTheorem15Bound(t *testing.T) {
	// All-honest relaxed run: every process's round-0 choice delta must be
	// below kappa(|X|, f, d, 2) * maxEdge(X) where X is its witness set;
	// we check against the conservative global bound using all inputs.
	rng := rand.New(rand.NewSource(74))
	for trial := 0; trial < 3; trial++ {
		cfg := &AsyncConfig{
			N: 4, F: 1, D: 3,
			Inputs: randInputs(rng, 4, 3, 2),
			Rounds: 6,
			Mode:   ModeRelaxed,
		}
		res, err := RunAsync(context.Background(), transport.Plane{}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkAsyncRun(t, cfg, res, 0.2)
		allInputs := vec.NewSet(cfg.Inputs...)
		// kappa for the simplex case (f=1, witness of size >= n-f = 3):
		// Theorem 9 bound at the witness size. Conservative check with the
		// full input set's edges.
		bound := minimax.Theorem9Bound(allInputs, cfg.N)
		for _, i := range honestIDs(cfg.N, cfg.Byzantine) {
			if res.Delta[i] > bound+1e-9 {
				// The witness may have been a strict subset (size 3 =
				// affinely independent in R^3... still a valid sub-case:
				// its own bound is maxEdge(witness)/(3-2) >= this bound).
				if res.Delta[i] > allInputs.MaxEdge(2) {
					t.Fatalf("delta %v exceeds even the diameter bound", res.Delta[i])
				}
			}
		}
	}
}

func TestAsyncEpsilonShrinksWithRounds(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	inputs := randInputs(rng, 5, 2, 5)
	prevEps := math.Inf(1)
	for _, rounds := range []int{2, 6, 12} {
		cfg := &AsyncConfig{
			N: 5, F: 1, D: 2,
			Inputs: inputs, Rounds: rounds, Mode: ModeExact,
			Byzantine: map[int]*AsyncByzantine{1: {SilentFrom: 0, CorruptFrom: NeverMisbehave}},
		}
		res, err := RunAsync(context.Background(), transport.Plane{}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		eps := AgreementError(res.Outputs, honestIDs(cfg.N, cfg.Byzantine))
		if eps > prevEps+1e-9 {
			t.Fatalf("epsilon grew with rounds: %v -> %v", prevEps, eps)
		}
		prevEps = eps
	}
	if prevEps > 1e-2 {
		t.Fatalf("12 rounds left epsilon = %v", prevEps)
	}
}

func TestAsyncSchedulesAgree(t *testing.T) {
	// The protocol must reach agreement under every schedule, including
	// the adversarial LIFO and targeted-delay schedules.
	rng := rand.New(rand.NewSource(76))
	inputs := randInputs(rng, 5, 2, 3)
	for name, sch := range map[string]sched.Schedule{
		"fifo":   sched.FIFOSchedule{},
		"lifo":   sched.LIFOSchedule{},
		"random": &sched.RandomSchedule{Rng: rand.New(rand.NewSource(3))},
		"delay0": &sched.DelayTargetSchedule{Slow: map[int]bool{0: true}},
	} {
		cfg := &AsyncConfig{
			N: 5, F: 1, D: 2, Inputs: inputs, Rounds: 10, Mode: ModeExact,
			Schedule: sch,
		}
		res, err := RunAsync(context.Background(), transport.Plane{}, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkAsyncRun(t, cfg, res, 2e-2)
		for _, i := range honestIDs(cfg.N, cfg.Byzantine) {
			if !CheckExactValidity(res.Outputs[i], honestInputs(cfg.Inputs, cfg.Byzantine), 1e-6) {
				t.Fatalf("%s: validity violated", name)
			}
		}
	}
}

func TestAsyncValidation(t *testing.T) {
	base := func() *AsyncConfig {
		return &AsyncConfig{N: 4, F: 1, D: 2, Inputs: randInputs(rand.New(rand.NewSource(1)), 4, 2, 1), Rounds: 3}
	}
	c1 := base()
	c1.N = 1
	c1.Inputs = c1.Inputs[:1]
	c2 := base()
	c2.Rounds = 0
	c3 := base()
	c3.F = 0
	c3.Byzantine = map[int]*AsyncByzantine{0: {}}
	c4 := base()
	c4.N = 4
	c4.F = 2 // n < 3f+1
	c5 := base()
	c5.Inputs = c5.Inputs[:3]
	for name, cfg := range map[string]*AsyncConfig{
		"tiny n": c1, "zero rounds": c2, "too many byz": c3, "rbc bound": c4, "inputs": c5,
	} {
		if _, err := RunAsync(context.Background(), transport.Plane{}, cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestAsyncValidationWireBounds: the rva wire writes rounds, witness
// lengths and witness ids as uint16, so a run that would send round
// 65 536 (as round 0) or address process 65 535 is refused up front.
func TestAsyncValidationWireBounds(t *testing.T) {
	inputs := func(n int) []vec.V {
		in := make([]vec.V, n)
		for i := range in {
			in[i] = vec.New(2)
		}
		return in
	}
	for _, tc := range []struct {
		name      string
		n, rounds int
		want      error
	}{
		{"last wire round", 4, 65536, nil},
		{"round past the wire", 4, 65537, ErrBadRounds},
		{"largest wire n", 65535, 3, nil},
		{"n past the wire", 65536, 3, ErrBadInputs},
	} {
		cfg := &AsyncConfig{N: tc.n, F: 1, D: 2, Inputs: inputs(tc.n), Rounds: tc.rounds}
		if err := validateAsync(cfg); !errors.Is(err, tc.want) {
			t.Errorf("%s: validateAsync = %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestAsyncSingleRoundDecidesInput(t *testing.T) {
	// Rounds = 1: processes decide the round-1 choice straight from the
	// collected inputs; still well-defined, agreement not guaranteed to be
	// tight but validity holds.
	rng := rand.New(rand.NewSource(77))
	cfg := &AsyncConfig{
		N: 5, F: 1, D: 2, Inputs: randInputs(rng, 5, 2, 2), Rounds: 1, Mode: ModeExact,
	}
	res, err := RunAsync(context.Background(), transport.Plane{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range honestIDs(cfg.N, cfg.Byzantine) {
		if res.Outputs[i] == nil {
			t.Fatalf("process %d did not decide", i)
		}
		if !CheckExactValidity(res.Outputs[i], honestInputs(cfg.Inputs, cfg.Byzantine), 1e-6) {
			t.Fatalf("validity violated")
		}
	}
}

func TestAsyncRelaxedGeneralNorms(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	inputs := randInputs(rng, 4, 3, 2)
	for _, p := range []float64{1, 2, math.Inf(1)} {
		cfg := &AsyncConfig{
			N: 4, F: 1, D: 3, Inputs: inputs, Rounds: 8,
			Mode: ModeRelaxed, NormP: p,
			Byzantine: map[int]*AsyncByzantine{3: {Input: vec.Of(8, -8, 8), SilentFrom: NeverMisbehave, CorruptFrom: NeverMisbehave}},
		}
		res, err := RunAsync(context.Background(), transport.Plane{}, cfg)
		if err != nil {
			t.Fatalf("p=%v: %v", p, err)
		}
		checkAsyncRun(t, cfg, res, 0.1)
		// Validity in the chosen norm against all round-0 values.
		all := honestInputs(cfg.Inputs, cfg.Byzantine)
		all.Append(vec.Of(8, -8, 8))
		maxDelta := 0.0
		for _, i := range honestIDs(cfg.N, cfg.Byzantine) {
			if res.Delta[i] > maxDelta {
				maxDelta = res.Delta[i]
			}
		}
		for _, i := range honestIDs(cfg.N, cfg.Byzantine) {
			dist, _ := geom.DistP(res.Outputs[i], all, p)
			if dist > maxDelta+1e-6 {
				t.Fatalf("p=%v: output %v at distance %v > delta %v", p, res.Outputs[i], dist, maxDelta)
			}
		}
	}
}

func TestAsyncRejectsBadNorm(t *testing.T) {
	cfg := &AsyncConfig{
		N: 4, F: 1, D: 2, Inputs: randInputs(rand.New(rand.NewSource(1)), 4, 2, 1),
		Rounds: 2, Mode: ModeRelaxed, NormP: 3,
	}
	if _, err := RunAsync(context.Background(), transport.Plane{}, cfg); err == nil {
		t.Fatal("NormP=3 accepted")
	}
}

func TestAsyncRoundSpreadTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	cfg := &AsyncConfig{
		N: 5, F: 1, D: 2,
		Inputs: randInputs(rng, 5, 2, 4),
		Rounds: 10, Mode: ModeExact,
		Byzantine: map[int]*AsyncByzantine{4: {Input: vec.Of(50, -50), SilentFrom: NeverMisbehave, CorruptFrom: NeverMisbehave}},
	}
	res, err := RunAsync(context.Background(), transport.Plane{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := res.RoundSpread
	if len(tr) != cfg.Rounds {
		t.Fatalf("trace length = %d, want %d", len(tr), cfg.Rounds)
	}
	if tr[0] <= 0 {
		t.Fatalf("round-0 spread = %v", tr[0])
	}
	// From round 1 onward the spread must be (weakly) contracting: each
	// round-r value is a convex combination of round-(r-1) values.
	for r := 2; r < len(tr); r++ {
		if tr[r] > tr[r-1]*(1+1e-9)+1e-12 {
			t.Fatalf("spread grew at round %d: %v", r, tr)
		}
	}
	if tr[len(tr)-1] > 0.05*tr[1] && tr[1] > 1e-9 {
		t.Fatalf("spread did not contract: %v", tr)
	}
}

func TestK1AsyncHighDimensionAtN3f1(t *testing.T) {
	// The Section 5.3 async reduction: n = 3f+1 = 4 suffices for
	// 1-relaxed approximate BVC at any dimension (here d = 5, where full
	// vector consensus would need n = 8).
	rng := rand.New(rand.NewSource(80))
	cfg := &AsyncConfig{
		N: 4, F: 1, D: 5,
		Inputs: randInputs(rng, 4, 5, 3),
		Rounds: 10,
		Byzantine: map[int]*AsyncByzantine{
			3: {Input: vec.Of(40, -40, 40, -40, 40), SilentFrom: NeverMisbehave, CorruptFrom: NeverMisbehave},
		},
	}
	res, err := RunK1Async(context.Background(), transport.Plane{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	honest := honestIDs(cfg.N, cfg.Byzantine)
	if eps := AgreementError(res.Outputs, honest); eps > 0.05 {
		t.Fatalf("epsilon = %v", eps)
	}
	// 1-relaxed validity: per coordinate, inside the honest interval.
	for _, i := range honest {
		if !CheckKValidity(res.Outputs[i], honestInputs(cfg.Inputs, cfg.Byzantine), 1, 1e-6) {
			t.Fatalf("1-relaxed validity violated: %v", res.Outputs[i])
		}
	}
}

func TestK1AsyncSilentByzantine(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	cfg := &AsyncConfig{
		N: 4, F: 1, D: 3,
		Inputs:    randInputs(rng, 4, 3, 2),
		Rounds:    8,
		Byzantine: map[int]*AsyncByzantine{0: {SilentFrom: 0, CorruptFrom: NeverMisbehave}},
	}
	res, err := RunK1Async(context.Background(), transport.Plane{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range honestIDs(cfg.N, cfg.Byzantine) {
		if res.Outputs[i] == nil {
			t.Fatalf("process %d never decided", i)
		}
		if !CheckKValidity(res.Outputs[i], honestInputs(cfg.Inputs, cfg.Byzantine), 1, 1e-6) {
			t.Fatal("1-relaxed validity violated")
		}
	}
}
