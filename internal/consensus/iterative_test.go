package consensus

import (
	"context"

	"math/rand"
	"testing"

	"relaxedbvc/internal/transport"
	"relaxedbvc/internal/vec"
)

func iterLiar(rng *rand.Rand, d int, scale float64) IterByzantine {
	return IterByzantineFunc(func(round, to int, honest vec.V) vec.V {
		v := vec.New(d)
		for i := range v {
			v[i] = rng.NormFloat64() * scale
		}
		return v
	})
}

func TestIterativeConvergesAllHonest(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	// n >= (d+2)f+1: d=2, f=1 -> n=5.
	cfg := &IterConfig{
		N: 5, F: 1, D: 2,
		Inputs: randInputs(rng, 5, 2, 5),
		Rounds: 15,
	}
	res, err := RunIterativeBVC(context.Background(), transport.Plane{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	initial := res.RangeHistory[0]
	final := res.RangeHistory[len(res.RangeHistory)-1]
	if final > initial*1e-3 {
		t.Fatalf("range %v -> %v: insufficient contraction", initial, final)
	}
	// Validity: every estimate stays in the hull of the initial honest
	// inputs (safe points never leave it).
	nonFaulty := vec.NewSet(cfg.Inputs...)
	for i := 0; i < cfg.N; i++ {
		if !CheckExactValidity(res.Outputs[i], nonFaulty, 1e-6) {
			t.Fatalf("estimate %v escaped the input hull", res.Outputs[i])
		}
	}
}

func TestIterativeConvergesUnderAttack(t *testing.T) {
	rng := rand.New(rand.NewSource(112))
	for name, mk := range map[string]func() IterByzantine{
		"random-liar": func() IterByzantine { return iterLiar(rand.New(rand.NewSource(9)), 2, 50) },
		"silent": func() IterByzantine {
			return IterByzantineFunc(func(int, int, vec.V) vec.V { return nil })
		},
		"fixed-far": func() IterByzantine {
			far := vec.Of(1e3, -1e3)
			return IterByzantineFunc(func(int, int, vec.V) vec.V { return far })
		},
		"two-faced": func() IterByzantine {
			return IterByzantineFunc(func(_, to int, _ vec.V) vec.V {
				if to%2 == 0 {
					return vec.Of(100, 100)
				}
				return vec.Of(-100, -100)
			})
		},
	} {
		cfg := &IterConfig{
			N: 5, F: 1, D: 2,
			Inputs:    randInputs(rng, 5, 2, 5),
			Rounds:    18,
			Byzantine: map[int]IterByzantine{4: mk()},
		}
		res, err := RunIterativeBVC(context.Background(), transport.Plane{}, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		h := res.RangeHistory
		if h[len(h)-1] > h[0]*1e-2 {
			t.Fatalf("%s: range %v -> %v", name, h[0], h[len(h)-1])
		}
		// Honest estimates remain in the initial honest hull every run.
		honestInputs := vec.NewSet(cfg.Inputs[:4]...)
		for i := 0; i < 4; i++ {
			if !CheckExactValidity(res.Outputs[i], honestInputs, 1e-6) {
				t.Fatalf("%s: estimate %v escaped honest hull", name, res.Outputs[i])
			}
		}
	}
}

func TestIterativeRangeMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	cfg := &IterConfig{
		N: 6, F: 1, D: 3,
		Inputs:    randInputs(rng, 6, 3, 3),
		Rounds:    10,
		Byzantine: map[int]IterByzantine{5: iterLiar(rand.New(rand.NewSource(3)), 3, 30)},
	}
	res, err := RunIterativeBVC(context.Background(), transport.Plane{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.RangeHistory); i++ {
		if res.RangeHistory[i] > res.RangeHistory[i-1]+1e-9 {
			t.Fatalf("range grew at round %d: %v", i, res.RangeHistory)
		}
	}
	if len(res.RangeHistory) != cfg.Rounds+1 {
		t.Fatalf("history length %d, want %d", len(res.RangeHistory), cfg.Rounds+1)
	}
}

func TestIterativeValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(114))
	good := randInputs(rng, 5, 2, 1)
	bad := []*IterConfig{
		{N: 1, F: 0, D: 2, Inputs: good[:1], Rounds: 1},
		{N: 5, F: 0, D: 2, Inputs: good, Rounds: 1, Byzantine: map[int]IterByzantine{0: iterLiar(rng, 2, 1)}},
		{N: 5, F: 1, D: 2, Inputs: good, Rounds: 0},
		{N: 5, F: 1, D: 3, Inputs: good, Rounds: 1},
	}
	for i, cfg := range bad {
		if _, err := RunIterativeBVC(context.Background(), transport.Plane{}, cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestIterativeInstantConvergenceWithoutEquivocation(t *testing.T) {
	// Without a two-faced adversary every honest process receives the
	// same multiset and computes the same safe point: the range collapses
	// to ~0 after a single round.
	rng := rand.New(rand.NewSource(115))
	cfg := &IterConfig{
		N: 5, F: 1, D: 2,
		Inputs: randInputs(rng, 5, 2, 5),
		Rounds: 3,
	}
	res, err := RunIterativeBVC(context.Background(), transport.Plane{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.RangeHistory[1] > 1e-9 {
		t.Fatalf("range after one honest round = %v", res.RangeHistory[1])
	}
}

func TestIterativeGeometricDecayUnderEquivocation(t *testing.T) {
	// A two-faced adversary keeps honest views distinct, so convergence
	// is gradual; the range must still decay geometrically (ratio < 0.95
	// in most rounds until numerically converged).
	rng := rand.New(rand.NewSource(116))
	cfg := &IterConfig{
		N: 5, F: 1, D: 2,
		Inputs: randInputs(rng, 5, 2, 5),
		Rounds: 12,
		Byzantine: map[int]IterByzantine{4: IterByzantineFunc(func(round, to int, _ vec.V) vec.V {
			// Different lie per recipient per round.
			v := vec.New(2)
			v[0] = float64((to*7+round*13)%11) - 5
			v[1] = float64((to*3+round*5)%7) - 3
			return v.Scale(10)
		})},
	}
	res, err := RunIterativeBVC(context.Background(), transport.Plane{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := res.RangeHistory
	decayOrConverged := 0
	for i := 1; i < len(h); i++ {
		if h[i] < 1e-9 || h[i]/h[i-1] < 0.95 {
			decayOrConverged++
		}
	}
	if decayOrConverged < (len(h)-1)*2/3 {
		t.Fatalf("insufficient decay: history %v", h)
	}
	if h[len(h)-1] > h[0]*0.05 {
		t.Fatalf("range %v -> %v after %d rounds", h[0], h[len(h)-1], cfg.Rounds)
	}
}

// Regression for the ill-conditioned "sliver" regime: a Byzantine value
// orders of magnitude away from a tight honest cluster makes the
// Gamma subset hulls nearly degenerate. The safe-point computation must
// keep the contraction property down to a small numerical floor (the
// minimax polish's accuracy along the sliver), and never blow up.
func TestIterativeSliverRegimeRegression(t *testing.T) {
	inputs := []vec.V{
		vec.Of(1.0, 1.0), vec.Of(3.0, 1.2), vec.Of(2.8, 3.1), vec.Of(1.1, 2.9), vec.Of(0, 0),
	}
	cfg := &IterConfig{
		N: 5, F: 1, D: 2, Inputs: inputs, Rounds: 10,
		Byzantine: map[int]IterByzantine{
			4: IterByzantineFunc(func(round, to int, _ vec.V) vec.V {
				return vec.Of(float64((to*13+round*7)%9)*30-120, float64((to*5+round*11)%9)*30-120)
			}),
		},
	}
	res, err := RunIterativeBVC(context.Background(), transport.Plane{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := res.RangeHistory
	initial := h[0]
	const noiseFloor = 1e-4 // conservative bound on the solver floor here
	for i := 1; i < len(h); i++ {
		// Above the noise floor the range must not grow; at the floor,
		// only sub-floor jitter is tolerated.
		if h[i-1] > noiseFloor && h[i] > h[i-1]*(1+1e-6) {
			t.Fatalf("range grew above the noise floor at round %d: %v -> %v (history %v)", i, h[i-1], h[i], h)
		}
		if h[i] > noiseFloor && h[i] > initial {
			t.Fatalf("range exceeded initial spread at round %d: %v", i, h[i])
		}
	}
	if final := h[len(h)-1]; final > noiseFloor {
		t.Fatalf("failed to reach the noise floor: final range %v (history %v)", final, h)
	}
	// Validity within a noise-floor band of the honest hull.
	honestInputs := vec.NewSet(inputs[:4]...)
	for i := 0; i < 4; i++ {
		if !CheckExactValidity(res.Outputs[i], honestInputs, noiseFloor) {
			t.Fatalf("estimate %v left the honest hull beyond the noise band", res.Outputs[i])
		}
	}
}
