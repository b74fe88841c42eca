package consensus

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"relaxedbvc/internal/broadcast"
	"relaxedbvc/internal/minimax"
	"relaxedbvc/internal/transport"
	"relaxedbvc/internal/vec"
)

func randInputs(rng *rand.Rand, n, d int, scale float64) []vec.V {
	in := make([]vec.V, n)
	for i := range in {
		in[i] = vec.New(d)
		for j := range in[i] {
			in[i][j] = rng.NormFloat64() * scale
		}
	}
	return in
}

// twoFacedVec equivocates with two fixed vectors at every relay.
type twoFacedVec struct{ a, b vec.V }

func (tf *twoFacedVec) RelayValue(instance int, path []int, to int, honest []byte) []byte {
	if to%2 == 0 {
		return broadcast.EncodeVec(tf.a)
	}
	return broadcast.EncodeVec(tf.b)
}

type silentVec struct{}

func (silentVec) RelayValue(int, []int, int, []byte) []byte { return nil }

// garbageBytes sends undecodable bytes everywhere.
type garbageBytes struct{}

func (garbageBytes) RelayValue(int, []int, int, []byte) []byte { return []byte{1, 2, 3} }

func checkSyncRun(t *testing.T, cfg *SyncConfig, res *SyncResult) {
	t.Helper()
	honest := cfg.HonestIDs()
	if err := AgreementError(res.Outputs, honest); err > 0 {
		t.Fatalf("agreement violated: max diff %v", err)
	}
	// All honest processes agreed on the same multiset.
	ref := res.AgreedSet[honest[0]]
	for _, i := range honest[1:] {
		for c := 0; c < cfg.N; c++ {
			if !res.AgreedSet[i].At(c).Equal(ref.At(c)) {
				t.Fatalf("agreed multiset differs between honest processes %d and %d", honest[0], i)
			}
		}
	}
}

func TestExactBVCAllHonest(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, c := range []struct{ n, f, d int }{{4, 1, 1}, {4, 1, 2}, {5, 1, 3}, {7, 2, 2}} {
		cfg := &SyncConfig{N: c.n, F: c.f, D: c.d, Inputs: randInputs(rng, c.n, c.d, 3)}
		res, err := RunExactBVC(context.Background(), cfg)
		if err != nil {
			t.Fatalf("n=%d f=%d d=%d: %v", c.n, c.f, c.d, err)
		}
		checkSyncRun(t, cfg, res)
		for _, i := range cfg.HonestIDs() {
			if !CheckExactValidity(res.Outputs[i], cfg.NonFaultyInputs(), 1e-6) {
				t.Fatalf("validity violated: output %v outside hull of non-faulty inputs", res.Outputs[i])
			}
		}
		if res.Rounds != c.f+1 {
			t.Errorf("rounds = %d, want %d", res.Rounds, c.f+1)
		}
	}
}

func TestExactBVCWithByzantine(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	behaviors := map[string]func() broadcast.EIGBehavior{
		"twofaced": func() broadcast.EIGBehavior {
			return &twoFacedVec{vec.Of(100, 100), vec.Of(-100, -100)}
		},
		"silent":  func() broadcast.EIGBehavior { return silentVec{} },
		"garbage": func() broadcast.EIGBehavior { return garbageBytes{} },
	}
	for name, mk := range behaviors {
		// d = 2, f = 1 => n >= max(4, 4) = 4. Use n = 4.
		cfg := &SyncConfig{
			N: 4, F: 1, D: 2,
			Inputs:    randInputs(rng, 4, 2, 3),
			Byzantine: map[int]broadcast.EIGBehavior{2: mk()},
		}
		res, err := RunExactBVC(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkSyncRun(t, cfg, res)
		for _, i := range cfg.HonestIDs() {
			if !CheckExactValidity(res.Outputs[i], cfg.NonFaultyInputs(), 1e-6) {
				t.Fatalf("%s: validity violated for process %d: %v", name, i, res.Outputs[i])
			}
		}
	}
}

func TestExactBVCBelowBoundCanFail(t *testing.T) {
	// n = d+1 = 4 with f = 1 and affinely independent inputs: Gamma(S) is
	// empty (the simplex facets don't meet) -- the run must error, not
	// return an invalid output. d=3 keeps n >= 3f+1 for broadcast.
	cfg := &SyncConfig{
		N: 4, F: 1, D: 3,
		Inputs: []vec.V{vec.Of(0, 0, 0), vec.Of(1, 0, 0), vec.Of(0, 1, 0), vec.Of(0, 0, 1)},
	}
	if _, err := RunExactBVC(context.Background(), cfg); err == nil {
		t.Fatal("ExactBVC below the (d+1)f+1 bound succeeded with empty Gamma")
	}
}

func TestKRelaxedBVC(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	// d = 3, f = 1, n = (d+1)f+1 = 5: every k should work.
	cfg := &SyncConfig{
		N: 5, F: 1, D: 3,
		Inputs:    randInputs(rng, 5, 3, 3),
		Byzantine: map[int]broadcast.EIGBehavior{4: &twoFacedVec{vec.Of(50, 50, 50), vec.Of(-50, 0, 50)}},
	}
	for k := 1; k <= 3; k++ {
		res, err := RunKRelaxedBVC(context.Background(), cfg, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		checkSyncRun(t, cfg, res)
		for _, i := range cfg.HonestIDs() {
			if !CheckKValidity(res.Outputs[i], cfg.NonFaultyInputs(), k, 1e-6) {
				t.Fatalf("k=%d: k-relaxed validity violated: %v", k, res.Outputs[i])
			}
		}
	}
	if _, err := RunKRelaxedBVC(context.Background(), cfg, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := RunKRelaxedBVC(context.Background(), cfg, 4); err == nil {
		t.Error("k>d accepted")
	}
}

func TestK1WorksAtN3f1HighDimension(t *testing.T) {
	// The Section 5.3 reduction: k = 1 needs only n >= 3f+1 even for
	// large d where (d+1)f+1 would be much bigger.
	rng := rand.New(rand.NewSource(64))
	cfg := &SyncConfig{
		N: 4, F: 1, D: 6,
		Inputs:    randInputs(rng, 4, 6, 2),
		Byzantine: map[int]broadcast.EIGBehavior{1: silentVec{}},
	}
	res, err := RunKRelaxedBVC(context.Background(), cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkSyncRun(t, cfg, res)
	for _, i := range cfg.HonestIDs() {
		if !CheckKValidity(res.Outputs[i], cfg.NonFaultyInputs(), 1, 1e-9) {
			t.Fatalf("1-relaxed validity violated: %v", res.Outputs[i])
		}
	}
}

func TestScalarConsensus(t *testing.T) {
	cfg := &SyncConfig{
		N: 4, F: 1, D: 1,
		Inputs:    []vec.V{vec.Of(1), vec.Of(2), vec.Of(3), vec.Of(100)},
		Byzantine: map[int]broadcast.EIGBehavior{3: &twoFacedVec{vec.Of(1e9), vec.Of(-1e9)}},
	}
	choose, err := ScalarChooser(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSync(context.Background(), transport.Plane{}, cfg, choose)
	if err != nil {
		t.Fatal(err)
	}
	checkSyncRun(t, cfg, res)
	out := res.Outputs[0][0]
	if out < 1 || out > 3 {
		t.Fatalf("scalar output %v outside honest range [1,3]", out)
	}
	cfgBad := &SyncConfig{N: 4, F: 1, D: 2, Inputs: randInputs(rand.New(rand.NewSource(1)), 4, 2, 1)}
	if _, err := ScalarChooser(cfgBad); err == nil {
		t.Error("scalar consensus accepted d=2")
	}
}

func TestDeltaRelaxedBVCAlgoL2(t *testing.T) {
	// Algorithm ALGO headline case: f = 1, d = 3, n = d+1 = 4 <
	// (d+1)f+1 = 5. Exact BVC is impossible here, but ALGO succeeds with
	// delta* bounded by Theorem 9.
	rng := rand.New(rand.NewSource(65))
	for trial := 0; trial < 5; trial++ {
		inputs := randInputs(rng, 4, 3, 3)
		cfg := &SyncConfig{
			N: 4, F: 1, D: 3,
			Inputs:    inputs,
			Byzantine: map[int]broadcast.EIGBehavior{1: &twoFacedVec{vec.Of(10, 0, 0), vec.Of(0, 10, 0)}},
		}
		res, err := RunDeltaRelaxedBVC(context.Background(), cfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		checkSyncRun(t, cfg, res)
		honest := cfg.HonestIDs()
		delta := res.Delta[honest[0]]
		nonFaulty := cfg.NonFaultyInputs()
		// (delta,2)-relaxed validity.
		for _, i := range honest {
			if !CheckDeltaValidity(res.Outputs[i], nonFaulty, delta, 2, 1e-6) {
				t.Fatalf("(delta,2) validity violated: delta=%v out=%v", delta, res.Outputs[i])
			}
		}
		// Theorem 9: delta* < min(minE+/2, maxE+/(n-2)).
		if bound := minimax.Theorem9Bound(nonFaulty, cfg.N); delta >= bound {
			t.Fatalf("Theorem 9 violated: delta=%v >= bound=%v", delta, bound)
		}
	}
}

func TestDeltaRelaxedBVCPolyNorms(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	inputs := randInputs(rng, 4, 3, 2)
	cfg := &SyncConfig{N: 4, F: 1, D: 3, Inputs: inputs}
	for _, p := range []float64{1, math.Inf(1)} {
		res, err := RunDeltaRelaxedBVC(context.Background(), cfg, p)
		if err != nil {
			t.Fatalf("p=%v: %v", p, err)
		}
		checkSyncRun(t, cfg, res)
		honest := cfg.HonestIDs()
		delta := res.Delta[honest[0]]
		for _, i := range honest {
			if !CheckDeltaValidity(res.Outputs[i], cfg.NonFaultyInputs(), delta, p, 1e-6) {
				t.Fatalf("p=%v: validity violated", p)
			}
		}
	}
	if _, err := RunDeltaRelaxedBVC(context.Background(), cfg, 3); err == nil {
		t.Error("unsupported p accepted")
	}
}

func TestDeltaOrderingAcrossNorms(t *testing.T) {
	// delta*_inf <= delta*_2 <= delta*_1 end-to-end through the protocol.
	rng := rand.New(rand.NewSource(67))
	inputs := randInputs(rng, 4, 3, 2)
	cfg := &SyncConfig{N: 4, F: 1, D: 3, Inputs: inputs}
	rInf, err1 := RunDeltaRelaxedBVC(context.Background(), cfg, math.Inf(1))
	r2, err2 := RunDeltaRelaxedBVC(context.Background(), cfg, 2)
	r1, err3 := RunDeltaRelaxedBVC(context.Background(), cfg, 1)
	if err1 != nil || err2 != nil || err3 != nil {
		t.Fatal(err1, err2, err3)
	}
	dInf, d2, d1 := rInf.Delta[0], r2.Delta[0], r1.Delta[0]
	if dInf > d2+1e-6 || d2 > d1+1e-6 {
		t.Fatalf("delta ordering violated: inf=%v 2=%v 1=%v", dInf, d2, d1)
	}
}

func TestConfigValidation(t *testing.T) {
	good := randInputs(rand.New(rand.NewSource(1)), 4, 2, 1)
	cases := map[string]*SyncConfig{
		"n too small":  {N: 1, F: 0, D: 2, Inputs: good[:1]},
		"too many byz": {N: 4, F: 0, D: 2, Inputs: good, Byzantine: map[int]broadcast.EIGBehavior{0: silentVec{}}},
		"f >= n":       {N: 4, F: 4, D: 2, Inputs: good},
		"wrong inputs": {N: 4, F: 1, D: 2, Inputs: good[:3]},
		"wrong dim":    {N: 4, F: 1, D: 3, Inputs: good},
	}
	for name, cfg := range cases {
		if _, err := RunExactBVC(context.Background(), cfg); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

func TestEIGTreeLimit(t *testing.T) {
	// The oral-messages Step 1 holds n(n-1)...(n-f) leaf slots per
	// process; past broadcast.MaxEIGLeafSlots the config is refused, with
	// the way out named, unless Step 1 is signed.
	inputs := func(n int) []vec.V {
		in := make([]vec.V, n)
		for i := range in {
			in[i] = vec.Of(float64(i))
		}
		return in
	}
	for _, c := range []struct {
		n, f   int
		signed bool
		ok     bool
	}{
		{23, 4, false, true}, // 4 037 880 slots
		{24, 4, false, false},
		{40, 13, false, false},
		{40, 13, true, true},
	} {
		cfg := &SyncConfig{N: c.n, F: c.f, D: 1, Inputs: inputs(c.n), SignedBroadcast: c.signed}
		err := cfg.validate()
		if c.ok != (err == nil) || (err != nil && (!errors.Is(err, ErrTooManyFaults) || !strings.Contains(err.Error(), "SignedBroadcast"))) {
			t.Errorf("n=%d f=%d signed=%v: %v", c.n, c.f, c.signed, err)
		}
	}
}

func TestDefaultVectorUsedForGarbage(t *testing.T) {
	// When the Byzantine commander's instance resolves to undecodable
	// bytes, all honest processes substitute the same default vector.
	cfg := &SyncConfig{
		N: 4, F: 1, D: 2,
		Inputs:    []vec.V{vec.Of(0, 0), vec.Of(1, 0), vec.Of(0, 1), vec.Of(1, 1)},
		Byzantine: map[int]broadcast.EIGBehavior{3: garbageBytes{}},
		Default:   vec.Of(0.5, 0.5),
	}
	res, err := RunExactBVC(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range cfg.HonestIDs() {
		if !res.AgreedSet[i].At(3).Equal(vec.Of(0.5, 0.5)) {
			t.Fatalf("default not substituted: %v", res.AgreedSet[i].At(3))
		}
	}
}

// End-to-end shape check of Theorem 1's bound: exact BVC succeeds for
// n = (d+1)f+1 on random inputs with the worst adversary we have, across
// dimensions.
func TestExactBVCAtTheBoundAcrossDimensions(t *testing.T) {
	rng := rand.New(rand.NewSource(68))
	for d := 1; d <= 4; d++ {
		f := 1
		n := (d+1)*f + 1
		if n < 3*f+1 {
			n = 3*f + 1
		}
		cfg := &SyncConfig{
			N: n, F: f, D: d,
			Inputs:    randInputs(rng, n, d, 3),
			Byzantine: map[int]broadcast.EIGBehavior{n - 1: &twoFacedVec{garbagePoint(d, 1), garbagePoint(d, 2)}},
		}
		res, err := RunExactBVC(context.Background(), cfg)
		if err != nil {
			t.Fatalf("d=%d n=%d: %v", d, n, err)
		}
		for _, i := range cfg.HonestIDs() {
			if !CheckExactValidity(res.Outputs[i], cfg.NonFaultyInputs(), 1e-6) {
				t.Fatalf("d=%d: validity violated", d)
			}
		}
	}
}

func garbagePoint(d, seed int) vec.V {
	v := vec.New(d)
	for i := range v {
		v[i] = float64((seed*7+i*13)%11) * 5
	}
	return v
}
