package simtest

import (
	"math/rand"

	bvc "relaxedbvc"
)

// Regime selects the class of link-fault patterns GenSpec draws.
type Regime int

const (
	// RegimeNone injects no faults (Spec.Faults = nil).
	RegimeNone Regime = iota
	// RegimeWithinModel draws patterns the protocol's delivery model
	// tolerates: duplication for the lockstep-synchronous protocols;
	// bounded delays, recoverable drops, duplication and healing
	// partitions for the asynchronous ones. Runs must satisfy every
	// invariant.
	RegimeWithinModel
	// RegimeOutOfModel draws patterns that break the delivery model
	// (unrecoverable drops, unhealed partitions, synchrony violations).
	// Runs must degrade into errors wrapping ErrDeliveryViolated — never
	// hang, never emit outputs that break the invariants.
	RegimeOutOfModel
	// RegimeMixed alternates between the two by seed parity.
	RegimeMixed
)

func (r Regime) String() string {
	switch r {
	case RegimeNone:
		return "none"
	case RegimeWithinModel:
		return "within-model"
	case RegimeOutOfModel:
		return "out-of-model"
	case RegimeMixed:
		return "mixed"
	}
	return "regime(?)"
}

// FuzzConfig is the generator's recipe: with a seed it fixes the
// instance GenSpec builds.
type FuzzConfig struct {
	// BaseSeed is folded into every instance GenSpec expands.
	BaseSeed int64
	// Protocols restricts generation (empty = the default one-shot
	// roster). ProtocolACS is generated only when listed here explicitly:
	// folding it into the default roster would shift the protocol draw of
	// every historic corpus seed.
	Protocols []bvc.Protocol
	// Regime selects the fault-pattern class.
	Regime Regime
}

func (c FuzzConfig) protocols() []bvc.Protocol {
	if len(c.Protocols) > 0 {
		return c.Protocols
	}
	return []bvc.Protocol{
		bvc.ProtocolDeltaRelaxed, bvc.ProtocolExact, bvc.ProtocolKRelaxed,
		bvc.ProtocolScalar, bvc.ProtocolConvex, bvc.ProtocolIterative,
		bvc.ProtocolAsync, bvc.ProtocolK1Async,
	}
}

// isLockstep reports whether the protocol runs on the lockstep
// synchronous engine, where only duplication is within-model.
func isLockstep(p bvc.Protocol) bool {
	switch p {
	case bvc.ProtocolAsync, bvc.ProtocolK1Async:
		return false
	}
	return true
}

// GenSpec deterministically expands one seed into a complete consensus
// instance: a protocol at the paper's process-count bound, random
// inputs, a Byzantine roster and a fault pattern of the configured
// regime. The same (seed, cfg) always yields the same Spec, and because
// the fault layer is itself seed-driven, the same run.
func GenSpec(seed int64, cfg FuzzConfig) bvc.Spec {
	rng := rand.New(rand.NewSource(seed ^ cfg.BaseSeed<<1 ^ 0x5ee55ee5))
	protos := cfg.protocols()
	spec := bvc.Spec{Protocol: protos[rng.Intn(len(protos))], F: 1}

	switch spec.Protocol {
	case bvc.ProtocolScalar:
		spec.D, spec.N = 1, 4
	case bvc.ProtocolExact, bvc.ProtocolConvex:
		spec.D = 2 + rng.Intn(2)
		spec.N = maxInt(3*spec.F+1, (spec.D+1)*spec.F+1)
	case bvc.ProtocolKRelaxed:
		spec.D = 2 + rng.Intn(2)
		spec.K = 1 + rng.Intn(spec.D)
		if spec.K == 1 {
			spec.N = 3*spec.F + 1
		} else {
			spec.N = (spec.D+1)*spec.F + 1
		}
	case bvc.ProtocolDeltaRelaxed:
		spec.D = 2 + rng.Intn(2)
		spec.N = 3*spec.F + 1
		spec.NormP = []float64{1, 2, bvc.LInf}[rng.Intn(3)]
	case bvc.ProtocolIterative:
		spec.D = 2
		spec.N = (spec.D+2)*spec.F + 1
		spec.Rounds = 3 + rng.Intn(3)
	case bvc.ProtocolAsync:
		if rng.Intn(2) == 0 {
			spec.Mode = bvc.ModeExact
			spec.D = 2
			spec.N = (spec.D+2)*spec.F + 1
		} else {
			spec.Mode = bvc.ModeRelaxed
			spec.D = 3
			spec.N = 3*spec.F + 1
		}
		spec.Rounds = 4 + rng.Intn(4)
	case bvc.ProtocolK1Async:
		spec.D = 2 + rng.Intn(3)
		spec.N = 3*spec.F + 1
		spec.Rounds = 4 + rng.Intn(4)
	case bvc.ProtocolACS:
		// Streaming decisions: the default roster excludes ACS (adding it
		// would shift every existing corpus seed), so this case is reached
		// only through an explicit Protocols filter.
		spec.D = 2 + rng.Intn(2)
		spec.N = 3*spec.F + 1
		spec.NormP = []float64{1, 2, bvc.LInf}[rng.Intn(3)]
	}

	spec.Inputs = make([]bvc.Vector, spec.N)
	for i := range spec.Inputs {
		v := make([]float64, spec.D)
		for j := range v {
			v[j] = (rng.Float64() - 0.5) * 4
		}
		spec.Inputs[i] = bvc.NewVector(v...)
	}

	// Streaming instances propose a short multi-epoch matrix; epoch 0
	// reuses Inputs so the fallback path stays covered.
	if spec.Protocol == bvc.ProtocolACS {
		epochs := 1 + rng.Intn(3)
		spec.Proposals = make([][]bvc.Vector, epochs)
		spec.Proposals[0] = spec.Inputs
		for e := 1; e < epochs; e++ {
			row := make([]bvc.Vector, spec.N)
			for i := range row {
				row[i] = randVec(rng, spec.D, 2)
			}
			spec.Proposals[e] = row
		}
	}

	// Byzantine roster: most instances script one adversary (f = 1).
	if rng.Float64() < 0.75 {
		byz := rng.Intn(spec.N)
		switch spec.Protocol {
		case bvc.ProtocolAsync, bvc.ProtocolK1Async:
			spec.AsyncByzantine = map[int]*bvc.AsyncByzantine{byz: genAsyncByz(rng, spec.D)}
		case bvc.ProtocolIterative:
			lie := randVec(rng, spec.D, 5)
			spec.IterByzantine = map[int]bvc.IterByzantine{
				byz: bvc.IterByzantineFunc(func(round, to int, honest bvc.Vector) bvc.Vector { return lie }),
			}
		case bvc.ProtocolACS:
			b := bvc.ACSEquivocate
			if rng.Intn(3) == 0 {
				b = bvc.ACSMute
			}
			spec.ACSByzantine = map[int]bvc.ACSBehavior{byz: b}
		default:
			if rng.Float64() < 0.25 {
				spec.SignedBroadcast = true
				spec.SigSeed = seed
				spec.ByzantineSigned = map[int]bvc.SignedByzantineBehavior{
					byz: bvc.SignedEquivocator(map[int]bvc.Vector{
						(byz + 1) % spec.N: randVec(rng, spec.D, 3),
						(byz + 2) % spec.N: randVec(rng, spec.D, 3),
					}),
				}
			} else {
				spec.Byzantine = map[int]bvc.ByzantineBehavior{byz: genSyncByz(rng, spec.D, seed)}
			}
		}
	}

	// Asynchronous delivery order.
	if !isLockstep(spec.Protocol) && rng.Intn(2) == 0 {
		spec.Schedule = bvc.RandomSchedule(seed ^ 0x7a5c)
	}

	spec.Faults = genFaults(rng, seed, EffectiveRegime(seed, cfg.Regime), spec.Protocol, spec.N)
	return spec
}

// EffectiveRegime resolves RegimeMixed to the concrete regime GenSpec
// applies to the given seed (even seeds draw within-model patterns, odd
// seeds out-of-model ones); other regimes pass through unchanged. The
// soak engine classifies a typed degradation by the regime a seed
// actually ran under, so the parity rule lives here, next to the
// generator it describes.
func EffectiveRegime(seed int64, r Regime) Regime {
	if r != RegimeMixed {
		return r
	}
	if seed%2 == 0 {
		return RegimeWithinModel
	}
	return RegimeOutOfModel
}

func genFaults(rng *rand.Rand, seed int64, regime Regime, proto bvc.Protocol, n int) *bvc.LinkFaults {
	switch regime {
	case RegimeWithinModel:
		if isLockstep(proto) {
			// Lockstep synchrony tolerates only duplication.
			return &bvc.LinkFaults{
				Seed:        seed,
				LinkProfile: bvc.LinkProfile{DupProb: 0.2 + 0.5*rng.Float64()},
			}
		}
		lf := &bvc.LinkFaults{
			Seed: seed,
			LinkProfile: bvc.LinkProfile{
				DropProb: 0.25 * rng.Float64(),
				DupProb:  0.3 * rng.Float64(),
				DelayMax: rng.Intn(3),
			},
		}
		if rng.Float64() < 0.4 {
			start := rng.Intn(3)
			lf.Partitions = []bvc.Partition{{
				Start: start, End: start + 1 + rng.Intn(4),
				Group: []int{rng.Intn(n)},
			}}
		}
		return lf
	case RegimeOutOfModel:
		if isLockstep(proto) {
			// Any drop breaks lockstep synchrony.
			return &bvc.LinkFaults{
				Seed:        seed,
				LinkProfile: bvc.LinkProfile{DropProb: 0.5 + 0.5*rng.Float64()},
			}
		}
		if rng.Intn(2) == 0 {
			// Heavy drops with an exhausted retransmission budget.
			return &bvc.LinkFaults{
				Seed:        seed,
				LinkProfile: bvc.LinkProfile{DropProb: 0.9 + 0.1*rng.Float64()},
				MaxAttempts: 1 + rng.Intn(2),
			}
		}
		// A partition that never heals.
		return &bvc.LinkFaults{
			Seed:       seed,
			Partitions: []bvc.Partition{{Start: 0, End: -1, Group: []int{rng.Intn(n)}}},
		}
	}
	return nil
}

func genAsyncByz(rng *rand.Rand, d int) *bvc.AsyncByzantine {
	switch rng.Intn(4) {
	case 0:
		return &bvc.AsyncByzantine{Input: randVec(rng, d, 5), SilentFrom: bvc.NeverMisbehave, CorruptFrom: bvc.NeverMisbehave}
	case 1:
		return &bvc.AsyncByzantine{SilentFrom: 0, CorruptFrom: bvc.NeverMisbehave}
	case 2:
		return &bvc.AsyncByzantine{SilentFrom: 0, CorruptFrom: bvc.NeverMisbehave, MuteRBC: true}
	}
	return &bvc.AsyncByzantine{SilentFrom: bvc.NeverMisbehave, CorruptFrom: 1}
}

func genSyncByz(rng *rand.Rand, d int, seed int64) bvc.ByzantineBehavior {
	switch rng.Intn(4) {
	case 0:
		return bvc.Silent()
	case 1:
		return bvc.FixedVector(randVec(rng, d, 3))
	case 2:
		return bvc.Equivocator(randVec(rng, d, 3), randVec(rng, d, 3))
	}
	return bvc.RandomLiar(seed, d, 3)
}

func randVec(rng *rand.Rand, d int, scale float64) bvc.Vector {
	v := make([]float64, d)
	for j := range v {
		v[j] = (rng.Float64() - 0.5) * 2 * scale
	}
	return bvc.NewVector(v...)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
