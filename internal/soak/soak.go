// Package soak is the deterministic soak engine: a seeded sweep that
// drives large numbers of simtest.GenSpec seeds through the batch engine
// and checks every run against the paper's invariant oracle.
//
// The design leans entirely on the determinism the lower layers already
// guarantee — GenSpec expands a (seed, config) pair into a complete
// consensus instance, the fault substrate derives every link decision
// from the seed, and the batch engine returns results in input order —
// so the coordinator only has to be deterministic about *which* seeds it
// schedules. It is, by construction:
//
//   - Work is cut into fixed-size blocks (one generation config + a seed
//     list): first the corpus replay, then base seeds 0, 1, 2, … until
//     the budget or the deadline is spent. Blocks run one at a time, in
//     block order, each on the batch engine with Options.Shards
//     workers, and corpus writes and the summary derive from committed
//     blocks only. Two runs of the same configuration therefore plan,
//     execute and summarize the exact same seed set.
//   - Corpus: failing seeds (shrunk to the first failing seed of their
//     block and replay-confirmed) are persisted as stable-JSON,
//     content-addressed files next to the fixed regression seeds.
//     Future soaks replay the corpus first, and `bvcsoak
//     -replay-corpus` turns it into a regression suite for CI.
package soak

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	bvc "relaxedbvc"
	"relaxedbvc/internal/simtest"
)

// Typed error sentinels. ErrSoak is the root: every error minted by
// this package wraps it, so errors.Is(err, ErrSoak) matches any
// soak-engine failure.
var (
	// ErrSoak is the root sentinel of all soak-engine failures.
	ErrSoak = errors.New("soak: engine failure")
	// ErrCorpus: a corpus entry could not be read or written.
	ErrCorpus = fmt.Errorf("%w: corpus failure", ErrSoak)
	// ErrConfig: the soak options are invalid.
	ErrConfig = fmt.Errorf("%w: bad configuration", ErrSoak)
	// ErrInterrupted: the soak was canceled before the budget was spent.
	ErrInterrupted = fmt.Errorf("%w: soak interrupted", ErrSoak)
	// ErrReplayDiverged: a corpus replay produced a different outcome or
	// signature than the entry records — the deterministic-replay
	// contract broke, or the behavior behind a known-bad seed changed.
	ErrReplayDiverged = fmt.Errorf("%w: corpus replay diverged", ErrSoak)
)

// Transport names accepted by JobConfig.Transport.
const (
	// TransportSim runs every seed on the deterministic simulation
	// backend only.
	TransportSim = "sim"
	// TransportMesh additionally runs every passing seed over the
	// in-process channel mesh (unless Run refuses the spec there with
	// ErrUnsupportedTransport) and fails the seed if the mesh decisions
	// diverge from the simulation's.
	TransportMesh = "mesh"
)

// JobConfig is the deterministic generation recipe shared by every seed
// of a block: together with a seed it fully determines the instance
// (via simtest.GenSpec) and its verdict. Corpus entries persist it next
// to the seed, which is what makes them replayable forever.
type JobConfig struct {
	// BaseSeed is simtest.FuzzConfig.BaseSeed (folded into GenSpec's
	// expansion, not an offset of the seed list).
	BaseSeed int64 `json:"base_seed"`
	// Regime is the fault-pattern class: "none", "within-model",
	// "out-of-model" or "mixed".
	Regime string `json:"regime"`
	// Protocols restricts generation (empty = all eight protocols).
	Protocols []string `json:"protocols,omitempty"`
	// Strict shrinks degrading seeds like failing ones, so out-of-model
	// soaks surface their minimal degrading seeds.
	Strict bool `json:"strict,omitempty"`
	// Transport is TransportSim or TransportMesh.
	Transport string `json:"transport"`
}

// Key returns a deterministic grouping key: blocks may only hold seeds
// sharing one JobConfig, and the corpus replay groups its entries by
// this key.
func (c JobConfig) Key() string {
	return fmt.Sprintf("b%d|r%s|p%s|s%v|t%s", c.BaseSeed, c.Regime, strings.Join(c.Protocols, ","), c.Strict, c.Transport)
}

// FuzzConfig translates the recipe into simtest's generator
// config.
func (c JobConfig) FuzzConfig() (simtest.FuzzConfig, error) {
	regime, err := ParseRegime(c.Regime)
	if err != nil {
		return simtest.FuzzConfig{}, err
	}
	protos, err := ParseProtocols(c.Protocols)
	if err != nil {
		return simtest.FuzzConfig{}, err
	}
	return simtest.FuzzConfig{BaseSeed: c.BaseSeed, Regime: regime, Protocols: protos}, nil
}

// Job is one block of work: expand and run every seed under the
// recipe, in order.
type Job struct {
	// Block is the block id (dense, in planning order).
	Block int
	// Seeds are the GenSpec seeds to run, in verdict order.
	Seeds []int64
	// Cfg is the shared generation recipe.
	Cfg JobConfig
}

// Outcome classification of one seed.
const (
	// OutcomePass: the run completed and every invariant held.
	OutcomePass = "pass"
	// OutcomeDegraded: an out-of-model fault pattern ended the run in a
	// typed graceful degradation (ErrDeliveryViolated).
	OutcomeDegraded = "degraded"
	// OutcomeFailed: an invariant violation, an untyped error, a typed
	// degradation although the seed's fault pattern was within the model
	// (or absent), or (in a mesh soak) a mesh/sim divergence.
	OutcomeFailed = "failed"
)

// SeedVerdict is one seed's classified result.
type SeedVerdict struct {
	Seed int64
	// Outcome is OutcomePass, OutcomeDegraded or OutcomeFailed. A typed
	// degradation is OutcomeDegraded only when the seed's effective
	// regime is out-of-model; otherwise it is OutcomeFailed. Cfg.Strict
	// never changes the outcome, only which seeds are shrunk.
	Outcome string
	// Protocol is the generated instance's protocol name.
	Protocol string
	// Signature is the simtest outcome fingerprint, carried only for
	// non-passing seeds (it embeds outputs; corpus entries of passing
	// seeds record it empty).
	Signature string
	// MeshCompared reports that the seed also ran over the channel mesh
	// and was compared against the simulation (mesh soaks only).
	MeshCompared bool
}

// FailingSeed is a shrunk, replay-confirmed reproducer: the first
// failing seed of its block, re-run twice to confirm the signature
// reproduces bit-for-bit.
type FailingSeed struct {
	Seed      int64     `json:"seed"`
	Cfg       JobConfig `json:"cfg"`
	Protocol  string    `json:"protocol"`
	Outcome   string    `json:"outcome"`
	Signature string    `json:"signature"`
	// ReplayConfirmed reports that two fresh re-runs reproduced the
	// identical signature. A false value is an "unshrunk" failure — the
	// reproducer is not trustworthy — and fails Summary.Gate.
	ReplayConfirmed bool `json:"replay_confirmed"`
}

// BlockResult is RunBlock's answer to one Job.
type BlockResult struct {
	Block int
	// Verdicts are per-seed, in Job.Seeds order.
	Verdicts []SeedVerdict
	// MinFailing is the block's shrunk reproducer (nil when no seed
	// failed under the block's strictness).
	MinFailing *FailingSeed
}

// ParseRegime maps a regime name to its simtest constant.
func ParseRegime(s string) (simtest.Regime, error) {
	switch s {
	case "none", "":
		return simtest.RegimeNone, nil
	case "within-model", "within":
		return simtest.RegimeWithinModel, nil
	case "out-of-model", "out":
		return simtest.RegimeOutOfModel, nil
	case "mixed":
		return simtest.RegimeMixed, nil
	}
	return 0, fmt.Errorf("%w: unknown regime %q", ErrConfig, s)
}

// protocolNames maps canonical protocol names to their constants, in
// the generator's order.
var protocolNames = []struct {
	name  string
	proto bvc.Protocol
}{
	{"delta-relaxed", bvc.ProtocolDeltaRelaxed},
	{"exact", bvc.ProtocolExact},
	{"k-relaxed", bvc.ProtocolKRelaxed},
	{"scalar", bvc.ProtocolScalar},
	{"convex", bvc.ProtocolConvex},
	{"iterative", bvc.ProtocolIterative},
	{"async", bvc.ProtocolAsync},
	{"k1-async", bvc.ProtocolK1Async},
	// ACS never joins the default roster (that would shift every historic
	// corpus seed); soak jobs opt in with -protocols acs.
	{"acs", bvc.ProtocolACS},
}

// ParseProtocols maps protocol names to constants (nil for an empty
// list, meaning "all").
func ParseProtocols(names []string) ([]bvc.Protocol, error) {
	if len(names) == 0 {
		return nil, nil
	}
	out := make([]bvc.Protocol, 0, len(names))
	for _, n := range names {
		found := false
		for _, e := range protocolNames {
			if e.name == n {
				out = append(out, e.proto)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("%w: unknown protocol %q", ErrConfig, n)
		}
	}
	return out, nil
}

// NormalizeProtocols canonicalizes a comma-separated protocol list into
// sorted unique names, validating each (empty input stays empty).
func NormalizeProtocols(csv string) ([]string, error) {
	if strings.TrimSpace(csv) == "" {
		return nil, nil
	}
	seen := map[string]bool{}
	var out []string
	for _, raw := range strings.Split(csv, ",") {
		n := strings.TrimSpace(raw)
		if n == "" || seen[n] {
			continue
		}
		if _, err := ParseProtocols([]string{n}); err != nil {
			return nil, err
		}
		seen[n] = true
		out = append(out, n)
	}
	sort.Strings(out)
	return out, nil
}
