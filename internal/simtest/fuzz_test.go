package simtest_test

import (
	"context"
	"errors"
	"testing"
	"time"

	bvc "relaxedbvc"
	"relaxedbvc/internal/simtest"
)

// FuzzConsensusFaults is the consensus-level fuzz target: the fuzzer
// mutates (seed, fault regime, Byzantine roster salt), each triple
// deterministically expands into a full protocol instance via GenSpec,
// and the oracle is the simtest invariant checker —
//
//   - within-model (and fault-free) instances must complete and satisfy
//     validity, agreement and termination;
//   - out-of-model instances must degrade into typed errors, never
//     hang, panic or emit invariant-violating outputs.
//
// Run with: go test -run=^$ -fuzz=FuzzConsensusFaults ./internal/simtest
func FuzzConsensusFaults(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0))
	f.Add(int64(7), uint8(1), uint8(3))
	f.Add(int64(42), uint8(2), uint8(9))
	f.Add(int64(3000), uint8(2), uint8(0))
	f.Add(int64(1000), uint8(1), uint8(77))
	f.Fuzz(func(t *testing.T, seed int64, regime, roster uint8) {
		cfg := simtest.FuzzConfig{Regime: simtest.Regime(regime % 3)}
		// The roster byte salts the seed so the fuzzer can vary the
		// Byzantine cast independently of the fault pattern.
		s := seed ^ int64(roster)<<40
		spec := simtest.GenSpec(s, cfg)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		rep := simtest.RunChecked(ctx, spec)
		if rep.Err != nil {
			if errors.Is(rep.Err, bvc.ErrCanceled) {
				t.Skipf("seed %d: timed out under fuzzing load", s)
			}
			if cfg.Regime != simtest.RegimeOutOfModel {
				t.Fatalf("seed %d regime %v (%s): run errored inside the delivery model: %v",
					s, cfg.Regime, spec.Protocol, rep.Err)
			}
			if !typedError(rep.Err) {
				t.Fatalf("seed %d (%s): untyped degradation: %v", s, spec.Protocol, rep.Err)
			}
			return
		}
		for _, v := range rep.Violations {
			t.Errorf("seed %d regime %v (%s): %s", s, cfg.Regime, spec.Protocol, v)
		}
	})
}

// FuzzACS fuzzes the streaming ACS decision layer in isolation: each
// (seed, regime) pair expands into a multi-epoch ACS instance — random
// proposal matrix, an optional scripted equivocator or mute node, and a
// lockstep fault pattern — and the oracle enforces the extended stream
// invariants (totality, agreement on every epoch's subset/values/
// decision, |subset| >= n-f, per-slot validity, kernel-exact outputs).
//
// Run with: go test -run=^$ -fuzz=FuzzACS ./internal/simtest
func FuzzACS(f *testing.F) {
	f.Add(int64(1), uint8(0))
	f.Add(int64(2), uint8(1))
	f.Add(int64(9), uint8(2))
	f.Add(int64(64), uint8(1))
	f.Add(int64(501), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, regime uint8) {
		cfg := simtest.FuzzConfig{
			Regime:    simtest.Regime(regime % 3),
			Protocols: []bvc.Protocol{bvc.ProtocolACS},
		}
		spec := simtest.GenSpec(seed, cfg)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		rep := simtest.RunChecked(ctx, spec)
		if rep.Err != nil {
			if errors.Is(rep.Err, bvc.ErrCanceled) {
				t.Skipf("seed %d: timed out under fuzzing load", seed)
			}
			if cfg.Regime != simtest.RegimeOutOfModel {
				t.Fatalf("seed %d regime %v: ACS run errored inside the delivery model: %v",
					seed, cfg.Regime, rep.Err)
			}
			if !typedError(rep.Err) {
				t.Fatalf("seed %d: untyped ACS degradation: %v", seed, rep.Err)
			}
			return
		}
		for _, v := range rep.Violations {
			t.Errorf("seed %d regime %v: %s", seed, cfg.Regime, v)
		}
	})
}

// typedError reports whether err wraps one of the library's sentinels.
func typedError(err error) bool {
	for _, s := range []error{
		bvc.ErrDeliveryViolated, bvc.ErrEmptyIntersection, bvc.ErrCanceled,
		bvc.ErrBadFaults, bvc.ErrBadInputs, bvc.ErrTooFewProcesses,
		bvc.ErrTooManyFaults, bvc.ErrBadDimension, bvc.ErrBadRounds,
		bvc.ErrBadNorm, bvc.ErrBadK,
	} {
		if errors.Is(err, s) {
			return true
		}
	}
	return false
}
