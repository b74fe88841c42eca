package experiments

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	bvc "relaxedbvc"
	"relaxedbvc/internal/report"
	"relaxedbvc/internal/workload"
)

// E21FaultSweep exercises the fault-injecting network substrate across
// both engines. Within-model patterns (duplication for the lockstep
// protocols; recoverable drops, bounded delays, duplication and healing
// partitions for the asynchronous ones) must leave every run satisfying
// the paper's guarantees; out-of-model patterns (synchrony-breaking
// drops, exhausted retransmission budgets, unhealed partitions) must
// degrade into typed errors wrapping ErrDeliveryViolated. A final
// scenario replays one faulty run and requires bit-identical outputs
// and fault counters — the deterministic-replay contract.
func E21FaultSweep(opt Options) *Outcome {
	opt = opt.withDefaults()
	o := &Outcome{ID: "E21", Title: "Fault injection: within-model runs keep the guarantees, out-of-model runs fail typed, replay is exact", Pass: true}
	t := report.NewTable("", "scenario", "engine", "runs", "clean", "typed-err", "faults-seen", "got")
	o.Table = t
	trials := opt.Trials
	if opt.Quick && trials > 3 {
		trials = 3
	}

	type row struct {
		name, engine string
		run          func(seed int64) (clean bool, typed bool, sawFaults bool, err error)
		wantClean    bool
	}

	// runSeed executes ALGO (sync) or relaxed-mode RVA (async; Rounds is
	// its budget) at n=4 f=1 d=3 on seeded inputs.
	runSeed := func(p bvc.Protocol, seed int64, faults *bvc.LinkFaults) (*bvc.Result, *bvc.Spec, error) {
		rng := rand.New(rand.NewSource(seed))
		spec := &bvc.Spec{
			Protocol: p, N: 4, F: 1, D: 3,
			Inputs: workload.Gaussian(rng, 4, 3, 1),
			Rounds: 5,
			Faults: faults,
		}
		res, err := bvc.Run(context.Background(), *spec)
		return res, spec, err
	}

	rows := []row{
		{
			name: "within-model: duplication", engine: "sync", wantClean: true,
			run: func(seed int64) (bool, bool, bool, error) {
				res, spec, err := runSeed(bvc.ProtocolDeltaRelaxed, seed, &bvc.LinkFaults{
					Seed: seed, LinkProfile: bvc.LinkProfile{DupProb: 0.5},
				})
				if err != nil {
					return false, errors.Is(err, bvc.ErrDeliveryViolated), false, err
				}
				ok := bvc.AgreementError(res.Outputs, spec.HonestIDs()) == 0
				for _, i := range spec.HonestIDs() {
					ok = ok && bvc.CheckDeltaValidity(res.Outputs[i], spec.NonFaultyInputs(), res.Delta[i], 2, 1e-6)
				}
				return ok, false, res.Metrics.LinkDuplicates > 0, nil
			},
		},
		{
			name: "within-model: drop+delay+dup+healing partition", engine: "async", wantClean: true,
			run: func(seed int64) (bool, bool, bool, error) {
				res, spec, err := runSeed(bvc.ProtocolAsync, seed, &bvc.LinkFaults{
					Seed:        seed,
					LinkProfile: bvc.LinkProfile{DropProb: 0.2, DupProb: 0.2, DelayMax: 2},
					Partitions:  []bvc.Partition{{Start: 1, End: 4, Group: []int{int(seed) % 4}}},
				})
				if err != nil {
					return false, errors.Is(err, bvc.ErrDeliveryViolated), false, err
				}
				ok := true
				for _, i := range spec.HonestIDs() {
					ok = ok && res.Outputs[i] != nil
				}
				m := res.Metrics
				return ok, false, m.LinkDrops+m.LinkDuplicates+m.LinkDelays+m.PartitionHeals > 0, nil
			},
		},
		{
			name: "out-of-model: drops break lockstep", engine: "sync", wantClean: false,
			run: func(seed int64) (bool, bool, bool, error) {
				_, _, err := runSeed(bvc.ProtocolDeltaRelaxed, seed, &bvc.LinkFaults{
					Seed: seed, LinkProfile: bvc.LinkProfile{DropProb: 0.8},
				})
				return err == nil, errors.Is(err, bvc.ErrDeliveryViolated), true, err
			},
		},
		{
			name: "out-of-model: retransmission budget exhausted", engine: "async", wantClean: false,
			run: func(seed int64) (bool, bool, bool, error) {
				_, _, err := runSeed(bvc.ProtocolAsync, seed, &bvc.LinkFaults{
					Seed: seed, LinkProfile: bvc.LinkProfile{DropProb: 1}, MaxAttempts: 2,
				})
				return err == nil, errors.Is(err, bvc.ErrDeliveryViolated), true, err
			},
		},
		{
			name: "out-of-model: partition never heals", engine: "async", wantClean: false,
			run: func(seed int64) (bool, bool, bool, error) {
				_, _, err := runSeed(bvc.ProtocolAsync, seed, &bvc.LinkFaults{
					Seed: seed, Partitions: []bvc.Partition{{Start: 0, End: -1, Group: []int{0}}},
				})
				return err == nil, errors.Is(err, bvc.ErrDeliveryViolated), true, err
			},
		},
	}

	for _, r := range rows {
		clean, typed, sawFaults := 0, 0, false
		for trial := 0; trial < trials; trial++ {
			seed := opt.Seed + int64(trial)*101
			c, ty, sf, _ := r.run(seed)
			if c {
				clean++
			}
			if ty {
				typed++
			}
			sawFaults = sawFaults || sf
		}
		var ok bool
		if r.wantClean {
			ok = clean == trials && sawFaults
		} else {
			ok = clean == 0 && typed == trials
		}
		t.AddRow(r.name, r.engine, trials, clean, typed, sawFaults, report.PassFail(ok))
		o.Pass = o.Pass && ok
	}

	// Deterministic replay: the same seed must reproduce outputs and
	// fault counters exactly.
	replayOK := true
	fp := func() string {
		res, _, err := runSeed(bvc.ProtocolAsync, opt.Seed, &bvc.LinkFaults{
			Seed:        opt.Seed,
			LinkProfile: bvc.LinkProfile{DropProb: 0.3, DupProb: 0.2, DelayMax: 2},
		})
		if err != nil {
			return "err:" + err.Error()
		}
		m := *res.Metrics
		m.WallNanos = 0 // the one field that is not a function of the Spec
		return fmt.Sprintf("%v|%+v", res.Outputs, m)
	}
	first := fp()
	for i := 0; i < 2 && replayOK; i++ {
		replayOK = fp() == first
	}
	t.AddRow("replay: identical outputs and counters", "async", 3, 3, 0, true, report.PassFail(replayOK))
	o.Pass = o.Pass && replayOK
	note(o, "within-model fault patterns preserve the Section 9/10 guarantees; out-of-model ones fail typed (ErrDeliveryViolated)")
	return o
}
