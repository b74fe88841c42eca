package experiments

import (
	"context"

	"relaxedbvc/internal/consensus"
	"relaxedbvc/internal/report"
	"relaxedbvc/internal/transport"
	"relaxedbvc/internal/workload"
)

// E19CostScaling measures the communication cost of the protocol stack
// across (n, f) and broadcast substrate: rounds, point-to-point message
// counts and EIG tree nodes for the all-to-all Step 1 (oral-messages EIG
// vs signed Dolev-Strong), plus the asynchronous algorithm's
// delivered-message count. Oral messages send one body per link and
// round, n(n-1)(f+1) messages, but every process stores and relays
// n(n-1)...(n-l+1) tree nodes at level l, so the EIG tree's n^(f+1)
// growth is in bytes; signed broadcast is polynomial in both — the
// classic trade against the PKI assumption.
func E19CostScaling(opt Options) *Outcome {
	opt = opt.withDefaults()
	rng := opt.rng()
	o := &Outcome{ID: "E19", Title: "Protocol cost scaling: rounds, messages and tree nodes by substrate", Pass: true}
	t := report.NewTable("", "substrate", "n", "f", "rounds", "messages", "msgs/process", "tree nodes")
	o.Table = t

	d := 2
	cases := []struct{ n, f int }{{4, 1}, {5, 1}, {7, 1}, {7, 2}}
	if opt.Quick {
		cases = cases[:2]
	}
	for _, c := range cases {
		inputs := workload.Gaussian(rng, c.n, d, 1)
		// Oral messages (EIG).
		cfgO := &consensus.SyncConfig{N: c.n, F: c.f, D: d, Inputs: inputs}
		resO, err := consensus.RunDeltaRelaxedBVC(context.Background(), cfgO, 2)
		if err != nil {
			o.Pass = false
			note(o, "oral n=%d f=%d: %v", c.n, c.f, err)
			continue
		}
		t.AddRow("oral (EIG)", c.n, c.f, resO.Rounds, resO.Messages, resO.Messages/c.n, resO.TreeNodes)
		// Honest runs: one message per link and round, and every process
		// holds every node of every level.
		nodes, level := 0, 1
		for l := 1; l <= c.f+1; l++ {
			level *= c.n - l + 1
			nodes += c.n * level
		}
		if want := c.n * (c.n - 1) * (c.f + 1); resO.Messages != want || resO.TreeNodes != nodes {
			o.Pass = false
			note(o, "oral n=%d f=%d: %d messages and %d tree nodes, want n(n-1)(f+1) = %d and %d", c.n, c.f, resO.Messages, resO.TreeNodes, want, nodes)
		}
		// Signed (Dolev-Strong).
		cfgS := &consensus.SyncConfig{N: c.n, F: c.f, D: d, Inputs: inputs, SignedBroadcast: true}
		resS, err := consensus.RunDeltaRelaxedBVC(context.Background(), cfgS, 2)
		if err != nil {
			o.Pass = false
			note(o, "signed n=%d f=%d: %v", c.n, c.f, err)
			continue
		}
		t.AddRow("signed (DS)", c.n, c.f, resS.Rounds, resS.Messages, resS.Messages/c.n, "-")
		// Outputs must agree between substrates on honest runs (same
		// agreed multiset, same deterministic choice).
		same := true
		for i := 0; i < c.n; i++ {
			if !resO.Outputs[i].ApproxEqual(resS.Outputs[i], 1e-12) {
				same = false
			}
		}
		if !same {
			o.Pass = false
			note(o, "n=%d f=%d: substrates disagree on honest run", c.n, c.f)
		}
	}

	// Async RVA delivered messages at fixed rounds, over n.
	for _, n := range []int{4, 5, 7} {
		if opt.Quick && n > 5 {
			break
		}
		inputs := workload.Gaussian(rng, n, d, 1)
		mode := consensus.ModeRelaxed
		if n >= d+4 {
			mode = consensus.ModeExact
		}
		cfg := &consensus.AsyncConfig{N: n, F: 1, D: d, Inputs: inputs, Rounds: 6, Mode: mode}
		res, err := consensus.RunAsyncBVC(context.Background(), cfg)
		if err != nil {
			o.Pass = false
			note(o, "async n=%d: %v", n, err)
			continue
		}
		t.AddRow("async (Bracha RVA)", n, 1, 6, res.Messages, res.Messages/n, "-")
	}

	// Iterative protocol message count (no broadcast primitive: the
	// cheapest substrate, n*(n-1) per round).
	nIter := 5
	cfgI := &consensus.IterConfig{N: nIter, F: 1, D: d, Inputs: workload.Gaussian(rng, nIter, d, 1), Rounds: 6}
	resI, err := consensus.RunIterativeBVC(context.Background(), transport.Plane{}, cfgI)
	if err != nil {
		o.Pass = false
	} else {
		t.AddRow("iterative", nIter, 1, 6, resI.Messages, resI.Messages/nIter, "-")
		want := nIter * (nIter - 1) * 6
		if resI.Messages != want {
			o.Pass = false
			note(o, "iterative messages %d != n(n-1)R = %d", resI.Messages, want)
		}
	}

	note(o, "oral EIG sends n(n-1)(f+1) messages, one body per link and round, whose bytes grow with the n^(f+1) relay tree; signed broadcast stays polynomial; iterative is n(n-1) per round")
	return o
}
