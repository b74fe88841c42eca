package experiments

import (
	"context"
	"math"

	bvc "relaxedbvc"
	"relaxedbvc/internal/minimax"
	"relaxedbvc/internal/relax"
	"relaxedbvc/internal/report"
	"relaxedbvc/internal/vec"
	"relaxedbvc/internal/workload"
)

// E15Footnote3 reproduces the paper's footnote 3: when the underlying
// network is a reliable broadcast channel (modelled here with the signed
// Dolev-Strong broadcast, which tolerates any f < n), the n >= 3f+1
// requirement on Step 1 disappears. The very configuration that E11
// breaks at n = 3 — an equivocating Byzantine commander — now yields
// identical honest views and a valid (delta,2)-relaxed decision, and
// even n = 2 with f = 1 works.
func E15Footnote3(opt Options) *Outcome {
	opt = opt.withDefaults()
	rng := opt.rng()
	o := &Outcome{ID: "E15", Title: "Footnote 3: broadcast channels lift the 3f+1 requirement", Pass: true}
	t := report.NewTable("", "n", "f", "d", "broadcast", "attack", "views agree", "outputs agree", "valid", "got")
	o.Table = t

	d := 2
	one := vec.Of(1, 1)
	zero := vec.Of(0, 0)

	run := func(n int, signed bool, label string) {
		inputs := make([]vec.V, n)
		for i := range inputs {
			inputs[i] = one.Clone()
		}
		inputs[n-1] = zero // the Byzantine slot's nominal input
		spec := bvc.Spec{
			Protocol: bvc.ProtocolDeltaRelaxed, N: n, F: 1, D: d, Inputs: inputs,
			SignedBroadcast: signed,
		}
		perRecipient := map[int]vec.V{}
		for i := 0; i < n-1; i++ {
			if i%2 == 0 {
				perRecipient[i] = one
			} else {
				perRecipient[i] = zero
			}
		}
		if signed {
			spec.ByzantineSigned = map[int]bvc.SignedByzantineBehavior{n - 1: bvc.SignedEquivocator(perRecipient)}
		} else {
			spec.Byzantine = map[int]bvc.ByzantineBehavior{n - 1: bvc.PerRecipient(perRecipient)}
		}
		res, err := bvc.Run(context.Background(), spec)
		if err != nil {
			t.AddRow(n, 1, d, label, "equivocate", "-", "-", "-", "error: "+err.Error())
			o.Pass = false
			return
		}
		honest := spec.HonestIDs()
		viewsAgree := true
		for _, i := range honest[1:] {
			for c := 0; c < n; c++ {
				if !res.AgreedSet[i].At(c).Equal(res.AgreedSet[honest[0]].At(c)) {
					viewsAgree = false
				}
			}
		}
		outputsAgree := bvc.AgreementError(res.Outputs, honest) == 0
		delta := res.Delta[honest[0]]
		valid := bvc.CheckDeltaValidity(res.Outputs[honest[0]], spec.NonFaultyInputs(), delta, 2, 1e-6)
		// Signed mode must defeat the attack; oral mode at n <= 3f must
		// fall to it (when at least two honest processes exist to split).
		wantAgree := signed || n >= 4
		got := viewsAgree == wantAgree && (wantAgree == outputsAgree || !wantAgree) && (!wantAgree || valid)
		t.AddRow(n, 1, d, label, "equivocate", viewsAgree, outputsAgree, valid, report.PassFail(got))
		o.Pass = o.Pass && got
	}

	run(3, false, "oral (OM)")
	run(3, true, "signed (DS)")
	run(4, true, "signed (DS)")
	if !opt.Quick {
		run(5, true, "signed (DS)")
	}

	// Random-input sanity at n = 3, f = 1 under signed broadcast: the
	// achieved delta still respects the generic diameter bound.
	okRand := true
	for trial := 0; trial < opt.Trials; trial++ {
		inputs := workload.Gaussian(rng, 3, d, 2)
		spec := bvc.Spec{Protocol: bvc.ProtocolDeltaRelaxed, N: 3, F: 1, D: d, Inputs: inputs, SignedBroadcast: true}
		res, err := bvc.Run(context.Background(), spec)
		if err != nil {
			okRand = false
			break
		}
		honest := spec.HonestIDs()
		if bvc.AgreementError(res.Outputs, honest) != 0 {
			okRand = false
		}
		delta := res.Delta[honest[0]]
		if !bvc.CheckDeltaValidity(res.Outputs[honest[0]], spec.NonFaultyInputs(), delta, 2, 1e-6) {
			okRand = false
		}
	}
	t.AddRow(3, 1, d, "signed (DS)", "none (random)", true, okRand, okRand, report.PassFail(okRand))
	o.Pass = o.Pass && okRand
	note(o, "the same equivocation that splits views under oral messages at n=3 is defeated by signature chains")
	return o
}

// E16ConjectureSweep hunts for counterexamples to Conjectures 1-3 over a
// randomized grid of (n, f, d) configurations in the conjectured regime
// 3f+1 <= n < (d+1)f, reporting the worst delta*/bound ratio seen. A
// ratio >= 1 would be a counterexample (none is known; none was found).
func E16ConjectureSweep(opt Options) *Outcome {
	opt = opt.withDefaults()
	rng := opt.rng()
	o := &Outcome{ID: "E16", Title: "Conjectures 1-3: randomized counterexample hunt", Pass: true}
	t := report.NewTable("", "conj", "d", "f", "n", "p", "trials", "worst delta*/bound", "got")
	o.Table = t

	type cfg struct{ d, f, n int }
	grid := []cfg{{4, 2, 7}, {4, 2, 8}, {5, 2, 9}, {4, 3, 10}}
	if opt.Quick {
		grid = grid[:2]
	}
	trials := opt.Trials
	if trials > 3 {
		trials = 3 // iterative minimax is expensive at these sizes
	}
	for _, g := range grid {
		if g.n < 3*g.f+1 || g.n >= (g.d+1)*g.f {
			continue
		}
		// Conjecture 1 (p = 2).
		worst2 := 0.0
		ok2 := true
		for trial := 0; trial < trials; trial++ {
			pts := workload.Gaussian(rng, g.n, g.d, 1)
			s := vec.NewSet(pts...)
			// Delta is attained at a point, so it bounds delta* from
			// above: the strict inequality is checked on the safe side.
			res := minimax.DeltaStar2Iterative(s, g.f)
			dstar := res.Delta
			// Check against every possible faulty set of size f: the
			// conjecture must hold whichever f inputs are faulty. The
			// bound shrinks as edges are removed, so the binding check is
			// the minimum bound over faulty choices.
			minBound := minOverFaulty(g.n, g.f, func(keep []int) float64 {
				return minimax.Conjecture1Bound(s.Subset(keep), g.n, g.f)
			})
			if minBound <= 0 {
				continue
			}
			if r := dstar / minBound; r > worst2 {
				worst2 = r
			}
			if !res.Converged || dstar >= minBound {
				ok2 = false
			}
		}
		t.AddRow("C1/C2", g.d, g.f, g.n, 2, trials, worst2, report.PassFail(ok2))
		o.Pass = o.Pass && ok2

		// Conjecture 3 surrogate (p = inf computable exactly by LP):
		// delta*_inf <= delta*_2 < bound_2 <= d^(1/2) * kappa * maxE_inf
		// ... we check the direct transferred-inf form.
		worstInf := 0.0
		okInf := true
		for trial := 0; trial < trials; trial++ {
			pts := workload.Gaussian(rng, g.n, g.d, 1)
			s := vec.NewSet(pts...)
			dstarInf, _ := relax.DeltaStarPoly(s, g.f, math.Inf(1))
			kappa := 1.0 / float64(g.n/g.f-2)
			minBound := minOverFaulty(g.n, g.f, func(keep []int) float64 {
				return minimax.HolderScale(g.d, math.Inf(1)) * kappa * s.Subset(keep).MaxEdge(math.Inf(1))
			})
			if minBound <= 0 {
				continue
			}
			if r := dstarInf / minBound; r > worstInf {
				worstInf = r
			}
			if dstarInf >= minBound {
				okInf = false
			}
		}
		t.AddRow("C3 (p=inf)", g.d, g.f, g.n, "inf", trials, worstInf, report.PassFail(okInf))
		o.Pass = o.Pass && okInf
	}
	note(o, "no counterexample found; every sampled configuration keeps delta* strictly below the conjectured bound")
	return o
}

// minOverFaulty returns the minimum of bound over the index sets of the
// inputs left honest by every choice of f faulty inputs among n.
func minOverFaulty(n, f int, bound func(keep []int) float64) float64 {
	m := math.Inf(1)
	vec.Combinations(n, f, func(faulty []int) bool {
		fm := map[int]bool{}
		for _, x := range faulty {
			fm[x] = true
		}
		keep := make([]int, 0, n-f)
		for i := 0; i < n; i++ {
			if !fm[i] {
				keep = append(keep, i)
			}
		}
		if b := bound(keep); b < m {
			m = b
		}
		return true
	})
	return m
}
