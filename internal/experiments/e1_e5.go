package experiments

import (
	"context"
	"fmt"
	"math"

	bvc "relaxedbvc"
	"relaxedbvc/internal/relax"
	"relaxedbvc/internal/report"
	"relaxedbvc/internal/vec"
	"relaxedbvc/internal/workload"
)

// E1ExactBounds reproduces the Theorem 1/2 baselines: exact BVC succeeds
// at n = max(3f+1, (d+1)f+1) on random inputs against equivocating
// Byzantine processes, and fails (empty Gamma) at n = (d+1)f on the
// simplex witness with f = 1.
func E1ExactBounds(opt Options) *Outcome {
	opt = opt.withDefaults()
	rng := opt.rng()
	o := &Outcome{ID: "E1", Title: "Exact BVC tight bound n >= max(3f+1, (d+1)f+1) (Theorem 1)", Pass: true}
	t := report.NewTable("", "d", "f", "n", "case", "runs", "agree", "valid", "expected", "got")
	o.Table = t

	dims := []int{2, 3, 4}
	if opt.Quick {
		dims = []int{2, 3}
	}
	for _, d := range dims {
		for _, f := range []int{1, 2} {
			if f == 2 && (opt.Quick || d > 2) {
				continue // EIG message volume explodes; f=2 covered at d=2
			}
			n := (d+1)*f + 1
			if n < 3*f+1 {
				n = 3*f + 1
			}
			agreeOK, validOK := true, true
			for trial := 0; trial < opt.Trials; trial++ {
				inputs := workload.Gaussian(rng, n, d, 2)
				byz := map[int]bvc.ByzantineBehavior{}
				byz[n-1] = bvc.Equivocator(
					workload.Gaussian(rng, 1, d, 10)[0],
					workload.Gaussian(rng, 1, d, 10)[0])
				if f == 2 {
					byz[0] = bvc.Silent()
				}
				spec := bvc.Spec{Protocol: bvc.ProtocolExact, N: n, F: f, D: d, Inputs: inputs, Byzantine: byz}
				res, err := bvc.Run(context.Background(), spec)
				if err != nil {
					agreeOK, validOK = false, false
					break
				}
				if bvc.AgreementError(res.Outputs, spec.HonestIDs()) > 0 {
					agreeOK = false
				}
				for _, i := range spec.HonestIDs() {
					if !bvc.CheckExactValidity(res.Outputs[i], spec.NonFaultyInputs(), 1e-6) {
						validOK = false
					}
				}
			}
			pass := agreeOK && validOK
			t.AddRow(d, f, n, "at bound", opt.Trials, report.PassFail(agreeOK), report.PassFail(validOK), "success", report.PassFail(pass))
			o.Pass = o.Pass && pass
		}
		// Below the bound: f = 1, n = d+1 simplex vertices -> Gamma empty.
		s := vec.NewSet(workload.StandardSimplex(d)...)
		_, ok := relax.GammaPoint(s, 1)
		t.AddRow(d, 1, d+1, "below bound (simplex)", 1, "-", "-", "Gamma empty", report.PassFail(!ok))
		o.Pass = o.Pass && !ok
	}
	note(o, "at-bound runs face an equivocating Byzantine process (plus a silent one when f=2)")
	return o
}

// E2KRelaxedSync reproduces Theorem 3: k-relaxed exact BVC (2 <= k <=
// d-1) has the same tight bound n >= (d+1)f+1. Sufficiency by protocol
// runs at the bound; necessity by the paper's explicit matrix S making
// Psi_2 (hence Psi_k for k >= 2) empty at n = d+1, while k = 1 stays
// feasible.
func E2KRelaxedSync(opt Options) *Outcome {
	opt = opt.withDefaults()
	rng := opt.rng()
	o := &Outcome{ID: "E2", Title: "k-relaxed exact BVC bound (Theorem 3 + proof matrix)", Pass: true}
	t := report.NewTable("", "d", "k", "n", "case", "expected", "got")
	o.Table = t

	dims := []int{3, 4, 5}
	if opt.Quick {
		dims = []int{3, 4}
	}
	for _, d := range dims {
		// Sufficiency at n = (d+1)f+1, f=1, protocol run with Byzantine.
		n := d + 2
		inputs := workload.Gaussian(rng, n, d, 2)
		spec := bvc.Spec{
			Protocol: bvc.ProtocolKRelaxed, N: n, F: 1, D: d, Inputs: inputs,
			Byzantine: map[int]bvc.ByzantineBehavior{n - 1: bvc.RandomLiar(opt.Seed, d, 10)},
		}
		for _, k := range []int{2, d - 1} {
			spec.K = k
			res, err := bvc.Run(context.Background(), spec)
			ok := err == nil
			if ok {
				ok = bvc.AgreementError(res.Outputs, spec.HonestIDs()) == 0
				for _, i := range spec.HonestIDs() {
					ok = ok && bvc.CheckKValidity(res.Outputs[i], spec.NonFaultyInputs(), k, 1e-6)
				}
			}
			t.AddRow(d, k, n, "protocol at bound", "success", report.PassFail(ok))
			o.Pass = o.Pass && ok
		}
		// Necessity: the Theorem 3 matrix at n = d+1.
		mat := vec.NewSet(workload.Theorem3Matrix(d, 1.0, 0.5)...)
		for k := 1; k <= d; k++ {
			_, feasible := relax.PsiKPoint(mat, 1, k)
			wantFeasible := k == 1
			t.AddRow(d, k, d+1, "proof matrix Psi_k", fmt.Sprintf("feasible=%v", wantFeasible),
				report.PassFail(feasible == wantFeasible))
			o.Pass = o.Pass && (feasible == wantFeasible)
			if k >= 3 && d >= 5 {
				break // larger k implied by Lemma 2; keep the table compact
			}
		}
	}
	note(o, "proof matrix: gamma=1, eps=0.5; Psi_k empty for all k >= 2 exactly as Theorem 3 predicts")
	return o
}

// processSets builds the per-process feasible output regions of the
// Appendix B and C arguments: process i's output must lie in
// Psi_i = intersection over j != i (1 <= j <= d+1) of H(S^j), with H the
// relaxed hull (H_k in Appendix B, H_(delta,inf) in Appendix C), where
// S^j drops input j from the first d+1 inputs.
func processSets(cols []vec.V, i int) []*vec.Set {
	d := cols[0].Dim()
	var fam []*vec.Set
	for j := 0; j <= d; j++ { // inputs 1..d+1 are indices 0..d
		if j == i {
			continue
		}
		s := vec.NewSet()
		for l := 0; l <= d; l++ {
			if l != j {
				s.Append(cols[l])
			}
		}
		fam = append(fam, s)
	}
	return fam
}

// E3KRelaxedAsync reproduces Theorem 4 (Appendix B): asynchronous
// k-relaxed BVC needs n >= (d+2)f+1. Sufficiency by running the verified
// averaging protocol at the bound; necessity by the Appendix B matrix,
// whose per-process output regions are provably >= 2*eps apart in the
// first coordinate at n = d+2.
func E3KRelaxedAsync(opt Options) *Outcome {
	opt = opt.withDefaults()
	rng := opt.rng()
	o := &Outcome{ID: "E3", Title: "k-relaxed approximate BVC bound, async (Theorem 4 + App. B matrix)", Pass: true}
	t := report.NewTable("", "d", "case", "quantity", "value", "expected", "got")
	o.Table = t

	dims := []int{3, 4, 5}
	if opt.Quick {
		dims = []int{3, 4}
	}
	const eps = 0.25
	for _, d := range dims {
		// Necessity certificates on the Appendix B matrix (gamma=1).
		cols := workload.Theorem4Matrix(d, 1.0, eps)
		lo1, _, ok1 := relax.ExtremizeKCoordinate(processSets(cols, 0), 2, 0)
		_, hi2, ok2 := relax.ExtremizeKCoordinate(processSets(cols, 1), 2, 0)
		gapOK := ok1 && ok2 && lo1-hi2 >= 2*eps-1e-7
		t.AddRow(d, "matrix n=d+2", "min x1 over Psi_1", lo1, ">= 2eps = 0.5", report.PassFail(ok1 && lo1 >= 2*eps-1e-7))
		t.AddRow(d, "matrix n=d+2", "max x1 over Psi_2", hi2, "<= 0", report.PassFail(ok2 && hi2 <= 1e-7))
		t.AddRow(d, "matrix n=d+2", "forced disagreement", lo1-hi2, ">= 2eps", report.PassFail(gapOK))
		o.Pass = o.Pass && gapOK
	}
	// Sufficiency: async exact-validity averaging at n = (d+2)f+1 reaches
	// epsilon-agreement (k-relaxed validity is implied by exact validity).
	d := 3
	n := d + 3
	spec := bvc.Spec{
		Protocol: bvc.ProtocolAsync, N: n, F: 1, D: d,
		Inputs: workload.Gaussian(rng, n, d, 2),
		Rounds: 12, Mode: bvc.ModeExact,
	}
	res, err := bvc.Run(context.Background(), spec)
	suffOK := err == nil
	var epsGot float64
	if suffOK {
		epsGot = bvc.AgreementError(res.Outputs, spec.HonestIDs())
		suffOK = epsGot < 1e-2
		for _, i := range spec.HonestIDs() {
			suffOK = suffOK && bvc.CheckExactValidity(res.Outputs[i], spec.NonFaultyInputs(), 1e-6)
		}
	}
	t.AddRow(d, "protocol n=(d+2)f+1", "epsilon after 12 rounds", epsGot, "< 0.01", report.PassFail(suffOK))
	o.Pass = o.Pass && suffOK
	// k = 1 contrast (Section 5.3): the per-coordinate reduction works at
	// n = 3f+1 even for large d, where the k >= 2 bound would demand
	// (d+2)f+1 processes.
	dBig := 6
	spec1 := bvc.Spec{
		Protocol: bvc.ProtocolK1Async, N: 4, F: 1, D: dBig,
		Inputs: workload.Gaussian(rng, 4, dBig, 2),
		Rounds: 10,
	}
	res1, err1 := bvc.Run(context.Background(), spec1)
	k1OK := err1 == nil
	var eps1 float64
	if k1OK {
		eps1 = bvc.AgreementError(res1.Outputs, spec1.HonestIDs())
		k1OK = eps1 < 0.01
		for _, i := range spec1.HonestIDs() {
			k1OK = k1OK && bvc.CheckKValidity(res1.Outputs[i], spec1.NonFaultyInputs(), 1, 1e-6)
		}
	}
	t.AddRow(dBig, "k=1 reduction n=3f+1", "epsilon after 10 rounds", eps1, "< 0.01", report.PassFail(k1OK))
	o.Pass = o.Pass && k1OK
	note(o, "Appendix B matrix uses gamma=1, eps=0.25; Observations 1-4 collapse to the x1 gap certificate")
	return o
}

// E4DeltaConstSync reproduces Theorem 5: constant-delta relaxation does
// not lower the exact bound. The Theorem 5 matrix with x > 2*d*delta
// makes Gamma_(delta,inf) empty; we sweep x to find the empirical
// feasibility threshold and confirm it is <= 2*d*delta, and confirm
// feasibility returns above the (d+1)f+1 process count.
func E4DeltaConstSync(opt Options) *Outcome {
	opt = opt.withDefaults()
	o := &Outcome{ID: "E4", Title: "constant-delta (delta,inf) exact bound (Theorem 5 + proof matrix)", Pass: true}
	t := report.NewTable("", "d", "delta", "x threshold (measured)", "2*d*delta (proof)", "empty at 2d*delta+", "feasible with n=d+2")
	o.Table = t
	dims := []int{2, 3, 4, 5}
	if opt.Quick {
		dims = []int{2, 3}
	}
	const delta = 0.5
	for _, d := range dims {
		// Measured threshold: delta*_inf(S(x)) is increasing in x; find x
		// where delta*_inf crosses delta by bisection.
		lo, hi := 0.0, 4*float64(d)*delta+4
		for it := 0; it < 40; it++ {
			mid := (lo + hi) / 2
			s := vec.NewSet(workload.Theorem5Matrix(d, mid)...)
			dstar, _ := relax.DeltaStarPoly(s, 1, math.Inf(1))
			if dstar > delta {
				hi = mid
			} else {
				lo = mid
			}
		}
		threshold := (lo + hi) / 2
		proofBound := 2 * float64(d) * delta
		// Emptiness strictly above the proof bound.
		sAbove := vec.NewSet(workload.Theorem5Matrix(d, proofBound+0.5)...)
		_, feasAbove := relax.GammaDeltaPoint(sAbove, 1, delta, math.Inf(1))
		// With one more process (duplicate origin) the same x is feasible:
		// n = d+2 >= (d+1)f+1.
		ptsMore := append(workload.Theorem5Matrix(d, proofBound+0.5), vec.New(d))
		_, feasMore := relax.GammaDeltaPoint(vec.NewSet(ptsMore...), 1, delta, math.Inf(1))
		ok := threshold <= proofBound+1e-6 && !feasAbove && feasMore
		t.AddRow(d, delta, threshold, proofBound, report.PassFail(!feasAbove), report.PassFail(feasMore))
		o.Pass = o.Pass && ok
	}
	note(o, "measured infeasibility threshold never exceeds the proof's 2*d*delta; adding one process restores feasibility")
	return o
}

// E5DeltaConstAsync reproduces Theorem 6 (Appendix C): the asynchronous
// constant-delta bound. On the Theorem 6 matrix with x > 2*d*delta + eps
// the per-process output regions under (delta,inf)-relaxed validity are
// more than eps apart in some coordinate.
func E5DeltaConstAsync(opt Options) *Outcome {
	opt = opt.withDefaults()
	o := &Outcome{ID: "E5", Title: "constant-delta async bound (Theorem 6 + App. C matrix)", Pass: true}
	t := report.NewTable("", "d", "x", "min x1 over Psi_1", "max x1 over Psi_2", "gap", "eps", "got")
	o.Table = t
	dims := []int{2, 3, 4}
	if opt.Quick {
		dims = []int{2, 3}
	}
	const (
		delta = 0.4
		eps   = 0.3
	)
	for _, d := range dims {
		x := 2*float64(d)*delta + eps + 0.5 // strictly above the proof bound
		cols := workload.Theorem6Matrix(d, x)
		lo1, _, ok1 := relax.ExtremizeRelaxedCoordinate(processSets(cols, 0), delta, math.Inf(1), 0)
		_, hi2, ok2 := relax.ExtremizeRelaxedCoordinate(processSets(cols, 1), delta, math.Inf(1), 0)
		gap := lo1 - hi2
		ok := ok1 && ok2 && gap > eps
		t.AddRow(d, x, lo1, hi2, gap, eps, report.PassFail(ok))
		o.Pass = o.Pass && ok
		// Appendix C's explicit bounds: lo1 >= x-(2d-1)*delta... our LP
		// gives the exact region, which must respect them.
		if ok1 && lo1 < x-(2*float64(d)-1)*delta-1e-6 {
			o.Pass = false
			note(o, "d=%d: Observation 2 bound violated: %v < %v", d, lo1, x-(2*float64(d)-1)*delta)
		}
		if ok2 && hi2 > delta+1e-6 {
			o.Pass = false
			note(o, "d=%d: Observation 3 bound violated: %v > %v", d, hi2, delta)
		}
	}
	note(o, "x set to 2*d*delta + eps + 0.5; the x1 gap certifies the epsilon-agreement violation at n = d+2")
	return o
}
