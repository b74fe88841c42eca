package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"relaxedbvc/internal/adversary"
	"relaxedbvc/internal/minimax"
	"relaxedbvc/internal/par"
	"relaxedbvc/internal/relax"
	"relaxedbvc/internal/report"
	"relaxedbvc/internal/simplexgeo"
	"relaxedbvc/internal/vec"
	"relaxedbvc/internal/workload"
)

// E6Table1 regenerates Table 1 of the paper: for each (n, f) regime the
// measured delta*_2(S) over random and adversarially-placed inputs is
// compared against the paper's upper bound, reporting the worst observed
// ratio (which must stay below 1 — the theorems state strict
// inequalities). The ratio uses the solver's Delta, a value attained at
// a point and so a true upper bound on delta*; its certified Lower says
// on how many trials Gamma(S) is provably empty (delta* > 0), which
// Lemma 13 makes every trial of the f = 1 regime.
func E6Table1(opt Options) *Outcome {
	opt = opt.withDefaults()
	o := &Outcome{ID: "E6", Title: "Table 1: upper bounds on input-dependent delta*", Pass: true}
	t := report.NewTable("", "regime", "d", "f", "n", "workload", "trials", "max delta*/bound", "Gamma empty", "bound source", "got")
	o.Table = t

	// Trials are independent, so they run on a worker pool; each trial
	// derives its own RNG from (seed, regime, d, n, trial) so the results
	// are deterministic regardless of scheduling.
	rowSeed := int64(0)
	check := func(regime string, d, f, n int, wl string, trials int, gen func(rng *rand.Rand) ([]vec.V, []int)) {
		rowSeed++
		type trialOut struct {
			ratio float64
			ok    bool
			empty bool // Lower > 0: Gamma(S) is certified empty
		}
		outs := par.Map(trials, 0, func(trial int) trialOut {
			rng := rand.New(rand.NewSource(opt.Seed + rowSeed*1_000_003 + int64(trial)*7919))
			pts, faulty := gen(rng)
			s := vec.NewSet(pts...)
			var res minimax.Result
			if f == 1 && n == d+1 {
				res = minimax.DeltaStar2(s, f)
			} else {
				res = minimax.DeltaStar2Iterative(s, f)
			}
			// The bound must hold for every possible choice of which f
			// processes are faulty that includes the actually faulty ones;
			// we evaluate it at the designated faulty set (the paper's E+).
			keep := make([]int, 0, n-f)
			fm := map[int]bool{}
			for _, x := range faulty {
				fm[x] = true
			}
			for i := 0; i < n; i++ {
				if !fm[i] {
					keep = append(keep, i)
				}
			}
			nonFaulty := s.Subset(keep)
			var bound float64
			var src string
			switch regime {
			case "f=1, n=d+1":
				bound = minimax.Theorem9Bound(nonFaulty, n)
				src = "Theorem 9"
			case "f>=2, n=(d+1)f":
				bound = minimax.Theorem12Bound(nonFaulty, d)
				src = "Theorem 12"
			default:
				bound = minimax.Conjecture1Bound(nonFaulty, n, f)
				src = "Conjecture 1"
			}
			if bound <= 0 {
				return trialOut{ratio: 0, ok: true}
			}
			_ = src
			ok := res.Converged && res.Delta < bound
			if f == 1 {
				ok = ok && res.Lower > 0
			}
			return trialOut{ratio: res.Delta / bound, ok: ok, empty: res.Lower > 0}
		})
		worst := 0.0
		ok := true
		empty := 0
		for _, o := range outs {
			if o.ratio > worst {
				worst = o.ratio
			}
			ok = ok && o.ok
			if o.empty {
				empty++
			}
		}
		srcName := map[string]string{
			"f=1, n=d+1":     "Theorem 9",
			"f>=2, n=(d+1)f": "Theorem 12",
			"3f+1<=n<(d+1)f": "Conjecture 1",
		}[regime]
		t.AddRow(regime, d, f, n, wl, trials, worst, fmt.Sprintf("%d/%d", empty, trials), srcName, report.PassFail(ok))
		o.Pass = o.Pass && ok
	}

	// Row 1: f = 1, n = d+1 (Theorem 9), random + worst-case adversary.
	dims := []int{3, 4, 5}
	if opt.Quick {
		dims = []int{3, 4}
	}
	for _, d := range dims {
		n := d + 1
		for _, wl := range []string{"gauss", "cube"} {
			gen := workload.Generators()[wl]

			check("f=1, n=d+1", d, 1, n, wl, opt.Trials, func(rng *rand.Rand) ([]vec.V, []int) {
				pts := gen(rng, n, d)
				return pts, []int{n - 1}
			})
		}
		// Adversarial placement: the Byzantine input is hill-climbed to
		// maximize delta*/bound against the fixed honest inputs (the
		// honest E+ — and hence the bound — does not move).
		check("f=1, n=d+1", d, 1, n, "adversarial", opt.Trials, func(rng *rand.Rand) ([]vec.V, []int) {
			honest := workload.Gaussian(rng, n-1, d, 1)
			byz := adversary.WorstCasePlacement(honest, 2)
			bound := minimax.Theorem9Bound(vec.NewSet(honest...), n)
			score := func(b vec.V) float64 {
				pts := append(append([]vec.V(nil), honest...), b)
				sx, err := simplexgeo.New(pts)
				if err != nil {
					return 0
				}
				return sx.Inradius() / bound
			}
			cur := score(byz)
			step := 1.0
			for it := 0; it < 200; it++ {
				cand := byz.Clone()
				cand[rng.Intn(d)] += rng.NormFloat64() * step
				if s := score(cand); s > cur {
					cur, byz = s, cand
				}
				step *= 0.985
			}
			return append(append([]vec.V(nil), honest...), byz), []int{n - 1}
		})
	}

	// Row 2: f = 2, n = (d+1)f (Theorem 12). Heavier: fewer trials.
	heavyTrials := 2
	if opt.Trials < heavyTrials {
		heavyTrials = opt.Trials
	}
	d2 := 3
	check("f>=2, n=(d+1)f", d2, 2, (d2+1)*2, "gauss", heavyTrials, func(rng *rand.Rand) ([]vec.V, []int) {
		pts := workload.Gaussian(rng, (d2+1)*2, d2, 1)
		return pts, []int{0, (d2+1)*2 - 1}
	})

	// Row 3: 3f+1 <= n < (d+1)f (Conjecture 1): f = 2, d = 4, n in 7..9.
	if !opt.Quick {
		d3, f3 := 4, 2
		for _, n := range []int{7, 8, 9} {
			check("3f+1<=n<(d+1)f", d3, f3, n, "gauss", heavyTrials, func(rng *rand.Rand) ([]vec.V, []int) {
				pts := workload.Gaussian(rng, n, d3, 1)
				return pts, []int{0, n - 1}
			})
		}
	}
	note(o, "all ratios < 1: the strict upper bounds of Table 1 hold on every sampled configuration")
	note(o, "(ratios use the solver's upper bound Delta; \"Gamma empty\" counts trials whose certified lower bound is > 0)")
	return o
}

// E7InradiusAblation validates Lemma 13 and referees the cutting-plane
// solver: run with nothing but the dropped-subset family, its certified
// bracket [Lower, Delta] must contain the closed-form inscribed-sphere
// radius on random simplices.
func E7InradiusAblation(opt Options) *Outcome {
	opt = opt.withDefaults()
	rng := opt.rng()
	o := &Outcome{ID: "E7", Title: "Lemma 13: delta* = inradius; solver ablation", Pass: true}
	t := report.NewTable("", "d", "trials", "max (Delta-Lower)/exact", "max |Delta-exact|/exact", "exact in [Lower, Delta]")
	o.Table = t
	dims := []int{2, 3, 4}
	if opt.Quick {
		dims = []int{2, 3}
	}
	for _, d := range dims {
		worstGap, worstDev := 0.0, 0.0
		inside := true
		for trial := 0; trial < opt.Trials; trial++ {
			pts := workload.Gaussian(rng, d+1, d, 2)
			sx, err := simplexgeo.New(pts)
			if err != nil {
				continue
			}
			exact := sx.Inradius()
			s := vec.NewSet(pts...)
			res := minimax.DeltaStar2Iterative(s, 1)
			tol := 1e-8 * s.MaxEdge(2) // the solver's gap tolerance at most
			worstGap = math.Max(worstGap, (res.Delta-res.Lower)/exact)
			worstDev = math.Max(worstDev, math.Abs(res.Delta-exact)/exact)
			if !res.Converged || exact < res.Lower-tol || exact > res.Delta+tol {
				inside = false
			}
		}
		t.AddRow(d, opt.Trials, worstGap, worstDev, report.PassFail(inside))
		o.Pass = o.Pass && inside
	}
	note(o, "the solver's certified bracket contains the closed form on every trial")
	return o
}

// E8FacetRadii validates Lemmas 14 and 15 numerically: r < min_k r_k and
// r < maxEdge/d on random simplices, reporting the tightest observed
// slack.
func E8FacetRadii(opt Options) *Outcome {
	opt = opt.withDefaults()
	rng := opt.rng()
	o := &Outcome{ID: "E8", Title: "Lemmas 14-15: inradius vs facet inradii and edge bound", Pass: true}
	t := report.NewTable("", "d", "trials", "max r/min_k r_k", "max r*d/maxEdge", "max 2r/minEdge", "got")
	o.Table = t
	dims := []int{2, 3, 4, 5, 6}
	if opt.Quick {
		dims = []int{2, 3, 4}
	}
	for _, d := range dims {
		w14, w15, w9 := 0.0, 0.0, 0.0
		for trial := 0; trial < opt.Trials*4; trial++ {
			pts := workload.Gaussian(rng, d+1, d, 2)
			sx, err := simplexgeo.New(pts)
			if err != nil {
				continue
			}
			r := sx.Inradius()
			if d >= 2 {
				if v := r / sx.MinFacetInradius(); v > w14 {
					w14 = v
				}
			}
			if v := r * float64(d) / sx.MaxEdge(); v > w15 {
				w15 = v
			}
			if d >= 2 {
				if v := 2 * r / sx.MinEdge(); v > w9 {
					w9 = v
				}
			}
		}
		ok := w14 < 1 && w15 < 1 && w9 < 1
		t.AddRow(d, opt.Trials*4, w14, w15, w9, report.PassFail(ok))
		o.Pass = o.Pass && ok
	}
	note(o, "all three strict inequalities hold with visible slack on every sampled simplex")
	return o
}

// E9Holder validates Theorem 14: the L2 bound transfers to every Lp
// (p >= 2) with the d^(1/2-1/p) factor. Using delta*_p <= delta*_2 we
// check delta*_2 < d^(1/2-1/p) * kappa * max||e||_p directly, and also
// verify the computable delta*_inf against its own transferred bound.
func E9Holder(opt Options) *Outcome {
	opt = opt.withDefaults()
	rng := opt.rng()
	o := &Outcome{ID: "E9", Title: "Theorem 14: Holder transfer of the kappa bound to Lp", Pass: true}
	t := report.NewTable("", "d", "p", "trials", "max delta*_p / bound_p", "got")
	o.Table = t
	dims := []int{3, 4}
	if opt.Quick {
		dims = []int{3}
	}
	ps := []float64{2, 3, 4, math.Inf(1)}
	for _, d := range dims {
		n := d + 1
		for _, p := range ps {
			worst := 0.0
			ok := true
			for trial := 0; trial < opt.Trials; trial++ {
				pts := workload.Gaussian(rng, n, d, 1)
				s := vec.NewSet(pts...)
				// kappa(n,1,d,2) from Theorem 9's second bound: 1/(n-2).
				faulty := n - 1
				nonFaulty := s.Without(faulty)
				kappa2 := 1.0 / float64(n-2)
				boundP := minimax.HolderScale(d, p) * kappa2 * nonFaulty.MaxEdge(p)
				var dstarP float64
				if math.IsInf(p, 1) {
					dstarP, _ = relax.DeltaStarPoly(s, 1, p)
				} else {
					// delta*_p <= delta*_2 for p >= 2 (distance ordering).
					dstarP = minimax.DeltaStar2(s, 1).Delta
				}
				if boundP <= 0 {
					continue
				}
				if r := dstarP / boundP; r > worst {
					worst = r
				}
				if dstarP >= boundP {
					ok = false
				}
			}
			pname := report.FormatFloat(p)
			if math.IsInf(p, 1) {
				pname = "inf"
			}
			t.AddRow(d, pname, opt.Trials, worst, report.PassFail(ok))
			o.Pass = o.Pass && ok
		}
	}
	// True delta*_p via the generic Lp minimax solver (expensive: small
	// sample) — tightens the surrogate rows above.
	trueTrials := 2
	if opt.Trials < trueTrials {
		trueTrials = opt.Trials
	}
	dT := 3
	nT := dT + 1
	for _, p := range []float64{3, 4} {
		worst := 0.0
		ok := true
		for trial := 0; trial < trueTrials; trial++ {
			pts := workload.Gaussian(rng, nT, dT, 1)
			s := vec.NewSet(pts...)
			nonFaulty := s.Without(nT - 1)
			bound := minimax.HolderScale(dT, p) / float64(nT-2) * nonFaulty.MaxEdge(p)
			dstar := minimax.DeltaStarP(s, 1, p).Delta
			if bound <= 0 {
				continue
			}
			if r := dstar / bound; r > worst {
				worst = r
			}
			if dstar >= bound {
				ok = false
			}
		}
		t.AddRow(dT, report.FormatFloat(p)+" (true)", trueTrials, worst, report.PassFail(ok))
		o.Pass = o.Pass && ok
	}
	note(o, "surrogate rows use delta*_2 >= delta*_p; the '(true)' rows solve the Lp minimax directly")
	return o
}
