package lp

import (
	"math"
	"math/rand"
	"testing"
)

// Result.Dual is the sensitivity of the optimum to each right-hand side:
// checked by finite differences on random feasible bounded problems in
// both senses, with every relation and with negative right-hand sides.
func TestDualIsRHSSensitivity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	build := func(n int, rows [][]float64, rels []Rel, rhs []float64, obj []float64, sense Sense) *Problem {
		p := NewProblem(n)
		for j := 0; j < n; j++ {
			p.SetBounds(j, -3, 3)
		}
		p.SetObjective(obj, sense)
		for i := range rows {
			p.AddConstraint(rows[i], rels[i], rhs[i])
		}
		return p
	}
	checked := 0
	for trial := 0; trial < 200; trial++ {
		n, m := 2+rng.Intn(3), 1+rng.Intn(4)
		x0 := make([]float64, n)
		for j := range x0 {
			x0[j] = rng.Float64()*4 - 2
		}
		rows := make([][]float64, m)
		rels := make([]Rel, m)
		rhs := make([]float64, m)
		for i := range rows {
			rows[i] = make([]float64, n)
			at := 0.0
			for j := range rows[i] {
				rows[i][j] = rng.NormFloat64()
				at += rows[i][j] * x0[j]
			}
			rels[i] = Rel(rng.Intn(3))
			switch rels[i] {
			case LE:
				rhs[i] = at + rng.Float64()
			case GE:
				rhs[i] = at - rng.Float64()
			default:
				rhs[i] = at
			}
		}
		obj := make([]float64, n)
		for j := range obj {
			obj[j] = rng.NormFloat64()
		}
		sense := Sense(trial % 2)
		base, err := build(n, rows, rels, rhs, obj, sense).Solve()
		if err != nil || base.Status != Optimal {
			continue
		}
		if len(base.Dual) != m {
			t.Fatalf("len(Dual) = %d, want %d", len(base.Dual), m)
		}
		for i := range rhs {
			const h = 1e-6
			up, dn := append([]float64(nil), rhs...), append([]float64(nil), rhs...)
			up[i] += h
			dn[i] -= h
			ru, _ := build(n, rows, rels, up, obj, sense).Solve()
			rd, _ := build(n, rows, rels, dn, obj, sense).Solve()
			if ru.Status != Optimal || rd.Status != Optimal {
				continue
			}
			slopeUp := (ru.Objective - base.Objective) / h
			slopeDn := (base.Objective - rd.Objective) / h
			if math.Abs(slopeUp-slopeDn) > 1e-4 {
				continue // degenerate optimum: a kink, any subgradient is allowed
			}
			if math.Abs(base.Dual[i]-slopeUp) > 1e-4*(1+math.Abs(slopeUp)) {
				t.Fatalf("trial %d row %d (%v, sense %v): Dual = %v, finite difference = %v", trial, i, rels[i], sense, base.Dual[i], slopeUp)
			}
			checked++
		}
	}
	if checked < 200 {
		t.Fatalf("only %d sensitivities checked", checked)
	}
}
