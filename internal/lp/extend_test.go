package lp

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// growth grows a block-structured Problem the way the lazy hull loop
// does: old variables of every bound kind under a few base rows, then
// blocks of new default-bounded variables whose rows couple them to the
// old ones. x0 is a point every row is built to hold at, unless a block
// is made infeasible on purpose.
type growth struct {
	p     *Problem
	x0    []float64
	boxed bool // every variable bounded by rows: objectives have optima
	// What the stream exercised, over every step.
	redundant, infeasible, negRHS int
}

// newGrowth draws 2-5 old variables (free, shifted, doubly bounded,
// upper-bounded only and default) and 1-4 base rows, one of them at
// times repeated (a redundant row whose artificial stays basic).
func newGrowth(rng *rand.Rand) *growth {
	nOld := 2 + rng.Intn(4)
	g := &growth{p: NewProblem(nOld), boxed: rng.Intn(8) > 0}
	for i := 0; i < nOld; i++ {
		var v float64
		switch rng.Intn(5) {
		case 0:
			g.p.SetFree(i)
			v = 2 * rng.NormFloat64()
			g.box(i, v)
		case 1:
			lo := 2 * rng.NormFloat64()
			g.p.SetBounds(i, lo, math.Inf(1))
			v = lo + rng.ExpFloat64()
			g.box(i, v)
		case 2:
			lo := 2 * rng.NormFloat64()
			up := lo + 1 + 3*rng.Float64()
			g.p.SetBounds(i, lo, up)
			v = lo + (up-lo)*rng.Float64()
		case 3:
			up := 2 * rng.NormFloat64()
			g.p.SetBounds(i, math.Inf(-1), up)
			v = up - rng.ExpFloat64()
			g.box(i, v)
		default:
			v = rng.ExpFloat64()
			g.box(i, v)
		}
		g.x0 = append(g.x0, v)
	}
	for range 1 + rng.Intn(4) {
		g.row(rng, 0, nOld, Rel(rng.Intn(3)))
	}
	if rng.Intn(3) == 0 {
		g.repeat(len(g.p.rel) - 1)
	}
	return g
}

// box bounds variable i, valued v at x0, by rows of both relations when
// the stream keeps objectives bounded.
func (g *growth) box(i int, v float64) {
	if g.boxed {
		g.p.AddSparseConstraint([]int{i}, []float64{1}, LE, v+5)
		g.p.AddSparseConstraint([]int{i}, []float64{1}, GE, v-5)
	}
}

// row adds a random row over variables [0, nOld) and [from, NumVars())
// that holds at x0 with relation rel: tight for EQ, with a random margin
// otherwise.
func (g *growth) row(rng *rand.Rand, from, nOld int, rel Rel) {
	var idx []int
	var val []float64
	at := 0.0
	for i := 0; i < g.p.NumVars(); i++ {
		if (i < nOld || i >= from) && rng.Intn(3) > 0 {
			a := rng.NormFloat64()
			idx, val = append(idx, i), append(val, a)
			at += a * g.x0[i]
		}
	}
	switch rel {
	case LE:
		at += rng.Float64()
	case GE:
		at -= rng.Float64()
	}
	if at < 0 {
		g.negRHS++
	}
	g.p.AddSparseConstraint(idx, val, rel, at)
}

// repeat adds constraint r again, twice over: a redundant row.
func (g *growth) repeat(r int) {
	p := g.p
	var idx []int
	var val []float64
	for k := p.rowStart(r); k < p.end[r]; k++ {
		idx, val = append(idx, p.idx[k]), append(val, 2*p.val[k])
	}
	p.AddSparseConstraint(idx, val, p.rel[r], 2*p.rhs[r])
	g.redundant++
}

// step adds a block of 1-4 new variables: their weight row (EQ), 1-4
// rows coupling them to the old variables, at times a redundant repeat
// of one of those, and at times a contradiction (the weight row again
// with another right-hand side) that leaves the grown system infeasible.
func (g *growth) step(rng *rand.Rand, nOld int) {
	k := 1 + rng.Intn(4)
	from := g.p.AddVars(k)
	idx, ones, sum := make([]int, k), make([]float64, k), 0.0
	for j := range k {
		v := 0.0
		if rng.Intn(4) > 0 {
			v = rng.ExpFloat64()
		}
		g.x0 = append(g.x0, v)
		idx[j], ones[j] = from+j, 1
		sum += v
	}
	g.p.AddSparseConstraint(idx, ones, EQ, sum)
	first := len(g.p.rel)
	for range 1 + rng.Intn(4) {
		g.row(rng, from, nOld, Rel(rng.Intn(3)))
	}
	if rng.Intn(4) == 0 {
		g.repeat(first + rng.Intn(len(g.p.rel)-first))
	}
	if rng.Intn(10) == 0 {
		g.p.AddSparseConstraint(idx, ones, EQ, sum+1+rng.Float64())
		g.infeasible++
	}
}

// scale is the magnitude the solver's tolerances are relative to.
func (g *growth) scale() float64 {
	s := 1.0
	for _, v := range g.p.rhs {
		s = max(s, math.Abs(v))
	}
	for _, v := range g.x0 {
		s = max(s, math.Abs(v))
	}
	return s
}

// checkFeasible reports the first row or bound x violates by more than
// tol.
func checkFeasible(p *Problem, x []float64, tol float64) string {
	for i, v := range x {
		if v < p.lo[i]-tol || v > p.up[i]+tol {
			return fmt.Sprintf("x[%d] = %v outside [%v, %v]", i, v, p.lo[i], p.up[i])
		}
	}
	for r := range p.rel {
		lhs := 0.0
		for k := p.rowStart(r); k < p.end[r]; k++ {
			lhs += p.val[k] * x[p.idx[k]]
		}
		b := p.rhs[r]
		if p.rel[r] != GE && lhs > b+tol || p.rel[r] != LE && lhs < b-tol {
			return fmt.Sprintf("row %d: %v %v %v", r, lhs, p.rel[r], b)
		}
	}
	return ""
}

// checkDual reports the first sign condition of an optimal dual the
// result breaks, beyond tol: with the objective and Dual read as a
// minimization's, an LE row's multiplier is <= 0 and a GE row's >= 0, a
// non-zero multiplier sits on a tight row, and the reduced cost
// c - A^T Dual is >= 0 at a lower bound, <= 0 at an upper bound and 0
// strictly between.
func checkDual(p *Problem, obj []float64, sense Sense, res *Result, tol float64) string {
	mult := 1.0
	if sense == Maximize {
		mult = -1
	}
	red := make([]float64, p.n)
	for j, c := range obj {
		red[j] = mult * c
	}
	for r := range p.rel {
		y := mult * res.Dual[r]
		lhs := 0.0
		for k := p.rowStart(r); k < p.end[r]; k++ {
			lhs += p.val[k] * res.X[p.idx[k]]
			red[p.idx[k]] -= y * p.val[k]
		}
		switch {
		case p.rel[r] == LE && y > tol, p.rel[r] == GE && y < -tol:
			return fmt.Sprintf("row %d (%v): multiplier %v", r, p.rel[r], y)
		case math.Abs(y) > tol && math.Abs(lhs-p.rhs[r]) > tol:
			return fmt.Sprintf("row %d: multiplier %v on a slack row (%v vs %v)", r, y, lhs, p.rhs[r])
		}
	}
	for j, rc := range red {
		atLo := res.X[j] <= p.lo[j]+tol
		atUp := res.X[j] >= p.up[j]-tol
		if !atLo && rc > tol || !atUp && rc < -tol {
			return fmt.Sprintf("variable %d = %v in [%v, %v]: reduced cost %v", j, res.X[j], p.lo[j], p.up[j], rc)
		}
	}
	return ""
}

// TestPreparedExtendMatchesCold grows random block-structured systems by
// one to four Extends in a row and holds each grown basis to a cold
// Prepare of the same Problem: the same feasibility verdict, and for
// random objectives of both senses the same status, objectives within
// 1e-9 of scale, every row and bound satisfied to the solver's
// feasibility tolerance and a Dual that is an optimal dual solution.
func TestPreparedExtendMatchesCold(t *testing.T) {
	trials := 3000
	if testing.Short() {
		trials = 300
	}
	seen := map[Status]int{}
	var redundant, infeasible, negRHS, negReduced, basicArt, warmPivots, coldPivots int
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		g := newGrowth(rng)
		nOld := g.p.NumVars()
		var warm Prepared
		g.p.PrepareInto(&warm)
		for step := range 1 + rng.Intn(4) {
			g.step(rng, nOld)
			where := fmt.Sprintf("trial %d step %d (%d vars, %d rows)", trial, step, g.p.NumVars(), len(g.p.rel))
			before := lpPhase1Pivots.Value()
			hit := warm.Extend(g.p)
			warmPivots += int(lpPhase1Pivots.Value() - before)
			for _, c := range warm.t.basis {
				if hit && c >= warm.t.n {
					basicArt++
				}
			}
			for _, neg := range warm.negated {
				if hit && neg {
					negReduced++
				}
			}
			before = lpPhase1Pivots.Value()
			cold := g.p.Prepare()
			coldPivots += int(lpPhase1Pivots.Value() - before)
			if hit != (cold.status == Optimal) || !hit && warm.status != cold.status {
				t.Fatalf("%s: Extend %v (%v), cold phase 1 %v", where, hit, warm.status, cold.status)
			}
			scale := g.scale()
			for k := range 3 {
				obj := make([]float64, g.p.NumVars())
				for j := range obj {
					obj[j] = rng.NormFloat64()
				}
				sense := Sense(k % 2)
				got, want := warm.Solve(obj, sense), cold.Solve(obj, sense)
				seen[want.Status]++
				if got.Status != want.Status {
					t.Fatalf("%s objective %d: extended %v, cold %v", where, k, got.Status, want.Status)
				}
				if want.Status != Optimal {
					continue
				}
				if d := math.Abs(got.Objective - want.Objective); d > 1e-9*max(scale, math.Abs(want.Objective)) {
					t.Fatalf("%s objective %d: extended %v, cold %v", where, k, got.Objective, want.Objective)
				}
				if msg := checkFeasible(g.p, got.X, 1e-7*scale); msg != "" {
					t.Fatalf("%s objective %d: extended point: %s", where, k, msg)
				}
				if msg := checkDual(g.p, obj, sense, got, 1e-7*scale); msg != "" {
					t.Fatalf("%s objective %d: extended dual: %s", where, k, msg)
				}
			}
			cold.Release()
		}
		warm.Release()
		redundant, infeasible, negRHS = redundant+g.redundant, infeasible+g.infeasible, negRHS+g.negRHS
	}
	t.Logf("objectives %v; %d redundant rows, %d artificials left basic in extended bases, %d infeasible blocks, %d negative right-hand sides, %d new rows turned (reduced right-hand side < 0, or a surplus row at 0); phase-1 pivots extended %d, cold %d",
		seen, redundant, basicArt, infeasible, negRHS, negReduced, warmPivots, coldPivots)
	if seen[Optimal] == 0 || seen[Infeasible] == 0 || seen[Unbounded] == 0 || basicArt == 0 || negRHS == 0 || negReduced == 0 {
		t.Fatal("stream missed a case the referee must exercise")
	}
}

// TestPreparedExtendOwnsItsWorkspace: an extended Prepared keeps
// answering as a cold Prepare of its grown Problem while other solves
// recycle pooled workspaces on the same goroutine and on another one
// (run under -race), and Extend after Release panics.
func TestPreparedExtendOwnsItsWorkspace(t *testing.T) {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		other := rand.New(rand.NewSource(9))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			genLP(other, i).problem().Solve()
		}
	}()
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		g := newGrowth(rng)
		nOld := g.p.NumVars()
		var warm Prepared
		g.p.PrepareInto(&warm)
		for step := range 4 {
			g.step(rng, nOld)
			genLP(rng, step).problem().Solve()
			warm.Extend(g.p)
			inner := genLP(rng, step+1).problem().Prepare()
			inner.Solve(make([]float64, inner.nvars), Minimize)
			inner.Release()
			obj := make([]float64, g.p.NumVars())
			obj[0] = 1
			cold := g.p.Prepare()
			got, want := warm.Solve(obj, Minimize), cold.Solve(obj, Minimize)
			cold.Release()
			if got.Status != want.Status || got.Status == Optimal && math.Abs(got.Objective-want.Objective) > 1e-9*g.scale() {
				t.Fatalf("trial %d step %d: extended %v %v, cold %v %v", trial, step, got.Status, got.Objective, want.Status, want.Objective)
			}
		}
		warm.Release()
	}
	close(stop)
	wg.Wait()

	p := NewProblem(1)
	p.AddConstraint([]float64{1}, LE, 1)
	pr := p.Prepare()
	pr.Release()
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "after Release") {
			t.Fatalf("Extend after Release: recovered %q", msg)
		}
	}()
	pr.Extend(p)
}
