package lp

import (
	"math"
	"math/rand"
	"testing"
)

func mustSolve(t *testing.T, p *Problem) *Result {
	t.Helper()
	res, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve error: %v", err)
	}
	return res
}

func TestSimpleMaximize(t *testing.T) {
	// max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 (classic Dantzig).
	p := NewProblem(2)
	p.SetObjective([]float64{3, 5}, Maximize)
	p.AddConstraint([]float64{1, 0}, LE, 4)
	p.AddConstraint([]float64{0, 2}, LE, 12)
	p.AddConstraint([]float64{3, 2}, LE, 18)
	res := mustSolve(t, p)
	if res.Status != Optimal {
		t.Fatalf("status = %v", res.Status)
	}
	if math.Abs(res.Objective-36) > 1e-8 {
		t.Errorf("objective = %v, want 36", res.Objective)
	}
	if math.Abs(res.X[0]-2) > 1e-8 || math.Abs(res.X[1]-6) > 1e-8 {
		t.Errorf("X = %v, want [2 6]", res.X)
	}
}

func TestSimpleMinimizeWithGE(t *testing.T) {
	// min 2x + 3y s.t. x + y >= 4, x >= 1. Optimum at (4, 0): 8? No:
	// x=4,y=0 gives 8; x=1,y=3 gives 11. So 8.
	p := NewProblem(2)
	p.SetObjective([]float64{2, 3}, Minimize)
	p.AddConstraint([]float64{1, 1}, GE, 4)
	p.AddConstraint([]float64{1, 0}, GE, 1)
	res := mustSolve(t, p)
	if res.Status != Optimal || math.Abs(res.Objective-8) > 1e-8 {
		t.Fatalf("got %v obj %v, want optimal 8", res.Status, res.Objective)
	}
}

func TestEqualityConstraints(t *testing.T) {
	// min x + y s.t. x + 2y = 3, x - y = 0 => x = y = 1, obj 2.
	p := NewProblem(2)
	p.SetObjective([]float64{1, 1}, Minimize)
	p.AddConstraint([]float64{1, 2}, EQ, 3)
	p.AddConstraint([]float64{1, -1}, EQ, 0)
	res := mustSolve(t, p)
	if res.Status != Optimal {
		t.Fatalf("status %v", res.Status)
	}
	if math.Abs(res.X[0]-1) > 1e-8 || math.Abs(res.X[1]-1) > 1e-8 {
		t.Errorf("X = %v", res.X)
	}
}

func TestInfeasible(t *testing.T) {
	p := NewProblem(1)
	p.AddConstraint([]float64{1}, GE, 5)
	p.AddConstraint([]float64{1}, LE, 3)
	res := mustSolve(t, p)
	if res.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", res.Status)
	}
}

func TestInfeasibleByDefaultBounds(t *testing.T) {
	// x >= 0 by default, so x = -1 is infeasible.
	p := NewProblem(1)
	p.AddConstraint([]float64{1}, EQ, -1)
	res := mustSolve(t, p)
	if res.Status != Infeasible {
		t.Fatalf("status = %v", res.Status)
	}
}

func TestUnbounded(t *testing.T) {
	p := NewProblem(1)
	p.SetObjective([]float64{1}, Maximize)
	p.AddConstraint([]float64{1}, GE, 0)
	res := mustSolve(t, p)
	if res.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", res.Status)
	}
}

func TestFreeVariables(t *testing.T) {
	// min x s.t. x >= -7 with x free: optimum -7.
	p := NewProblem(1)
	p.SetFree(0)
	p.SetObjective([]float64{1}, Minimize)
	p.AddConstraint([]float64{1}, GE, -7)
	res := mustSolve(t, p)
	if res.Status != Optimal || math.Abs(res.X[0]+7) > 1e-8 {
		t.Fatalf("X = %v status %v", res.X, res.Status)
	}
}

func TestVariableBounds(t *testing.T) {
	// max x + y with 1 <= x <= 2, -3 <= y <= -1 => obj 2 + (-1) = 1.
	p := NewProblem(2)
	p.SetObjective([]float64{1, 1}, Maximize)
	p.SetBounds(0, 1, 2)
	p.SetBounds(1, -3, -1)
	res := mustSolve(t, p)
	if res.Status != Optimal {
		t.Fatalf("status %v", res.Status)
	}
	if math.Abs(res.X[0]-2) > 1e-8 || math.Abs(res.X[1]+1) > 1e-8 {
		t.Errorf("X = %v", res.X)
	}
	if math.Abs(res.Objective-1) > 1e-8 {
		t.Errorf("obj = %v", res.Objective)
	}
}

func TestUpperBoundedOnly(t *testing.T) {
	// Variable with (-inf, 5]: max x => 5.
	p := NewProblem(1)
	p.SetBounds(0, math.Inf(-1), 5)
	p.SetObjective([]float64{1}, Maximize)
	res := mustSolve(t, p)
	if res.Status != Optimal || math.Abs(res.X[0]-5) > 1e-8 {
		t.Fatalf("X = %v status %v", res.X, res.Status)
	}
}

func TestNegativeRHSNormalization(t *testing.T) {
	// -x <= -3  <=>  x >= 3; min x => 3.
	p := NewProblem(1)
	p.SetObjective([]float64{1}, Minimize)
	p.AddConstraint([]float64{-1}, LE, -3)
	res := mustSolve(t, p)
	if res.Status != Optimal || math.Abs(res.X[0]-3) > 1e-8 {
		t.Fatalf("X = %v", res.X)
	}
}

func TestSparseConstraint(t *testing.T) {
	p := NewProblem(4)
	p.SetObjective([]float64{0, 1, 0, 0}, Maximize)
	p.AddSparseConstraint([]int{1, 3}, []float64{1, 1}, LE, 10)
	p.AddSparseConstraint([]int{3}, []float64{1}, GE, 4)
	res := mustSolve(t, p)
	if res.Status != Optimal || math.Abs(res.X[1]-6) > 1e-8 {
		t.Fatalf("X = %v", res.X)
	}
}

func TestFeasibilityOnlyProblem(t *testing.T) {
	// No objective: any feasible point. x + y = 1, x,y >= 0.
	p := NewProblem(2)
	p.AddConstraint([]float64{1, 1}, EQ, 1)
	res := mustSolve(t, p)
	if res.Status != Optimal {
		t.Fatalf("status %v", res.Status)
	}
	if math.Abs(res.X[0]+res.X[1]-1) > 1e-8 || res.X[0] < -1e-9 || res.X[1] < -1e-9 {
		t.Errorf("X = %v not on simplex", res.X)
	}
}

func TestDegenerateProblem(t *testing.T) {
	// Classic degeneracy (Beale-like cycling example) -- must terminate.
	p := NewProblem(4)
	p.SetObjective([]float64{-0.75, 150, -0.02, 6}, Minimize)
	p.AddConstraint([]float64{0.25, -60, -0.04, 9}, LE, 0)
	p.AddConstraint([]float64{0.5, -90, -0.02, 3}, LE, 0)
	p.AddConstraint([]float64{0, 0, 1, 0}, LE, 1)
	res := mustSolve(t, p)
	if res.Status != Optimal {
		t.Fatalf("status = %v", res.Status)
	}
	if math.Abs(res.Objective-(-0.05)) > 1e-8 {
		t.Errorf("objective = %v, want -0.05", res.Objective)
	}
}

func TestRedundantConstraints(t *testing.T) {
	// Duplicate equalities create redundant rows in phase 1.
	p := NewProblem(2)
	p.SetObjective([]float64{1, 2}, Minimize)
	p.AddConstraint([]float64{1, 1}, EQ, 2)
	p.AddConstraint([]float64{1, 1}, EQ, 2)
	p.AddConstraint([]float64{2, 2}, EQ, 4)
	res := mustSolve(t, p)
	if res.Status != Optimal || math.Abs(res.Objective-2) > 1e-8 {
		t.Fatalf("status %v obj %v", res.Status, res.Objective)
	}
}

func TestZeroConstraintProblems(t *testing.T) {
	p := NewProblem(2)
	p.SetObjective([]float64{1, 1}, Minimize)
	res := mustSolve(t, p)
	if res.Status != Optimal || res.Objective != 0 {
		t.Fatalf("empty min: %v %v", res.Status, res.Objective)
	}
	q := NewProblem(1)
	q.SetObjective([]float64{1}, Maximize)
	res2 := mustSolve(t, q)
	if res2.Status != Unbounded {
		t.Fatalf("empty max: %v", res2.Status)
	}
}

// Convex hull membership in LP form: is q in conv{p1..pm}? This is the
// single most common use of the solver in this library.
func hullMembershipLP(pts [][]float64, q []float64) Status {
	m := len(pts)
	d := len(q)
	p := NewProblem(m)
	for k := 0; k < d; k++ {
		row := make([]float64, m)
		for i := 0; i < m; i++ {
			row[i] = pts[i][k]
		}
		p.AddConstraint(row, EQ, q[k])
	}
	ones := make([]float64, m)
	for i := range ones {
		ones[i] = 1
	}
	p.AddConstraint(ones, EQ, 1)
	res, err := p.Solve()
	if err != nil {
		panic(err)
	}
	return res.Status
}

func TestHullMembership(t *testing.T) {
	tri := [][]float64{{0, 0}, {1, 0}, {0, 1}}
	if hullMembershipLP(tri, []float64{0.2, 0.2}) != Optimal {
		t.Error("interior point not in hull")
	}
	if hullMembershipLP(tri, []float64{0.5, 0.5}) != Optimal {
		t.Error("boundary point not in hull")
	}
	if hullMembershipLP(tri, []float64{0.6, 0.6}) != Infeasible {
		t.Error("exterior point in hull")
	}
	if hullMembershipLP(tri, []float64{-0.1, 0}) != Infeasible {
		t.Error("exterior point in hull (negative)")
	}
}

// TestResetReuseMatchesFresh walks one reused Problem through a
// sequence of hull-membership LPs of varying width (Reset, then dense
// and sparse rows drawn from the free list of the previous step) and
// solves a freshly allocated twin of every step: status, objective and
// solution bits must match, and an objective, bound or constraint set
// before a Reset must not leak past it.
func TestResetReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n, d = 8, 3
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	}
	build := func(p *Problem, idx []int, q []float64, sparse bool) {
		row := make([]float64, len(idx))
		cols := make([]int, len(idx))
		for i := range cols {
			cols[i] = i
		}
		add := func(rhs float64) {
			if sparse {
				p.AddSparseConstraint(cols, row, EQ, rhs)
			} else {
				p.AddConstraint(row, EQ, rhs)
			}
		}
		for k := 0; k < d; k++ {
			for i, pi := range idx {
				row[i] = pts[pi][k]
			}
			add(q[k])
		}
		for i := range row {
			row[i] = 1
		}
		add(1)
	}
	reused := NewProblem(0)
	feasible, infeasible := 0, 0
	for step := 0; step < 60; step++ {
		m := 2 + rng.Intn(n-1) // widths 2..n: rows on the free list are both too short and long enough
		idx := rng.Perm(n)[:m]
		q := []float64{rng.NormFloat64() / 2, rng.NormFloat64() / 2, rng.NormFloat64() / 2}
		sparse := step%2 == 1

		reused.Reset(m)
		build(reused, idx, q, sparse)
		got := mustSolve(t, reused)
		fresh := NewProblem(m)
		build(fresh, idx, q, sparse)
		want := mustSolve(t, fresh)

		if got.Status != want.Status || math.Float64bits(got.Objective) != math.Float64bits(want.Objective) || len(got.X) != len(want.X) {
			t.Fatalf("step %d: reused %v obj %v, fresh %v obj %v", step, got.Status, got.Objective, want.Status, want.Objective)
		}
		for i := range got.X {
			if math.Float64bits(got.X[i]) != math.Float64bits(want.X[i]) {
				t.Fatalf("step %d: X[%d] reused %v != fresh %v", step, i, got.X[i], want.X[i])
			}
		}
		if got.Status == Optimal {
			feasible++
		} else {
			infeasible++
		}
		// State the next Reset must clear.
		obj := make([]float64, m)
		obj[0] = 1
		reused.SetObjective(obj, Maximize)
		reused.SetBounds(0, -1, 0.5)
		reused.AddConstraint(obj, GE, 2)
	}
	if feasible == 0 || infeasible == 0 {
		t.Fatalf("walk covered only one outcome: %d feasible, %d infeasible", feasible, infeasible)
	}
}

// Randomized LP duality check: for feasible bounded problems, compare the
// simplex optimum against a brute-force vertex enumeration on small random
// instances with box bounds (the box makes enumeration easy: optimum of a
// feasible LP over a polytope is attained at some basic point; we instead
// just verify feasibility and local optimality via random probing).
func TestRandomProbing(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(4)
		m := 1 + rng.Intn(5)
		p := NewProblem(n)
		c := make([]float64, n)
		for i := range c {
			c[i] = rng.NormFloat64()
		}
		p.SetObjective(c, Minimize)
		for i := 0; i < n; i++ {
			p.SetBounds(i, -2, 2) // box keeps everything bounded
		}
		type row struct {
			a   []float64
			rel Rel
			rhs float64
		}
		var rows []row
		for k := 0; k < m; k++ {
			a := make([]float64, n)
			for i := range a {
				a[i] = rng.NormFloat64()
			}
			rel := []Rel{LE, GE}[rng.Intn(2)]
			rhs := rng.NormFloat64() * 2
			p.AddConstraint(a, rel, rhs)
			rows = append(rows, row{a, rel, rhs})
		}
		res := mustSolve(t, p)
		if res.Status == Infeasible {
			continue
		}
		if res.Status != Optimal {
			t.Fatalf("trial %d: status %v", trial, res.Status)
		}
		// Feasibility of the returned point.
		for _, r := range rows {
			s := 0.0
			for i := range r.a {
				s += r.a[i] * res.X[i]
			}
			switch r.rel {
			case LE:
				if s > r.rhs+1e-6 {
					t.Fatalf("trial %d: constraint violated: %v > %v", trial, s, r.rhs)
				}
			case GE:
				if s < r.rhs-1e-6 {
					t.Fatalf("trial %d: constraint violated: %v < %v", trial, s, r.rhs)
				}
			}
		}
		for i := range res.X {
			if res.X[i] < -2-1e-6 || res.X[i] > 2+1e-6 {
				t.Fatalf("trial %d: bound violated: x[%d]=%v", trial, i, res.X[i])
			}
		}
		// Local optimality probe: random feasible perturbations should not
		// beat the reported optimum.
		for probe := 0; probe < 50; probe++ {
			x := make([]float64, n)
			for i := range x {
				x[i] = -2 + 4*rng.Float64()
			}
			ok := true
			for _, r := range rows {
				s := 0.0
				for i := range r.a {
					s += r.a[i] * x[i]
				}
				if (r.rel == LE && s > r.rhs) || (r.rel == GE && s < r.rhs) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			obj := 0.0
			for i := range c {
				obj += c[i] * x[i]
			}
			if obj < res.Objective-1e-6 {
				t.Fatalf("trial %d: random point beats optimum: %v < %v", trial, obj, res.Objective)
			}
		}
	}
}

func TestPanicsOnBadInput(t *testing.T) {
	p := NewProblem(2)
	for name, fn := range map[string]func(){
		"objective length": func() { p.SetObjective([]float64{1}, Minimize) },
		"constraint width": func() { p.AddConstraint([]float64{1}, LE, 0) },
		"bounds reversed":  func() { p.SetBounds(0, 2, 1) },
		"bounds index":     func() { p.SetBounds(9, 0, 1) },
		"sparse mismatch":  func() { p.AddSparseConstraint([]int{0}, []float64{1, 2}, LE, 0) },
		"sparse index":     func() { p.AddSparseConstraint([]int{7}, []float64{1}, LE, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestStatusAndRelStrings(t *testing.T) {
	if Optimal.String() != "optimal" || Infeasible.String() != "infeasible" ||
		Unbounded.String() != "unbounded" || IterationLimit.String() != "iteration-limit" {
		t.Error("Status strings wrong")
	}
	if LE.String() != "<=" || EQ.String() != "==" || GE.String() != ">=" {
		t.Error("Rel strings wrong")
	}
	if Status(99).String() != "?" || Rel(99).String() != "?" {
		t.Error("unknown enum strings wrong")
	}
}

func TestMaximizeEqualsNegatedMinimize(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(3)
		c := make([]float64, n)
		for i := range c {
			c[i] = rng.NormFloat64()
		}
		build := func(sense Sense, obj []float64) *Result {
			p := NewProblem(n)
			p.SetObjective(obj, sense)
			for i := 0; i < n; i++ {
				p.SetBounds(i, -1, 1)
			}
			row := make([]float64, n)
			for i := range row {
				row[i] = 1
			}
			p.AddConstraint(row, LE, 1)
			res, err := p.Solve()
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		rmax := build(Maximize, c)
		neg := make([]float64, n)
		for i := range c {
			neg[i] = -c[i]
		}
		rmin := build(Minimize, neg)
		if rmax.Status != Optimal || rmin.Status != Optimal {
			t.Fatalf("statuses %v %v", rmax.Status, rmin.Status)
		}
		if math.Abs(rmax.Objective+rmin.Objective) > 1e-7 {
			t.Fatalf("max %v != -min %v", rmax.Objective, rmin.Objective)
		}
	}
}
