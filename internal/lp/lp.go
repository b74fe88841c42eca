// Package lp implements a self-contained dense linear programming solver:
// a two-phase primal simplex method with Bland anti-cycling fallback.
//
// It is the workhorse behind every exact geometric predicate in this
// library: convex hull membership, L1/Linf point-to-hull distances,
// emptiness of Gamma(Y), Psi_k(Y) and Gamma_(delta,p)(S) intersections,
// and Tverberg partition feasibility all reduce to LP feasibility or
// optimization over simplices of convex weights.
//
// Problems are stated in the natural form
//
//	min / max  c^T x
//	s.t.       a_i^T x  {<=, =, >=}  b_i
//	           lo_j <= x_j <= up_j     (defaults: 0 <= x_j < +Inf)
//
// Free and shifted variables are handled by internal substitution; the
// solver reports Optimal, Infeasible or Unbounded along with the primal
// solution mapped back to the original variables.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Sense selects minimization or maximization.
type Sense int

const (
	Minimize Sense = iota
	Maximize
)

// Rel is a constraint relation.
type Rel int

const (
	LE Rel = iota // <=
	EQ            // ==
	GE            // >=
)

func (r Rel) String() string {
	switch r {
	case LE:
		return "<="
	case EQ:
		return "=="
	case GE:
		return ">="
	}
	return "?"
}

// Status is the outcome of a solve.
type Status int

const (
	Optimal Status = iota
	Infeasible
	Unbounded
	IterationLimit
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterationLimit:
		return "iteration-limit"
	}
	return "?"
}

// Result holds the solution of an LP.
type Result struct {
	Status    Status
	X         []float64 // values of the original variables (valid when Optimal)
	Objective float64   // objective value in the original sense (valid when Optimal)
	// Dual[i] is the multiplier of the i-th constraint added: the rate at
	// which the optimal Objective changes per unit of that constraint's
	// right-hand side (valid when Optimal; a subgradient at a degenerate
	// optimum). Read off the final basis, it is feasible for the dual LP
	// to the solver's tolerance.
	Dual []float64
}

type constraint struct {
	coef []float64
	rel  Rel
	rhs  float64
}

// Problem is a linear program under construction.
type Problem struct {
	n     int
	obj   []float64
	sense Sense
	cons  []constraint
	lo    []float64
	up    []float64
	spare [][]float64 // retired constraint rows available for reuse
}

// NewProblem returns a problem with n decision variables, default bounds
// [0, +Inf) and a zero minimization objective (a pure feasibility problem
// until SetObjective is called).
func NewProblem(n int) *Problem {
	if n < 0 {
		panic("lp: negative variable count")
	}
	p := &Problem{
		n:   n,
		obj: make([]float64, n),
		lo:  make([]float64, n),
		up:  make([]float64, n),
	}
	for i := range p.up {
		p.up[i] = math.Inf(1)
	}
	return p
}

// Reset reconfigures p in place as a fresh n-variable feasibility
// problem (zero minimization objective, default bounds [0, +Inf), no
// constraints), retaining previously allocated storage: the coefficient
// rows of dropped constraints go on a free list that AddConstraint /
// AddSparseConstraint draw from. Hot callers that build thousands of
// structurally similar LPs (the subset-sweep kernels) reuse one Problem
// per worker instead of allocating a tableau-sized set of rows per
// candidate. Reset must not be called while a Solve on p is in flight.
func (p *Problem) Reset(n int) {
	if n < 0 {
		panic("lp: negative variable count")
	}
	lpProblemResets.Inc()
	for _, c := range p.cons {
		p.spare = append(p.spare, c.coef)
	}
	p.cons = p.cons[:0]
	p.n = n
	p.sense = Minimize
	p.obj = resizeFill(p.obj, n, 0)
	p.lo = resizeFill(p.lo, n, 0)
	p.up = resizeFill(p.up, n, math.Inf(1))
}

// resizeFill returns s resized to length n with every element set to v,
// reusing the backing array when it is large enough.
func resizeFill(s []float64, n int, v float64) []float64 {
	if cap(s) < n {
		s = make([]float64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = v
	}
	return s
}

// row returns a zeroed length-p.n coefficient row, preferring the free
// list populated by Reset over a fresh allocation.
func (p *Problem) row() []float64 {
	for len(p.spare) > 0 {
		r := p.spare[len(p.spare)-1]
		p.spare = p.spare[:len(p.spare)-1]
		if cap(r) >= p.n {
			r = r[:p.n]
			clear(r)
			return r
		}
	}
	return make([]float64, p.n)
}

// NumVars returns the number of decision variables.
func (p *Problem) NumVars() int { return p.n }

// NumConstraints returns the number of constraints added so far.
func (p *Problem) NumConstraints() int { return len(p.cons) }

// SetObjective sets the objective coefficients and sense. The slice is
// copied. len(c) must equal the variable count.
func (p *Problem) SetObjective(c []float64, sense Sense) {
	if len(c) != p.n {
		panic(fmt.Sprintf("lp: objective length %d != %d vars", len(c), p.n))
	}
	copy(p.obj, c)
	p.sense = sense
}

// AddConstraint appends the constraint coef . x (rel) rhs. The coefficient
// slice is copied.
func (p *Problem) AddConstraint(coef []float64, rel Rel, rhs float64) {
	if len(coef) != p.n {
		panic(fmt.Sprintf("lp: constraint length %d != %d vars", len(coef), p.n))
	}
	row := p.row()
	copy(row, coef)
	p.cons = append(p.cons, constraint{coef: row, rel: rel, rhs: rhs})
}

// AddSparseConstraint appends a constraint given as (index, coefficient)
// pairs; unspecified coefficients are zero.
func (p *Problem) AddSparseConstraint(idx []int, coef []float64, rel Rel, rhs float64) {
	if len(idx) != len(coef) {
		panic("lp: sparse constraint index/coef length mismatch")
	}
	full := p.row()
	for k, i := range idx {
		if i < 0 || i >= p.n {
			panic("lp: sparse constraint index out of range")
		}
		full[i] += coef[k]
	}
	p.cons = append(p.cons, constraint{coef: full, rel: rel, rhs: rhs})
}

// SetBounds sets lo <= x_i <= up. Use math.Inf(-1) / math.Inf(1) for
// unbounded sides.
func (p *Problem) SetBounds(i int, lo, up float64) {
	if i < 0 || i >= p.n {
		panic("lp: SetBounds index out of range")
	}
	if lo > up {
		panic("lp: SetBounds lo > up")
	}
	p.lo[i] = lo
	p.up[i] = up
}

// SetFree marks x_i as a free variable (-Inf, +Inf).
func (p *Problem) SetFree(i int) { p.SetBounds(i, math.Inf(-1), math.Inf(1)) }

// ErrMalformed is returned for structurally unusable problems.
var ErrMalformed = errors.New("lp: malformed problem")

const (
	eps      = 1e-9
	pivotEps = 1e-10
)

// Solve runs the two-phase simplex method and returns the result. It is
// safe to call concurrently on distinct Problems (and on the same
// Problem, which Solve never mutates); scratch storage comes from a
// shared sync.Pool of solver workspaces.
func (p *Problem) Solve() (*Result, error) {
	lpSolves.Inc()
	lpPoolGets.Inc()
	ws := wsPool.Get().(*workspace)
	ws.reset()
	defer wsPool.Put(ws)
	std, err := p.standardize(ws)
	if err != nil {
		return nil, err
	}
	res := std.solve()
	switch res.Status {
	case IterationLimit:
		lpIterLimited.Inc()
	case Infeasible:
		lpInfeasible.Inc()
	}
	if res.Status == Optimal {
		res.X = std.recover(res.X)
		// Recompute the objective in original terms for exactness.
		obj := 0.0
		for i, c := range p.obj {
			obj += c * res.X[i]
		}
		res.Objective = obj
	}
	return res, nil
}

// standard holds a problem in the computational standard form
// min c^T y, A y = b, y >= 0, b >= 0, together with the recipe to map y
// back to the original x.
type standard struct {
	m, n int // n includes slacks/surpluses, excludes artificials
	a    [][]float64
	b    []float64
	c    []float64
	// mapping back: x_i = shift_i + sum over terms (sign * y_j)
	terms  [][2]int  // per original var: (posIdx, negIdx); negIdx == -1 if none
	shift  []float64 // additive shift per original var
	sign   []float64 // +1 or -1 multiplier on the primary term
	orig   *Problem
	artRow []bool // rows that required an artificial in phase 1
	ws     *workspace
	// dual recipe: the multiplier of original constraint i is
	// dualSign[i] times the final reduced cost of column dualCol[i] (its
	// slack or surplus column, or its artificial when it has neither).
	dualCol  []int
	dualSign []float64
}

func (p *Problem) standardize(ws *workspace) (*standard, error) {
	// Variable substitutions to reach y >= 0:
	//   lo finite:            x = lo + y          (sign +1)
	//   lo = -inf, up finite: x = up - y          (sign -1)
	//   free:                 x = y+ - y-         (two columns)
	// A residual finite upper bound (after a lo shift) becomes an extra
	// row  y <= up - lo.
	type sub struct {
		pos, neg int
		shift    float64
		sign     float64
		extraUB  float64 // residual upper bound on the pos column; +Inf if none
	}
	subs := make([]sub, p.n)
	ncols := 0
	for i := 0; i < p.n; i++ {
		lo, up := p.lo[i], p.up[i]
		switch {
		case !math.IsInf(lo, -1):
			s := sub{pos: ncols, neg: -1, shift: lo, sign: 1, extraUB: math.Inf(1)}
			if !math.IsInf(up, 1) {
				s.extraUB = up - lo
			}
			subs[i] = s
			ncols++
		case !math.IsInf(up, 1):
			subs[i] = sub{pos: ncols, neg: -1, shift: up, sign: -1, extraUB: math.Inf(1)}
			ncols++
		default:
			subs[i] = sub{pos: ncols, neg: ncols + 1, shift: 0, sign: 1, extraUB: math.Inf(1)}
			ncols += 2
		}
	}

	// Count rows: original constraints plus residual upper bounds.
	var rows []constraint
	for _, c := range p.cons {
		rows = append(rows, c)
	}
	for i := range subs {
		if !math.IsInf(subs[i].extraUB, 1) {
			// y_pos <= extraUB, expressed over original variable space later;
			// mark with a sentinel constraint handled below.
			rows = append(rows, constraint{coef: nil, rel: LE, rhs: subs[i].extraUB})
		}
	}

	m := len(rows)
	// Translate each row into the substituted variables, then add slack /
	// surplus columns.
	type rowData struct {
		coef []float64
		rel  Rel
		rhs  float64
		neg  bool // negated to make rhs non-negative
	}
	trans := make([]rowData, 0, m)
	ubIdx := 0
	ubVars := make([]int, 0)
	for i := range subs {
		if !math.IsInf(subs[i].extraUB, 1) {
			ubVars = append(ubVars, i)
		}
	}
	for ri, c := range rows {
		coef := ws.floats(ncols)
		rhs := c.rhs
		if c.coef == nil {
			// Residual upper bound row for ubVars[ubIdx].
			v := ubVars[ubIdx]
			ubIdx++
			coef[subs[v].pos] = 1
			trans = append(trans, rowData{coef: coef, rel: LE, rhs: rhs})
			continue
		}
		for i, a := range c.coef {
			if a == 0 {
				continue
			}
			s := subs[i]
			rhs -= a * s.shift
			coef[s.pos] += a * s.sign
			if s.neg >= 0 {
				coef[s.neg] -= a
			}
		}
		trans = append(trans, rowData{coef: coef, rel: c.rel, rhs: rhs})
		_ = ri
	}

	// Normalize rhs >= 0.
	for i := range trans {
		if trans[i].rhs < 0 {
			for j := range trans[i].coef {
				trans[i].coef[j] = -trans[i].coef[j]
			}
			trans[i].rhs = -trans[i].rhs
			trans[i].neg = true
			switch trans[i].rel {
			case LE:
				trans[i].rel = GE
			case GE:
				trans[i].rel = LE
			}
		}
	}

	// Add slack (LE) and surplus (GE) columns.
	nSlack := 0
	for _, r := range trans {
		if r.rel != EQ {
			nSlack++
		}
	}
	total := ncols + nSlack
	a := make([][]float64, m)
	b := ws.floats(m)
	artRow := make([]bool, m)
	dualCol := ws.ints(len(p.cons))
	dualSign := ws.floats(len(p.cons))
	sIdx, artIdx := ncols, total
	for i, r := range trans {
		a[i] = ws.floats(total)
		copy(a[i], r.coef)
		b[i] = r.rhs
		// A zero-cost column +-e_i has reduced cost -+pi_i.
		col, sign := sIdx, -1.0
		switch r.rel {
		case LE:
			a[i][sIdx] = 1
			sIdx++
		case GE:
			a[i][sIdx] = -1
			sIdx++
			sign = 1
			artRow[i] = true
		case EQ:
			col = artIdx
			artRow[i] = true
		}
		if artRow[i] {
			artIdx++
		}
		if i < len(p.cons) {
			if r.neg != (p.sense == Maximize) {
				sign = -sign
			}
			dualCol[i], dualSign[i] = col, sign
		}
	}

	// Objective over substituted variables (always minimize internally).
	c := ws.floats(total)
	mult := 1.0
	if p.sense == Maximize {
		mult = -1
	}
	for i, oc := range p.obj {
		if oc == 0 {
			continue
		}
		s := subs[i]
		c[s.pos] += mult * oc * s.sign
		if s.neg >= 0 {
			c[s.neg] -= mult * oc
		}
	}

	terms := make([][2]int, p.n)
	shift := make([]float64, p.n)
	sign := make([]float64, p.n)
	for i, s := range subs {
		terms[i] = [2]int{s.pos, s.neg}
		shift[i] = s.shift
		sign[i] = s.sign
	}
	return &standard{
		m: m, n: total, a: a, b: b, c: c,
		terms: terms, shift: shift, sign: sign, orig: p, artRow: artRow,
		ws: ws, dualCol: dualCol, dualSign: dualSign,
	}, nil
}

// recover maps a standard-form solution back to original variables.
func (s *standard) recover(y []float64) []float64 {
	x := make([]float64, s.orig.n)
	for i := range x {
		v := s.shift[i] + s.sign[i]*y[s.terms[i][0]]
		if s.terms[i][1] >= 0 {
			v -= y[s.terms[i][1]]
		}
		x[i] = v
	}
	return x
}
