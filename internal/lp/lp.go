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

// Problem is a linear program under construction. Constraints live in
// flat sparse storage owned by the problem and reused across Reset: row
// i is (rel[i], rhs[i]) over entries [end[i-1], end[i]) of idx/val,
// held in ascending variable index with duplicate indices summed and
// zero coefficients dropped.
type Problem struct {
	n     int
	obj   []float64
	sense Sense
	lo    []float64
	up    []float64
	rel   []Rel
	rhs   []float64
	end   []int
	idx   []int
	val   []float64
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
		up:  resizeFill(nil, n, math.Inf(1)),
	}
	return p
}

// Reset reconfigures p in place as a fresh n-variable feasibility
// problem (zero minimization objective, default bounds [0, +Inf), no
// constraints), retaining previously allocated storage: the flat
// constraint arrays are truncated, not freed. Hot callers that build
// thousands of structurally similar LPs (the subset-sweep kernels) reuse
// one Problem per worker and stop allocating once it has seen its
// largest LP. Reset must not be called while a Solve or Prepare on p is
// in flight; a Prepared already returned does not read p again.
func (p *Problem) Reset(n int) {
	if n < 0 {
		panic("lp: negative variable count")
	}
	lpProblemResets.Inc()
	p.rel, p.rhs, p.end = p.rel[:0], p.rhs[:0], p.end[:0]
	p.idx, p.val = p.idx[:0], p.val[:0]
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

// NumVars returns the number of decision variables.
func (p *Problem) NumVars() int { return p.n }

// NumConstraints returns the number of constraints added so far.
func (p *Problem) NumConstraints() int { return len(p.rel) }

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
	for i, a := range coef {
		if a != 0 {
			p.idx = append(p.idx, i)
			p.val = append(p.val, a)
		}
	}
	p.closeRow(rel, rhs)
}

// AddSparseConstraint appends a constraint given as (index, coefficient)
// pairs; unspecified coefficients are zero and the coefficients of a
// repeated index are summed in the order given.
func (p *Problem) AddSparseConstraint(idx []int, coef []float64, rel Rel, rhs float64) {
	if len(idx) != len(coef) {
		panic("lp: sparse constraint index/coef length mismatch")
	}
	for _, i := range idx {
		if i < 0 || i >= p.n {
			panic("lp: sparse constraint index out of range")
		}
	}
	// Stable insertion into ascending index order: callers hand over
	// nearly sorted rows (one shared variable after a run of weights), and
	// equal indices keep their order so the merge below sums them as a
	// dense row's += would.
	base := len(p.idx)
	for k, i := range idx {
		j := len(p.idx)
		p.idx = append(p.idx, i)
		p.val = append(p.val, coef[k])
		for ; j > base && p.idx[j-1] > i; j-- {
			p.idx[j], p.val[j] = p.idx[j-1], p.val[j-1]
		}
		p.idx[j], p.val[j] = i, coef[k]
	}
	w := base
	for r := base; r < len(p.idx); {
		i, sum := p.idx[r], 0.0
		for ; r < len(p.idx) && p.idx[r] == i; r++ {
			sum += p.val[r]
		}
		if sum != 0 {
			p.idx[w], p.val[w] = i, sum
			w++
		}
	}
	p.idx, p.val = p.idx[:w], p.val[:w]
	p.closeRow(rel, rhs)
}

// closeRow ends the constraint whose entries were just appended.
func (p *Problem) closeRow(rel Rel, rhs float64) {
	p.rel = append(p.rel, rel)
	p.rhs = append(p.rhs, rhs)
	p.end = append(p.end, len(p.idx))
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

// Solve runs the two-phase simplex method and returns the result:
// Prepare, the problem's own objective solved in place on the prepared
// tableau, Release. It is safe to call concurrently on distinct
// Problems (and on the same Problem, which Solve never mutates);
// scratch storage comes from a shared sync.Pool of solver workspaces.
func (p *Problem) Solve() (*Result, error) {
	var pr Prepared
	p.prepare(&pr)
	res, _ := pr.solve(p.obj, p.sense, true)
	pr.Release()
	return res, nil
}

// Prepared is a constraint system taken through phase 1: a feasible
// basis of {A x rel b, lo <= x <= up} — or the verdict that there is
// none — from which any number of objectives are solved by phase 2
// alone. Phase 1 reads only A and b, so the basis serves every
// objective; a cost vector is priced into it by replaying the recorded
// eliminations, the same arithmetic in the same order as carrying the
// cost row through phase 1, so Solve(obj, sense) returns bit for bit
// what SetObjective(obj, sense) + Problem.Solve() returns.
//
// A Prepared holds a pooled solver workspace from Prepare until Release
// and nothing of its Problem, which may be Reset and rebuilt meanwhile.
// It is not safe for concurrent use. Calling Solve after Release is a
// bug and panics: the workspace may by then belong to another solve.
type Prepared struct {
	ws     *workspace
	status Status // Optimal: a feasible basis is held; else phase 1's verdict for every objective
	nvars  int
	t      tableau // after phase 1 and the expulsion of artificials
	// Mapping back: x_i = shift_i + sign_i*y[pos_i] - y[neg_i] (neg_i = -1
	// when x_i needed a single column).
	pos, neg    []int
	shift, sign []float64
	// Dual recipe: the multiplier of constraint i is dualSign[i] (as for
	// a minimization; negated for a maximization) times the final reduced
	// cost of column dualCol[i], its slack or surplus column, or its
	// artificial when it has neither.
	dualCol  []int
	dualSign []float64
	pivots1  int // phase-1 and expulsion pivots not yet reported to lp_pivots_per_solve
	// Per-solve scratch: the cost row, the column values y, and the
	// tableau copy phase 2 pivots on (grabbed by the first Solve; the
	// in-place solve of Problem.Solve never needs it).
	cost, y []float64
	work    tableau
}

// Prepare standardizes p and runs phase 1 once. The caller must Release
// the result.
func (p *Problem) Prepare() *Prepared {
	pr := new(Prepared)
	p.prepare(pr)
	return pr
}

// Release returns the workspace to the pool. pr must not be used again.
func (pr *Prepared) Release() {
	if pr.ws != nil {
		wsPool.Put(pr.ws)
		*pr = Prepared{}
	}
}

// Solve optimizes obj in the given sense over the prepared constraint
// system. len(obj) must equal the problem's variable count.
func (pr *Prepared) Solve(obj []float64, sense Sense) *Result {
	if pr.ws == nil {
		panic("lp: Prepared used after Release")
	}
	if len(obj) != pr.nvars {
		panic(fmt.Sprintf("lp: objective length %d != %d vars", len(obj), pr.nvars))
	}
	res, _ := pr.solve(obj, sense, false)
	return res
}

// prepare brings p to the computational standard form min c^T y,
// A y = b, y >= 0, b >= 0 — each tableau row written once, straight
// from the sparse constraint storage — and runs phase 1 on it.
func (p *Problem) prepare(pr *Prepared) {
	lpPoolGets.Inc()
	ws := wsPool.Get().(*workspace)
	ws.reset()
	// Variable substitutions to reach y >= 0:
	//   lo finite:            x = lo + y          (sign +1)
	//   lo = -inf, up finite: x = up - y          (sign -1)
	//   free:                 x = y+ - y-         (two columns)
	// A residual finite upper bound (after a lo shift) becomes an extra
	// row  y <= up - lo  after the constraints, in variable order.
	pos, neg := ws.ints(p.n), ws.ints(p.n)
	shift, sign := ws.floats(p.n), ws.floats(p.n)
	ncols, nub := 0, 0
	for i := 0; i < p.n; i++ {
		lo, up := p.lo[i], p.up[i]
		pos[i], neg[i], sign[i] = ncols, -1, 1
		switch {
		case !math.IsInf(lo, -1):
			shift[i] = lo
			if !math.IsInf(up, 1) {
				nub++
			}
		case !math.IsInf(up, 1):
			shift[i], sign[i] = up, -1
		default:
			ncols++
			neg[i] = ncols
		}
		ncols++
	}

	// First pass: right-hand sides in the substituted variables, rows
	// negated where needed for b >= 0, which fixes the relation of every
	// row and with it the slack and artificial column counts.
	ncons := len(p.rel)
	m := ncons + nub
	b := ws.floats(m)
	rel, negated := ws.ints(m), ws.ints(m)
	nslack, nart := 0, 0
	k, ubVar := 0, -1
	for r := 0; r < m; r++ {
		rr, rhs := LE, 0.0
		if r < ncons {
			rr, rhs = p.rel[r], p.rhs[r]
			for ; k < p.end[r]; k++ {
				rhs -= p.val[k] * shift[p.idx[k]]
			}
		} else {
			ubVar = p.nextUpperBounded(ubVar)
			rhs = p.up[ubVar] - p.lo[ubVar]
		}
		if rhs < 0 {
			rhs, negated[r] = -rhs, 1
			switch rr {
			case LE:
				rr = GE
			case GE:
				rr = LE
			}
		}
		b[r], rel[r] = rhs, int(rr)
		if rr != EQ {
			nslack++
		}
		if rr != LE {
			nart++
		}
	}

	// Second pass: the tableau rows, each with its slack (LE) or surplus
	// (GE) column and, for GE and EQ rows, the artificial that is basic
	// at the start of phase 1. The phase-1 cost row — cost 1 on every
	// artificial, priced out against the artificial basis rows — is
	// accumulated as the rows are written.
	total := ncols + nslack
	w := total + nart
	dualCol, dualSign := ws.ints(ncons), ws.floats(ncons)
	*pr = Prepared{
		ws: ws, nvars: p.n,
		pos: pos, neg: neg, shift: shift, sign: sign,
		dualCol: dualCol, dualSign: dualSign,
		cost: ws.floats(w), y: ws.floats(total),
		t: tableau{
			m: m, n: total, nart: nart, stride: w, feasScale: 1,
			a: ws.floats(m * w), b: b, basis: ws.ints(m), obj: ws.floats(w),
			nzIdx: ws.ints(w), nzVal: ws.floats(w),
		},
	}
	t := &pr.t
	sIdx, artIdx := ncols, total
	k, ubVar = 0, -1
	for r := 0; r < m; r++ {
		row := t.a[r*w : r*w+w]
		// Rows that start with a basic artificial are subtracted from the
		// phase-1 cost row, entry by entry as they are written.
		art := Rel(rel[r]) != LE
		if r < ncons {
			for ; k < p.end[r]; k++ {
				i, a := p.idx[k], p.val[k]
				v, u := a*sign[i], -a
				if negated[r] != 0 {
					v, u = -v, -u
				}
				row[pos[i]] = v
				if art {
					t.obj[pos[i]] -= v
				}
				if neg[i] >= 0 {
					row[neg[i]] = u
					if art {
						t.obj[neg[i]] -= u
					}
				}
			}
		} else {
			ubVar = p.nextUpperBounded(ubVar)
			row[pos[ubVar]] = 1
		}
		// A zero-cost column +-e_r has reduced cost -+pi_r.
		col, dsign := sIdx, -1.0
		switch Rel(rel[r]) {
		case LE:
			row[sIdx] = 1
			t.basis[r] = sIdx
			sIdx++
		case GE:
			row[sIdx] = -1
			t.obj[sIdx] = 1
			sIdx++
			dsign = 1
		case EQ:
			col = artIdx
		}
		if art {
			row[artIdx] = 1
			t.basis[r] = artIdx
			artIdx++
			t.val += b[r]
		}
		if r < ncons {
			if negated[r] != 0 {
				dsign = -dsign
			}
			dualCol[r], dualSign[r] = col, dsign
		}
		if b[r] > t.feasScale {
			t.feasScale = b[r]
		}
	}

	pr.status = t.phase1(&ws.log)
	pr.pivots1 = t.pivots
	lpPhase1Runs.Inc()
	lpPhase1Pivots.Add(int64(pr.pivots1))
	lpPivots.Add(int64(pr.pivots1))
}

// nextUpperBounded returns the first variable after i with both bounds
// finite, the ones whose residual upper bound needs a row of its own.
func (p *Problem) nextUpperBounded(i int) int {
	for i++; math.IsInf(p.lo[i], -1) || math.IsInf(p.up[i], 1); i++ {
	}
	return i
}

// solve prices obj into the prepared basis and runs phase 2, on the
// prepared tableau itself when inPlace (the basis is then spent) and on
// a copy otherwise. It also returns the number of pivots phase 2 took.
func (pr *Prepared) solve(obj []float64, sense Sense, inPlace bool) (*Result, int) {
	lpSolves.Inc()
	carried := pr.pivots1
	pr.pivots1 = 0
	if pr.status != Optimal {
		lpPivotsPerRun.Observe(float64(carried))
		if pr.status == Infeasible {
			lpInfeasible.Inc()
		} else {
			lpIterLimited.Inc()
		}
		return &Result{Status: pr.status}, 0
	}
	// Objective over substituted variables (always minimize internally).
	c, ws := pr.cost, pr.ws
	clear(c)
	mult := 1.0
	if sense == Maximize {
		mult = -1
	}
	for i, oc := range obj {
		if oc == 0 {
			continue
		}
		c[pr.pos[i]] += mult * oc * pr.sign[i]
		if pr.neg[i] >= 0 {
			c[pr.neg[i]] -= mult * oc
		}
	}
	t := &pr.t
	if !inPlace {
		if pr.work.basis == nil {
			pr.work = pr.t
			pr.work.a, pr.work.b, pr.work.basis = ws.floats(len(t.a)), ws.floats(t.m), ws.ints(t.m)
		}
		copy(pr.work.a, t.a)
		copy(pr.work.b, t.b)
		copy(pr.work.basis, t.basis)
		t = &pr.work
	}
	status := t.phase2(c, ws.log.price(c))
	lpPivots.Add(int64(t.pivots))
	lpPivotsPerRun.Observe(float64(carried + t.pivots))
	switch status {
	case Unbounded:
		return &Result{Status: Unbounded}, t.pivots
	case IterationLimit:
		lpIterLimited.Inc()
		return &Result{Status: IterationLimit}, t.pivots
	}
	y := pr.y
	clear(y)
	for i, bi := range t.basis {
		if bi < t.n {
			y[bi] = t.b[i]
		}
	}
	// X and Dual escape the workspace: one fresh allocation for both.
	out := make([]float64, pr.nvars+len(pr.dualCol))
	res := &Result{Status: Optimal, X: out[:pr.nvars:pr.nvars], Dual: out[pr.nvars:]}
	for i := range res.X {
		v := pr.shift[i] + pr.sign[i]*y[pr.pos[i]]
		if pr.neg[i] >= 0 {
			v -= y[pr.neg[i]]
		}
		res.X[i] = v
		// The objective is recomputed in original terms for exactness.
		res.Objective += obj[i] * v
	}
	for i, col := range pr.dualCol {
		res.Dual[i] = mult * pr.dualSign[i] * t.obj[col]
	}
	return res, t.pivots
}
