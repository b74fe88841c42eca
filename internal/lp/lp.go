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
//
// A Prepared is a system taken through phase 1 once: it solves any
// number of objectives by phase 2 alone, and Extend grows it in place
// by the rows and default-bounded variables its Problem gained (the
// lazy hull loop's joining blocks), running phase 1 over the new rows
// alone.
package lp

import (
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

// AddVars appends k variables with the default bounds [0, +Inf) and
// zero objective coefficients, and returns the index of the first.
func (p *Problem) AddVars(k int) int {
	if k < 0 {
		panic("lp: negative variable count")
	}
	first := p.n
	p.n += k
	p.obj = append(p.obj, make([]float64, k)...)
	p.lo = append(p.lo, make([]float64, k)...)
	p.up = append(p.up, make([]float64, k)...)
	for i := first; i < p.n; i++ {
		p.up[i] = math.Inf(1)
	}
	return first
}

// SetFree marks x_i as a free variable (-Inf, +Inf).
func (p *Problem) SetFree(i int) { p.SetBounds(i, math.Inf(-1), math.Inf(1)) }

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
	res := new(Result)
	pr.solve(res, p.obj, p.sense, true)
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
// what SetObjective(obj, sense) + Problem.Solve() returns. Extend grows
// the system in place; the bits are then those of the grown basis, not
// of a Prepare of the grown Problem.
//
// A Prepared is a handle on a pooled solver workspace, held from
// Prepare (or PrepareInto) until Release, and holds nothing of its
// Problem, which may be Reset and rebuilt meanwhile. It is not safe for
// concurrent use. Calling Solve or Extend after Release is a bug and
// panics: the workspace may by then belong to another solve.
type Prepared struct {
	*workspace
}

// workspace is the state of one Prepared and its reusable storage:
// every slice keeps its capacity across Prepare, Extend and the pool,
// so steady-state solves stop allocating tableaux — the dominant
// allocation cost when the geometry predicates fire thousands of LPs
// per consensus trial. Nothing in a workspace may outlive its Release;
// the slices of a Result Solve returns are allocated fresh.
type workspace struct {
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
	// Per-solve scratch: the column values y and the tableau copy phase 2
	// pivots on (the in-place solve of Problem.Solve never needs it);
	// rel and negated are the row kinds Prepare and Extend settle first,
	// x the point Extend checks.
	y, x    []float64
	work    tableau
	rel     []Rel
	negated []bool
	log     elimLog
}

// fit returns s resized to n and zeroed, reusing its storage. It grows
// as append does, so a workspace fresh from the pool that serves an LP
// growing round by round (a cutting-plane master) reallocates
// logarithmically often, not once per round.
func fit[T any](s []T, n int) []T {
	if cap(s) < n {
		s = append(s[:cap(s)], make([]T, n-cap(s))...)
	}
	s = s[:n]
	clear(s)
	return s
}

// Prepare standardizes p and runs phase 1 once. The caller must Release
// the result.
func (p *Problem) Prepare() *Prepared {
	pr := new(Prepared)
	p.prepare(pr)
	return pr
}

// PrepareInto is Prepare into pr: whatever pr held is dropped and its
// workspace reused; a zero or released pr draws one from the pool.
func (p *Problem) PrepareInto(pr *Prepared) { p.prepare(pr) }

// Release returns the workspace to the pool. pr must not be used again
// until PrepareInto re-arms it.
func (pr *Prepared) Release() {
	if pr.workspace != nil {
		wsPool.Put(pr.workspace)
		pr.workspace = nil
	}
}

// live returns pr's workspace, panicking after Release.
func (pr *Prepared) live() *workspace {
	if pr.workspace == nil {
		panic("lp: Prepared used after Release")
	}
	return pr.workspace
}

// Solve optimizes obj in the given sense over the prepared constraint
// system. len(obj) must equal the problem's variable count.
func (pr *Prepared) Solve(obj []float64, sense Sense) *Result {
	res := new(Result)
	pr.SolveInto(res, obj, sense)
	return res
}

// SolveInto is Solve into res, reusing the storage of res.X and
// res.Dual.
func (pr *Prepared) SolveInto(res *Result, obj []float64, sense Sense) {
	if len(obj) != pr.live().nvars {
		panic(fmt.Sprintf("lp: objective length %d != %d vars", len(obj), pr.nvars))
	}
	pr.solve(res, obj, sense, false)
}

// prepare brings p to the computational standard form min c^T y,
// A y = b, y >= 0, b >= 0 — each tableau row written once, straight
// from the sparse constraint storage — and runs phase 1 on it.
func (p *Problem) prepare(pr *Prepared) {
	ws := pr.workspace
	if ws == nil {
		lpPoolGets.Inc()
		ws = wsPool.Get().(*workspace)
		pr.workspace = ws
	}
	ws.log.reset()
	// Variable substitutions to reach y >= 0:
	//   lo finite:            x = lo + y          (sign +1)
	//   lo = -inf, up finite: x = up - y          (sign -1)
	//   free:                 x = y+ - y-         (two columns)
	// A residual finite upper bound (after a lo shift) becomes an extra
	// row  y <= up - lo  after the constraints, in variable order.
	ws.nvars = p.n
	pos, neg := fit(ws.pos, p.n), fit(ws.neg, p.n)
	shift, sign := fit(ws.shift, p.n), fit(ws.sign, p.n)
	ws.pos, ws.neg, ws.shift, ws.sign = pos, neg, shift, sign
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
	t := &ws.t
	b := fit(t.b, m)
	rel, negated := fit(ws.rel, m), fit(ws.negated, m)
	ws.rel, ws.negated = rel, negated
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
			rhs, negated[r] = -rhs, true
			switch rr {
			case LE:
				rr = GE
			case GE:
				rr = LE
			}
		}
		b[r], rel[r] = rhs, rr
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
	dualCol, dualSign := fit(ws.dualCol, ncons), fit(ws.dualSign, ncons)
	ws.dualCol, ws.dualSign = dualCol, dualSign
	*t = tableau{
		m: m, n: total, nart: nart, stride: w, feasScale: 1,
		a: fit(t.a, m*w), b: b, basis: fit(t.basis, m), obj: fit(t.obj, w),
		nzIdx: fit(t.nzIdx, w), nzVal: fit(t.nzVal, w),
	}
	sIdx, artIdx := ncols, total
	k, ubVar = 0, -1
	for r := 0; r < m; r++ {
		row := t.a[r*w : r*w+w]
		// Rows that start with a basic artificial are subtracted from the
		// phase-1 cost row, entry by entry as they are written.
		art := rel[r] != LE
		if r < ncons {
			for ; k < p.end[r]; k++ {
				i, a := p.idx[k], p.val[k]
				v, u := a*sign[i], -a
				if negated[r] {
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
		switch rel[r] {
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
			if negated[r] {
				dsign = -dsign
			}
			dualCol[r], dualSign[r] = col, dsign
		}
		if b[r] > t.feasScale {
			t.feasScale = b[r]
		}
	}

	ws.status = t.phase1(&ws.log, 0)
	ws.pivots1 = t.pivots
	lpPhase1Runs.Inc()
	lpPhase1Pivots.Add(int64(ws.pivots1))
	lpPivots.Add(int64(ws.pivots1))
}

// nextUpperBounded returns the first variable after i with both bounds
// finite, the ones whose residual upper bound needs a row of its own.
func (p *Problem) nextUpperBounded(i int) int {
	for i++; math.IsInf(p.lo[i], -1) || math.IsInf(p.up[i], 1); i++ {
	}
	return i
}

// Extend grows the prepared system in place by what p gained since it
// was prepared or last extended: the constraints after the ones pr
// holds and the variables after its own, which must keep the default
// bounds [0, +Inf). Each new row is reduced against the basis, which
// with the new rows' slack or artificial columns stays a basis of the
// grown system; phase 1 then runs over the new rows' artificials alone,
// no artificial entering, and its eliminations join the log, so Solve
// still prices any objective by replay. Extend reports whether the
// grown system has a feasible basis whose point satisfies it to 1e-9 of
// each row's scale (holds); otherwise pr holds phase 1's verdict, or
// IterationLimit when the basis missed that check, for every
// objective, as it does when it held no feasible basis to extend.
func (pr *Prepared) Extend(p *Problem) bool {
	ws := pr.live()
	lpWarmAttempts.Inc()
	if ws.status != Optimal {
		ws.nvars = p.n // objectives of the grown length get the verdict
		return false
	}
	t := &ws.t
	m0, n0, nart0, w0 := t.m, t.n, t.nart, t.stride
	nv0, ncons0 := ws.nvars, len(ws.dualCol)
	for i := nv0; i < p.n; i++ {
		if p.lo[i] != 0 || !math.IsInf(p.up[i], 1) {
			panic("lp: Extend with a new variable not bounded to [0, +Inf)")
		}
		ws.pos = append(ws.pos, n0+i-nv0)
		ws.neg = append(ws.neg, -1)
		ws.shift = append(ws.shift, 0)
		ws.sign = append(ws.sign, 1)
	}
	ws.nvars = p.n

	// First pass: each new row's right-hand side reduced against the
	// basis — b minus f_i*b_i over the basic rows i, f_i the row's
	// coefficient on row i's basic column, the only entries a reduction
	// changes — decides the row's orientation (b >= 0, a surplus row
	// with b = 0 turned into a slack row) and whether it needs an
	// artificial, and with that the grown tableau's layout.
	nnew := len(p.rel) - ncons0
	ws.rel, ws.negated = fit(ws.rel, nnew), fit(ws.negated, nnew)
	t.b = append(t.b, make([]float64, nnew)...)
	y := fit(ws.y, n0) // the row's coefficients on the old columns
	ws.y = y
	nslack, nart := 0, 0
	for r := range nnew {
		row := ncons0 + r
		rr, rhs := p.rel[row], p.rhs[row]
		for k := p.rowStart(row); k < p.end[row]; k++ {
			if i := p.idx[k]; i < nv0 {
				rhs -= p.val[k] * ws.shift[i]
				ws.put(y, i, p.val[k])
			}
		}
		for i, c := range t.basis[:m0] {
			if c < n0 && y[c] != 0 {
				rhs -= y[c] * t.b[i]
			}
		}
		for k := p.rowStart(row); k < p.end[row]; k++ {
			if i := p.idx[k]; i < nv0 {
				ws.put(y, i, 0)
			}
		}
		neg := rhs < 0 || rr == GE && rhs == 0
		if neg {
			rhs = math.Abs(rhs) // +0, not -0, for a surplus row at 0
		}
		ws.rel[r], ws.negated[r], t.b[m0+r] = rr, neg, rhs
		if rr != EQ {
			nslack++
		}
		if rr == EQ || (rr == LE) == neg {
			nart++
		}
	}

	// The grown layout keeps every non-artificial column before every
	// artificial: old columns, new variables, new slacks, old
	// artificials, new artificials. The old artificials move right by
	// gap, in the basis, the dual recipe, the log and every old row,
	// whose rows move backwards into the wider stride.
	n := n0 + (p.n - nv0) + nslack
	gap := n - n0
	w := n + nart0 + nart
	m := m0 + nnew
	for i, c := range t.basis {
		if c >= n0 {
			t.basis[i] = c + gap
		}
	}
	for i, c := range ws.dualCol {
		if c >= n0 {
			ws.dualCol[i] = c + gap
		}
	}
	ws.log.shift(n0, gap)
	t.a = append(t.a, make([]float64, m*w-len(t.a))...)
	for i := m0 - 1; i >= 0; i-- {
		src, dst := t.a[i*w0:i*w0+w0], t.a[i*w:i*w+w]
		copy(dst[n:n+nart0], src[n0:])
		copy(dst[:n0], src[:n0])
		clear(dst[n0:n])
		clear(dst[n+nart0:])
	}

	// Second pass: the new rows, reduced against the basis rows and
	// oriented as the first pass decided. The phase-1 cost row — cost 1
	// on every new artificial — is minus the sum of the rows that start
	// with one; its entries on artificial columns are never read, as no
	// artificial may enter.
	t.m, t.n, t.nart, t.stride = m, n, nart0+nart, w
	t.basis = append(t.basis, make([]int, nnew)...)
	t.obj, t.nzIdx, t.nzVal = fit(t.obj, w), fit(t.nzIdx, w), fit(t.nzVal, w)
	t.val, t.pivots, t.blandMode, t.sinceImprove = 0, 0, false, 0
	sIdx, artIdx := n0+p.n-nv0, n+nart0
	for r := range nnew {
		row, i := t.a[(m0+r)*w:(m0+r)*w+w], ncons0+r
		for k := p.rowStart(i); k < p.end[i]; k++ {
			ws.put(row, p.idx[k], p.val[k])
		}
		col, dsign := sIdx, -1.0
		switch ws.rel[r] {
		case LE:
			row[sIdx] = 1
			sIdx++
		case GE:
			row[sIdx] = -1
			sIdx++
			dsign = 1
		case EQ:
			col = artIdx
		}
		for j, c := range t.basis[:m0] {
			if f := row[c]; f != 0 {
				subScaled(row, t.a[j*w:j*w+w], f)
				row[c] = 0 // exact
			}
		}
		if ws.negated[r] {
			for j, v := range row {
				row[j] = -v
			}
			if ws.rel[r] == EQ {
				dsign = -dsign
			}
		}
		b := t.b[m0+r]
		if ws.rel[r] == EQ || (ws.rel[r] == LE) == ws.negated[r] {
			row[artIdx] = 1
			t.basis[m0+r] = artIdx
			artIdx++
			subScaled(t.obj, row, 1)
			t.val += b
		} else {
			t.basis[m0+r] = col
		}
		ws.dualCol = append(ws.dualCol, col)
		ws.dualSign = append(ws.dualSign, dsign)
		t.feasScale = max(t.feasScale, b)
	}

	ws.status = t.phase1(&ws.log, m0)
	ws.pivots1 += t.pivots
	lpPhase1Pivots.Add(int64(t.pivots))
	lpPivots.Add(int64(t.pivots))
	if ws.status == Optimal && !ws.holds(p) {
		ws.status = IterationLimit
	}
	if ws.status != Optimal {
		return false
	}
	lpWarmHits.Inc()
	return true
}

// holds reports whether the basic point satisfies every constraint and
// bound of p to 1e-9 of its scale. A warm phase 1 pivots from a basis
// phase 1 did not choose, and where that path takes a pivot element
// near pivotEps the grown basis carries errors a cold Prepare's does
// not; Extend then gives no verdict (IterationLimit), so the caller
// prepares the grown system cold.
func (ws *workspace) holds(p *Problem) bool {
	t := &ws.t
	y := fit(ws.y, t.n)
	ws.y = y
	for i, c := range t.basis {
		if t.b[i] < -1e-9*t.feasScale {
			return false
		}
		if c < t.n {
			y[c] = t.b[i]
		}
	}
	x := fit(ws.x, p.n)
	ws.x = x
	for i := range x {
		x[i] = ws.shift[i] + ws.sign[i]*y[ws.pos[i]]
		if ws.neg[i] >= 0 {
			x[i] -= y[ws.neg[i]]
		}
		if x[i]-p.up[i] > 1e-9*max(1, math.Abs(p.up[i])) {
			return false
		}
	}
	for r, rel := range p.rel {
		lhs, scale := 0.0, max(1, math.Abs(p.rhs[r]))
		for k := p.rowStart(r); k < p.end[r]; k++ {
			v := p.val[k] * x[p.idx[k]]
			lhs += v
			scale = max(scale, math.Abs(v))
		}
		miss := lhs - p.rhs[r]
		switch rel {
		case EQ:
			miss = math.Abs(miss)
		case GE:
			miss = -miss
		}
		if miss > 1e-9*scale {
			return false
		}
	}
	return true
}

// put writes the coefficient a of variable i into the dense row under
// ws's substitution: a*sign on its column, -a on its negative part.
func (ws *workspace) put(row []float64, i int, a float64) {
	row[ws.pos[i]] = a * ws.sign[i]
	if ws.neg[i] >= 0 {
		row[ws.neg[i]] = -a
	}
}

// rowStart returns the first entry of constraint r.
func (p *Problem) rowStart(r int) int {
	if r == 0 {
		return 0
	}
	return p.end[r-1]
}

// solve prices obj into the prepared basis and runs phase 2, on the
// prepared tableau itself when inPlace (the basis is then spent) and on
// a copy otherwise, into res, whose X and Dual are reused when large
// enough. It returns the number of pivots phase 2 took.
func (pr *Prepared) solve(res *Result, obj []float64, sense Sense, inPlace bool) int {
	ws := pr.workspace
	lpSolves.Inc()
	carried := ws.pivots1
	ws.pivots1 = 0
	res.Status, res.Objective, res.X, res.Dual = ws.status, 0, res.X[:0], res.Dual[:0]
	if ws.status != Optimal {
		lpPivotsPerRun.Observe(float64(carried))
		if ws.status == Infeasible {
			lpInfeasible.Inc()
		} else {
			lpIterLimited.Inc()
		}
		return 0
	}
	t := &ws.t
	if !inPlace {
		w := &ws.work
		a, b, basis, o := w.a, w.b, w.basis, w.obj
		*w = *t
		w.a, w.b, w.basis = append(a[:0], t.a...), append(b[:0], t.b...), append(basis[:0], t.basis...)
		w.obj = fit(o, t.stride)
		t = w
	}
	// Objective over substituted variables (always minimize internally),
	// priced into the cost row in place.
	c := t.obj
	clear(c)
	mult := 1.0
	if sense == Maximize {
		mult = -1
	}
	for i, oc := range obj {
		if oc == 0 {
			continue
		}
		c[ws.pos[i]] += mult * oc * ws.sign[i]
		if ws.neg[i] >= 0 {
			c[ws.neg[i]] -= mult * oc
		}
	}
	status := t.phase2(c, ws.log.price(c))
	lpPivots.Add(int64(t.pivots))
	lpPivotsPerRun.Observe(float64(carried + t.pivots))
	res.Status = status
	switch status {
	case Unbounded:
		return t.pivots
	case IterationLimit:
		lpIterLimited.Inc()
		return t.pivots
	}
	y := fit(ws.y, t.n)
	ws.y = y
	for i, bi := range t.basis {
		if bi < t.n {
			y[bi] = t.b[i]
		}
	}
	// X and Dual: one allocation for both when res has no room.
	nv, nc := ws.nvars, len(ws.dualCol)
	if cap(res.X) < nv || cap(res.Dual) < nc {
		out := make([]float64, nv+nc)
		res.X, res.Dual = out[:nv:nv], out[nv:]
	}
	res.X, res.Dual = res.X[:nv], res.Dual[:nc]
	for i := range res.X {
		v := ws.shift[i] + ws.sign[i]*y[ws.pos[i]]
		if ws.neg[i] >= 0 {
			v -= y[ws.neg[i]]
		}
		res.X[i] = v
		// The objective is recomputed in original terms for exactness.
		res.Objective += obj[i] * v
	}
	for i, col := range ws.dualCol {
		res.Dual[i] = mult * ws.dualSign[i] * t.obj[col]
	}
	return t.pivots
}
