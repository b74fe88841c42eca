package lp

// The solver as it stood before pivots went sparse and phase 1 was
// separated from the objective: dense rows, in-line pricing of the cost
// row through phase 1, one tableau per solve. Kept verbatim (names
// prefixed, workspace grabs turned into make, metrics dropped) as the
// oracle for TestRefBitIdentical: the production path must reproduce its
// Status, X, Objective, Dual and pivot count bit for bit.

import (
	"fmt"
	"math"
)

// refSolve is the old Problem.Solve; it also reports the pivot count and
// whether Bland's rule was switched on in either phase.
func (p *refProblem) refSolve() (res *Result, pivots int, bland bool) {
	std, _ := p.standardize()
	res = std.solve()
	if res.Status == Optimal {
		res.X = std.recover(res.X)
		// Recompute the objective in original terms for exactness.
		obj := 0.0
		for i, c := range p.obj {
			obj += c * res.X[i]
		}
		res.Objective = obj
	}
	return res, std.pivots, std.bland
}

func newRefProblem(n int) *refProblem {
	p := &refProblem{n: n, obj: make([]float64, n), lo: make([]float64, n), up: make([]float64, n)}
	for i := range p.up {
		p.up[i] = math.Inf(1)
	}
	return p
}

func (p *refProblem) SetObjective(c []float64, sense Sense) {
	copy(p.obj, c)
	p.sense = sense
}

type refConstraint struct {
	coef []float64
	rel  Rel
	rhs  float64
}

// refProblem is a linear program under construction.
type refProblem struct {
	n     int
	obj   []float64
	sense Sense
	cons  []refConstraint
	lo    []float64
	up    []float64
}

// AddConstraint appends the constraint coef . x (rel) rhs. The coefficient
// slice is copied.
func (p *refProblem) AddConstraint(coef []float64, rel Rel, rhs float64) {
	if len(coef) != p.n {
		panic(fmt.Sprintf("lp: constraint length %d != %d vars", len(coef), p.n))
	}
	row := make([]float64, p.n)
	copy(row, coef)
	p.cons = append(p.cons, refConstraint{coef: row, rel: rel, rhs: rhs})
}

// AddSparseConstraint appends a constraint given as (index, coefficient)
// pairs; unspecified coefficients are zero.
func (p *refProblem) AddSparseConstraint(idx []int, coef []float64, rel Rel, rhs float64) {
	if len(idx) != len(coef) {
		panic("lp: sparse constraint index/coef length mismatch")
	}
	full := make([]float64, p.n)
	for k, i := range idx {
		if i < 0 || i >= p.n {
			panic("lp: sparse constraint index out of range")
		}
		full[i] += coef[k]
	}
	p.cons = append(p.cons, refConstraint{coef: full, rel: rel, rhs: rhs})
}

// SetBounds sets lo <= x_i <= up. Use math.Inf(-1) / math.Inf(1) for
// unbounded sides.
func (p *refProblem) SetBounds(i int, lo, up float64) {
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
func (p *refProblem) SetFree(i int) { p.SetBounds(i, math.Inf(-1), math.Inf(1)) }

// refStandard holds a problem in the computational standard form
// min c^T y, A y = b, y >= 0, b >= 0, together with the recipe to map y
// back to the original x.
type refStandard struct {
	m, n int // n includes slacks/surpluses, excludes artificials
	a    [][]float64
	b    []float64
	c    []float64
	// mapping back: x_i = shift_i + sum over terms (sign * y_j)
	terms  [][2]int  // per original var: (posIdx, negIdx); negIdx == -1 if none
	shift  []float64 // additive shift per original var
	sign   []float64 // +1 or -1 multiplier on the primary term
	orig   *refProblem
	artRow []bool // rows that required an artificial in phase 1
	pivots int    // reported by solve: pivots of both phases
	bland  bool   // reported by solve: Bland mode was on when a phase ended
	// dual recipe: the multiplier of original constraint i is
	// dualSign[i] times the final reduced cost of column dualCol[i] (its
	// slack or surplus column, or its artificial when it has neither).
	dualCol  []int
	dualSign []float64
}

func (p *refProblem) standardize() (*refStandard, error) {
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
	var rows []refConstraint
	for _, c := range p.cons {
		rows = append(rows, c)
	}
	for i := range subs {
		if !math.IsInf(subs[i].extraUB, 1) {
			// y_pos <= extraUB, expressed over original variable space later;
			// mark with a sentinel constraint handled below.
			rows = append(rows, refConstraint{coef: nil, rel: LE, rhs: subs[i].extraUB})
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
		coef := make([]float64, ncols)
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
	b := make([]float64, m)
	artRow := make([]bool, m)
	dualCol := make([]int, len(p.cons))
	dualSign := make([]float64, len(p.cons))
	sIdx, artIdx := ncols, total
	for i, r := range trans {
		a[i] = make([]float64, total)
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
	c := make([]float64, total)
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
	return &refStandard{
		m: m, n: total, a: a, b: b, c: c,
		terms: terms, shift: shift, sign: sign, orig: p, artRow: artRow,
		dualCol: dualCol, dualSign: dualSign,
	}, nil
}

// recover maps a standard-form solution back to original variables.
func (s *refStandard) recover(y []float64) []float64 {
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

// refTableau is a dense simplex tableau for the standard form
// min c^T y, A y = b (b >= 0), y >= 0, with artificial columns appended
// for phase 1.
type refTableau struct {
	m, n  int // constraint rows, structural columns (incl. slack/surplus)
	nart  int
	a     [][]float64 // m rows of n+nart entries
	b     []float64
	basis []int
	// objective rows: reduced costs and current value, maintained by pivots
	obj1, obj2   []float64
	val1, val2   float64
	blandMode    bool
	sinceImprove int
	lastVal      float64
	feasScale    float64
	pivots       int // pivot operations performed (both phases)
}

func (s *refStandard) solve() *Result {
	t := refNewTableau(s)
	defer func() { s.pivots, s.bland = t.pivots, s.bland || t.blandMode }()
	// ---- Phase 1: minimize the sum of artificials.
	status := t.iterate(t.obj1, &t.val1, false)
	if status == IterationLimit {
		return &Result{Status: IterationLimit}
	}
	if t.val1 > 1e-7*t.feasScale {
		return &Result{Status: Infeasible}
	}
	t.expelArtificials()
	s.bland = t.blandMode
	// ---- Phase 2: minimize the real objective; artificials may not enter.
	t.blandMode = false
	t.sinceImprove = 0
	status = t.iterate(t.obj2, &t.val2, true)
	switch status {
	case Unbounded:
		return &Result{Status: Unbounded}
	case IterationLimit:
		return &Result{Status: IterationLimit}
	}
	y := make([]float64, s.n)
	for i, bi := range t.basis {
		if bi < s.n {
			y[bi] = t.b[i]
		}
	}
	dual := make([]float64, len(s.dualCol))
	for i, col := range s.dualCol {
		dual[i] = s.dualSign[i] * t.obj2[col]
	}
	return &Result{Status: Optimal, X: y, Objective: t.val2, Dual: dual}
}

func refNewTableau(s *refStandard) *refTableau {
	nart := 0
	for _, ar := range s.artRow {
		if ar {
			nart++
		}
	}
	t := &refTableau{m: s.m, n: s.n, nart: nart}
	total := s.n + nart
	t.a = make([][]float64, s.m)
	t.b = make([]float64, s.m)
	copy(t.b, s.b)
	t.basis = make([]int, s.m)
	art := s.n
	t.feasScale = 1.0
	for _, bi := range s.b {
		if a := math.Abs(bi); a > t.feasScale {
			t.feasScale = a
		}
	}
	for i := 0; i < s.m; i++ {
		t.a[i] = make([]float64, total)
		copy(t.a[i], s.a[i])
		if s.artRow[i] {
			t.a[i][art] = 1
			t.basis[i] = art
			art++
		} else {
			// The slack column of this row is its identity column: find it.
			// standardize() placed exactly one +1 slack for LE rows; locate
			// the last column with coefficient 1 that is a slack.
			t.basis[i] = refFindSlack(s, i)
		}
	}
	// Phase-1 reduced costs: cost 1 on artificials, priced out against the
	// artificial basis rows.
	t.obj1 = make([]float64, total)
	for j := s.n; j < total; j++ {
		t.obj1[j] = 1
	}
	for i := 0; i < s.m; i++ {
		if s.artRow[i] {
			for j := 0; j < total; j++ {
				t.obj1[j] -= t.a[i][j]
			}
			t.val1 += t.b[i]
		}
	}
	// Phase-2 reduced costs: the real costs (initial basis has zero cost).
	t.obj2 = make([]float64, total)
	copy(t.obj2, s.c)
	t.val2 = 0
	return t
}

// refFindSlack locates the slack column serving as the identity basis column
// of a non-artificial row.
func refFindSlack(s *refStandard, row int) int {
	// Slack columns live in [structural, s.n); each belongs to exactly one
	// row with coefficient +1 (LE rows after rhs normalization).
	for j := s.n - 1; j >= 0; j-- {
		if s.a[row][j] == 1 {
			// Verify it's an identity column across all rows.
			identity := true
			for i := 0; i < s.m; i++ {
				if i != row && s.a[i][j] != 0 {
					identity = false
					break
				}
			}
			if identity {
				return j
			}
		}
	}
	// Unreachable if standardize() is correct.
	panic("lp: no identity column for slack row")
}

// iterate runs simplex pivots on the given objective row until optimality,
// unboundedness or the iteration cap. When blockArtificials is set,
// artificial columns never enter the basis.
func (t *refTableau) iterate(obj []float64, val *float64, blockArtificials bool) Status {
	limit := 5000 + 60*(t.m+t.n+t.nart)
	t.lastVal = *val
	for iter := 0; iter < limit; iter++ {
		enter := t.chooseEntering(obj, blockArtificials)
		if enter < 0 {
			return Optimal
		}
		leave := t.ratioTest(enter)
		if leave < 0 {
			return Unbounded
		}
		t.pivot(leave, enter)
		// Degeneracy watchdog: if the objective stalls for long, switch to
		// Bland's rule, which guarantees termination.
		if *val < t.lastVal-1e-12*(1+math.Abs(t.lastVal)) {
			t.lastVal = *val
			t.sinceImprove = 0
		} else {
			t.sinceImprove++
			if t.sinceImprove > 2*(t.m+t.n+t.nart)+50 {
				t.blandMode = true
			}
		}
	}
	return IterationLimit
}

func (t *refTableau) chooseEntering(obj []float64, blockArtificials bool) int {
	limit := t.n + t.nart
	if blockArtificials {
		limit = t.n
	}
	if t.blandMode {
		for j := 0; j < limit; j++ {
			if obj[j] < -eps {
				return j
			}
		}
		return -1
	}
	best, bestVal := -1, -eps
	for j := 0; j < limit; j++ {
		if obj[j] < bestVal {
			best, bestVal = j, obj[j]
		}
	}
	return best
}

func (t *refTableau) ratioTest(enter int) int {
	best := -1
	bestRatio := math.Inf(1)
	for i := 0; i < t.m; i++ {
		aie := t.a[i][enter]
		if aie <= pivotEps {
			continue
		}
		r := t.b[i] / aie
		if r < bestRatio-1e-12 || (r < bestRatio+1e-12 && (best < 0 || t.basis[i] < t.basis[best])) {
			best, bestRatio = i, r
		}
	}
	return best
}

// pivot performs the pivot on (row, col), updating both objective rows so
// phase 2 stays priced out during phase 1.
func (t *refTableau) pivot(row, col int) {
	t.pivots++
	p := t.a[row][col]
	inv := 1 / p
	ar := t.a[row]
	for j := range ar {
		ar[j] *= inv
	}
	ar[col] = 1 // exact
	t.b[row] *= inv
	for i := 0; i < t.m; i++ {
		if i == row {
			continue
		}
		f := t.a[i][col]
		if f == 0 {
			continue
		}
		ai := t.a[i]
		for j := range ai {
			ai[j] -= f * ar[j]
		}
		ai[col] = 0 // exact
		t.b[i] -= f * t.b[row]
		if t.b[i] < 0 && t.b[i] > -1e-11 {
			t.b[i] = 0 // clamp tiny negative drift
		}
	}
	// Objective value update: entering with reduced cost f at step length
	// b[row] changes z by f*b[row] (f < 0 on improving pivots).
	if f := t.obj1[col]; f != 0 {
		for j := range t.obj1 {
			t.obj1[j] -= f * ar[j]
		}
		t.obj1[col] = 0
		t.val1 += f * t.b[row]
	}
	if f := t.obj2[col]; f != 0 {
		for j := range t.obj2 {
			t.obj2[j] -= f * ar[j]
		}
		t.obj2[col] = 0
		t.val2 += f * t.b[row]
	}
	t.basis[row] = col
}

// expelArtificials pivots basic artificial variables (all at value ~0
// after a feasible phase 1) out of the basis where possible. Rows where no
// structural pivot exists are redundant; their artificial stays basic at
// zero and artificials are blocked from entering in phase 2.
func (t *refTableau) expelArtificials() {
	for i := 0; i < t.m; i++ {
		if t.basis[i] < t.n {
			continue
		}
		pivCol := -1
		for j := 0; j < t.n; j++ {
			if math.Abs(t.a[i][j]) > 1e-8 {
				pivCol = j
				break
			}
		}
		if pivCol >= 0 {
			t.pivot(i, pivCol)
		}
	}
}
