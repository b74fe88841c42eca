package lp

import "math"

// tableau is a dense simplex tableau for the standard form
// min c^T y, A y = b (b >= 0), y >= 0, with artificial columns appended
// for phase 1.
type tableau struct {
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

func (s *standard) solve() *Result {
	t := newTableau(s)
	// One atomic add per solve (not per pivot) keeps the hot loop clean.
	defer func() {
		lpPivots.Add(int64(t.pivots))
		lpPivotsPerRun.Observe(float64(t.pivots))
	}()
	// ---- Phase 1: minimize the sum of artificials.
	status := t.iterate(t.obj1, &t.val1, false)
	if status == IterationLimit {
		return &Result{Status: IterationLimit}
	}
	if t.val1 > 1e-7*t.feasScale {
		return &Result{Status: Infeasible}
	}
	t.expelArtificials()
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

func newTableau(s *standard) *tableau {
	nart := 0
	for _, ar := range s.artRow {
		if ar {
			nart++
		}
	}
	ws := s.ws
	t := &tableau{m: s.m, n: s.n, nart: nart}
	total := s.n + nart
	t.a = make([][]float64, s.m)
	t.b = ws.floats(s.m)
	copy(t.b, s.b)
	t.basis = ws.ints(s.m)
	art := s.n
	t.feasScale = 1.0
	for _, bi := range s.b {
		if a := math.Abs(bi); a > t.feasScale {
			t.feasScale = a
		}
	}
	for i := 0; i < s.m; i++ {
		t.a[i] = ws.floats(total)
		copy(t.a[i], s.a[i])
		if s.artRow[i] {
			t.a[i][art] = 1
			t.basis[i] = art
			art++
		} else {
			// The slack column of this row is its identity column: find it.
			// standardize() placed exactly one +1 slack for LE rows; locate
			// the last column with coefficient 1 that is a slack.
			t.basis[i] = findSlack(s, i)
		}
	}
	// Phase-1 reduced costs: cost 1 on artificials, priced out against the
	// artificial basis rows.
	t.obj1 = ws.floats(total)
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
	t.obj2 = ws.floats(total)
	copy(t.obj2, s.c)
	t.val2 = 0
	return t
}

// findSlack locates the slack column serving as the identity basis column
// of a non-artificial row.
func findSlack(s *standard, row int) int {
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
func (t *tableau) iterate(obj []float64, val *float64, blockArtificials bool) Status {
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

func (t *tableau) chooseEntering(obj []float64, blockArtificials bool) int {
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

func (t *tableau) ratioTest(enter int) int {
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
func (t *tableau) pivot(row, col int) {
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
func (t *tableau) expelArtificials() {
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
