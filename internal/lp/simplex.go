package lp

import "math"

// tableau is a dense simplex tableau for the standard form
// min c^T y, A y = b (b >= 0), y >= 0, with artificial columns appended
// for phase 1. It is one contiguous block: row i is
// a[i*stride : (i+1)*stride].
type tableau struct {
	m, n   int // constraint rows, structural columns (incl. slack/surplus)
	nart   int
	stride int // n + nart
	a      []float64
	b      []float64
	basis  []int
	// The cost row in play — phase 1's sum of artificials, then the priced
	// objective — as reduced costs and current value, maintained by pivots.
	obj          []float64
	val          float64
	blandMode    bool
	sinceImprove int
	lastVal      float64
	feasScale    float64
	pivots       int // pivot operations performed in the current phase
	// The non-zeros of the normalized pivot row, collected by every pivot
	// and, while log is set, appended to it.
	nzIdx []int
	nzVal []float64
	log   *elimLog
}

// elimLog records the eliminations of phase 1 and of the expulsion of
// artificials: per pivot the entering column, the non-zeros of the
// normalized pivot row and its right-hand side. That is all a cost row
// ever sees of a pivot, so replaying the log on a cost vector prices it
// exactly as carrying it through those pivots would have.
type elimLog struct {
	elims []elim
	idx   []int
	val   []float64
}

type elim struct {
	col      int
	from, to int // the pivot row's non-zeros are idx/val[from:to]
	b        float64
}

func (l *elimLog) reset() { l.elims, l.idx, l.val = l.elims[:0], l.idx[:0], l.val[:0] }

// price turns the cost vector c into the reduced-cost row of the logged
// basis and returns the objective value there.
func (l *elimLog) price(c []float64) (val float64) {
	for _, e := range l.elims {
		f := c[e.col]
		if f == 0 {
			continue
		}
		idx, v := l.idx[e.from:e.to], l.val[e.from:e.to]
		for k, j := range idx {
			c[j] -= f * v[k]
		}
		c[e.col] = 0
		val += f * e.b
	}
	return val
}

// shift moves the column indices at or after from right by gap.
func (l *elimLog) shift(from, gap int) {
	for k, j := range l.idx {
		if j >= from {
			l.idx[k] = j + gap
		}
	}
	for k, e := range l.elims {
		if e.col >= from {
			l.elims[k].col = e.col + gap
		}
	}
}

// phase1 minimizes the sum of the artificials basic in rows from on
// (t.obj and t.val hold that cost row), logging every elimination into
// log, and reports Optimal when a feasible basis was found. From 0 it
// starts from the all-slack/artificial basis; above 0 the rows before
// from already hold a feasible basis (Extend), their artificials are out
// of the problem, and no artificial may enter.
func (t *tableau) phase1(log *elimLog, from int) Status {
	t.log = log
	status := Optimal
	switch {
	case t.iterate(from > 0) == IterationLimit:
		status = IterationLimit
	case t.val > 1e-7*t.feasScale:
		status = Infeasible
	default:
		t.expelArtificials(from)
	}
	t.log = nil
	return status
}

// phase2 minimizes the priced cost row obj (value val at the current
// basis); artificials may not enter.
func (t *tableau) phase2(obj []float64, val float64) Status {
	t.obj, t.val = obj, val
	t.blandMode = false
	t.sinceImprove = 0
	t.pivots = 0
	return t.iterate(true)
}

// iterate runs simplex pivots on the cost row until optimality,
// unboundedness or the iteration cap. When blockArtificials is set,
// artificial columns never enter the basis.
func (t *tableau) iterate(blockArtificials bool) Status {
	limit := 5000 + 60*(t.m+t.n+t.nart)
	t.lastVal = t.val
	for iter := 0; iter < limit; iter++ {
		enter := t.chooseEntering(blockArtificials)
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
		if t.val < t.lastVal-1e-12*(1+math.Abs(t.lastVal)) {
			t.lastVal = t.val
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

func (t *tableau) chooseEntering(blockArtificials bool) int {
	limit := t.n + t.nart
	if blockArtificials {
		limit = t.n
	}
	obj := t.obj[:limit]
	if t.blandMode {
		for j, c := range obj {
			if c < -eps {
				return j
			}
		}
		return -1
	}
	best, bestVal := -1, -eps
	for j, c := range obj {
		if c < bestVal {
			best, bestVal = j, c
		}
	}
	return best
}

func (t *tableau) ratioTest(enter int) int {
	best := -1
	bestRatio := math.Inf(1)
	for i := 0; i < t.m; i++ {
		aie := t.a[i*t.stride+enter]
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

// pivot performs the pivot on (row, col) and carries the cost row along.
// Normalizing the pivot row collects its non-zeros; every other row is
// then updated over those entries alone when they are the minority, and
// by the dense loop otherwise. A skipped entry would have had f*0
// subtracted from it, which changes at most the sign of a zero in a —
// nothing a comparison, b, the cost row or any result can see.
func (t *tableau) pivot(row, col int) {
	t.pivots++
	w := t.stride
	ar := t.a[row*w : row*w+w]
	inv := 1 / ar[col]
	nnz := 0
	idx, val := t.nzIdx[:w], t.nzVal[:w]
	for j, v := range ar {
		if v != 0 {
			v *= inv
			ar[j] = v
			idx[nnz], val[nnz] = j, v
			nnz++
		}
	}
	idx, val = idx[:nnz], val[:nnz]
	ar[col] = 1 // exact
	t.b[row] *= inv
	br := t.b[row]
	sparse := 2*nnz < w
	for i := 0; i < t.m; i++ {
		if i == row {
			continue
		}
		ai := t.a[i*w : i*w+w]
		f := ai[col]
		if f == 0 {
			continue
		}
		if sparse {
			for k, j := range idx {
				ai[j] -= f * val[k]
			}
		} else {
			subScaled(ai, ar, f)
		}
		ai[col] = 0 // exact
		t.b[i] -= f * br
		if t.b[i] < 0 && t.b[i] > -1e-11 {
			t.b[i] = 0 // clamp tiny negative drift
		}
	}
	// Objective value update: entering with reduced cost f at step length
	// b[row] changes z by f*b[row] (f < 0 on improving pivots).
	if f := t.obj[col]; f != 0 {
		if sparse {
			for k, j := range idx {
				t.obj[j] -= f * val[k]
			}
		} else {
			subScaled(t.obj, ar, f)
		}
		t.obj[col] = 0
		t.val += f * br
	}
	t.basis[row] = col
	if l := t.log; l != nil {
		from := len(l.idx)
		l.idx = append(l.idx, idx...)
		l.val = append(l.val, val...)
		l.elims = append(l.elims, elim{col: col, from: from, to: len(l.idx), b: br})
	}
}

// subScaled is dst[j] -= f*src[j] over the whole row, four entries per
// iteration.
func subScaled(dst, src []float64, f float64) {
	src = src[:len(dst)]
	j := 0
	for ; j+4 <= len(dst); j += 4 {
		d, s := dst[j:j+4:j+4], src[j:j+4:j+4]
		d[0] -= f * s[0]
		d[1] -= f * s[1]
		d[2] -= f * s[2]
		d[3] -= f * s[3]
	}
	for ; j < len(dst); j++ {
		dst[j] -= f * src[j]
	}
}

// expelArtificials pivots the basic artificial variables of rows from
// on (all at value ~0 after a feasible phase 1) out of the basis where
// possible. Rows where no structural pivot exists are redundant; their
// artificial stays basic at zero and artificials are blocked from
// entering in phase 2.
func (t *tableau) expelArtificials(from int) {
	for i := from; i < t.m; i++ {
		if t.basis[i] < t.n {
			continue
		}
		pivCol := -1
		for j, v := range t.a[i*t.stride : i*t.stride+t.n] {
			if math.Abs(v) > 1e-8 {
				pivCol = j
				break
			}
		}
		if pivCol >= 0 {
			t.pivot(i, pivCol)
		}
	}
}
