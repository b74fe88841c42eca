package minimax

import (
	"math"

	"relaxedbvc/internal/linalg"
)

// master is the bundle's master LP in the dual form solveMaster states,
// negated into a minimization:
//
//	min  sum_i lambda_i support_i + sum_j w_j (s+_j + s-_j)
//	s.t. sum_i lambda_i = 1
//	     sum_i lambda_i u_ij - s+_j + s-_j = 0      (j < d)
//	     lambda, s+, s- >= 0,
//
// solved by a primal revised simplex on its d+1 rows whose basis
// persists across probes: each probe's cuts join as new columns and are
// priced from the duals of the basis the last solve ended on. lambda on
// one cut plus, per coordinate, whichever of s+_j and s-_j absorbs that
// cut's u_j is a feasible basis of every bundle, so no phase 1 is ever
// needed: a fresh bundle starts from its first cut's, and so does one
// whose cuts were pruned. Column k is s+_k for k < d, s-_(k-d) for
// k < 2d and cut k-2d after that.
//
// The rules are internal/lp's: Dantzig's entering column, the ratio test
// with ties to the smaller column, and Bland's rule once the objective
// stalls. The inverse is refactored from the basis at the start of every
// solve, so rounding does not build up across probes.
type master struct {
	rows    int       // d+1
	restart int       // >= 0: start the next solve from this cut's basis
	basis   []int     // the column basic in each row
	inv     []float64 // B^-1, row-major
	x       []float64 // the basic values, B^-1 e_0
	pi      []float64 // the duals c_B B^-1
	alpha   []float64 // B^-1 a of the entering column
	a, e    []float64 // scratch columns
	b       linalg.Matrix
	lu      linalg.LU
}

const (
	masterEps      = 1e-9  // reduced cost below -masterEps improves
	masterPivotEps = 1e-10 // smallest pivot the ratio test accepts
)

func newMaster(d int) master {
	r := d + 1
	f := make([]float64, 2*r*r+5*r)
	return master{
		rows: r, basis: make([]int, r), inv: f[:r*r], b: linalg.Matrix{Rows: r, Cols: r, Data: f[r*r : 2*r*r]},
		x: f[2*r*r : 2*r*r+r], pi: f[2*r*r+r : 2*r*r+2*r], alpha: f[2*r*r+2*r : 2*r*r+3*r], a: f[2*r*r+3*r : 2*r*r+4*r], e: f[2*r*r+4*r:],
	}
}

// column writes column k of the constraints into a and returns its cost.
func (m *master) column(k int, cuts []cut, w, a []float64) float64 {
	d := m.rows - 1
	clear(a)
	switch {
	case k < d:
		a[1+k] = -1
		return w[k]
	case k < 2*d:
		a[1+k-d] = 1
		return w[k-d]
	}
	a[0] = 1
	copy(a[1:], cuts[k-2*d].u)
	return cuts[k-2*d].support
}

// factor sets B^-1 and x for the basis; it reports false when the basis
// is singular or its point infeasible beyond rounding.
func (m *master) factor(cuts []cut, w []float64) bool {
	r := m.rows
	for c, k := range m.basis {
		m.column(k, cuts, w, m.a)
		for i, v := range m.a {
			m.b.Data[i*r+c] = v
		}
	}
	m.lu.FactorInto(&m.b)
	for c := range m.e {
		clear(m.e)
		m.e[c] = 1
		if m.lu.SolveInto(m.a, m.e) != nil {
			return false
		}
		for i, v := range m.a {
			m.inv[i*r+c] = v
		}
	}
	for i := range m.x {
		if m.x[i] = m.inv[i*r]; m.x[i] < -1e-9 {
			return false
		}
		m.x[i] = math.Max(m.x[i], 0)
	}
	return true
}

// start sets the basis of lambda on cuts[c]: s+_j basic at u_j when
// u_j >= 0, s-_j at -u_j otherwise.
func (m *master) start(cuts []cut, w []float64, c int) {
	d := m.rows - 1
	m.basis[0] = 2*d + c
	for j, u := range cuts[c].u {
		m.basis[1+j] = d + j
		if u >= 0 {
			m.basis[1+j] = j
		}
	}
	m.factor(cuts, w) // B is unit lower triangular up to signs
	m.restart = -1
}

// solve optimizes over cuts from the basis the last solve ended on and
// reports whether it reached an optimum. m.x and m.pi then hold the
// basic values and the duals.
func (m *master) solve(cuts []cut, w []float64) bool {
	if m.restart >= 0 {
		m.start(cuts, w, m.restart)
	} else if !m.factor(cuts, w) {
		m.start(cuts, w, 0)
	}
	r, n := m.rows, 2*(m.rows-1)+len(cuts)
	val := 0.0
	for i, k := range m.basis {
		val += m.column(k, cuts, w, m.a) * m.x[i]
	}
	last, stalled, bland := val, 0, false
	for iter, limit := 0, 5000+60*(r+n); iter < limit; iter++ {
		clear(m.pi)
		for i, k := range m.basis {
			cb := m.column(k, cuts, w, m.a)
			for c, v := range m.inv[i*r : i*r+r] {
				m.pi[c] += cb * v
			}
		}
		enter, best := -1, -masterEps
		for k := 0; k < n; k++ {
			rc := m.column(k, cuts, w, m.a)
			for i, v := range m.a {
				rc -= m.pi[i] * v
			}
			if rc < best {
				enter, best = k, rc
				if bland {
					break
				}
			}
		}
		if enter < 0 {
			return true
		}
		m.column(enter, cuts, w, m.a)
		for i := range m.alpha {
			m.alpha[i] = 0
			for j, v := range m.inv[i*r : i*r+r] {
				m.alpha[i] += v * m.a[j]
			}
		}
		leave, ratio := -1, math.Inf(1)
		for i, a := range m.alpha {
			if a <= masterPivotEps {
				continue
			}
			q := m.x[i] / a
			if q < ratio-1e-12 || (q < ratio+1e-12 && (leave < 0 || m.basis[i] < m.basis[leave])) {
				leave, ratio = i, q
			}
		}
		if leave < 0 {
			return false
		}
		m.pivot(leave, enter)
		val += best * m.x[leave]
		if val < last-1e-12*(1+math.Abs(last)) {
			last, stalled = val, 0
		} else if stalled++; stalled > 2*(r+n)+50 {
			bland = true
		}
	}
	return false
}

// pivot brings column enter, whose B^-1 a is m.alpha, into the basis in
// place of row leave's.
func (m *master) pivot(leave, enter int) {
	r := m.rows
	s := 1 / m.alpha[leave]
	lr := m.inv[leave*r : leave*r+r]
	for j := range lr {
		lr[j] *= s
	}
	m.x[leave] *= s
	for i, a := range m.alpha {
		if i == leave || a == 0 {
			continue
		}
		row := m.inv[i*r : i*r+r]
		for j, v := range lr {
			row[j] -= a * v
		}
		m.x[i] -= a * m.x[leave]
		if m.x[i] < 0 && m.x[i] > -1e-11 {
			m.x[i] = 0
		}
	}
	m.basis[leave] = enter
}
