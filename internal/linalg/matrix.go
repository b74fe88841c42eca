// Package linalg provides the dense linear algebra needed by the
// geometric machinery of the relaxed Byzantine vector consensus library:
// LU factorization with partial pivoting (solve / inverse / determinant),
// Householder QR, rank and affine-independence tests, and
// distance-preserving projections onto spanned subspaces.
//
// Matrices are small (at most a few hundred rows) so everything is dense
// and allocation-simple.
package linalg

import (
	"errors"
	"fmt"
	"math"

	"relaxedbvc/internal/vec"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, row-major
}

// NewMatrix returns a zero r x c matrix.
func NewMatrix(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic("linalg: negative dimension")
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// FromRows builds a matrix whose i-th row is rows[i].
func FromRows(rows ...vec.V) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	c := rows[0].Dim()
	m := NewMatrix(len(rows), c)
	for i, r := range rows {
		if r.Dim() != c {
			panic("linalg: ragged rows")
		}
		copy(m.Data[i*c:(i+1)*c], r)
	}
	return m
}

// FromColumns builds a matrix whose j-th column is cols[j].
func FromColumns(cols ...vec.V) *Matrix {
	if len(cols) == 0 {
		return NewMatrix(0, 0)
	}
	r := cols[0].Dim()
	m := NewMatrix(r, len(cols))
	for j, c := range cols {
		if c.Dim() != r {
			panic("linalg: ragged columns")
		}
		for i := 0; i < r; i++ {
			m.Set(i, j, c[i])
		}
	}
	return m
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// At returns m[i,j].
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns m[i,j] = v.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Row returns a copy of row i as a vector.
func (m *Matrix) Row(i int) vec.V {
	r := make(vec.V, m.Cols)
	copy(r, m.Data[i*m.Cols:(i+1)*m.Cols])
	return r
}

// Col returns a copy of column j as a vector.
func (m *Matrix) Col(j int) vec.V {
	c := make(vec.V, m.Rows)
	for i := 0; i < m.Rows; i++ {
		c[i] = m.At(i, j)
	}
	return c
}

// T returns the transpose.
func (m *Matrix) T() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// Mul returns m * b.
func (m *Matrix) Mul(b *Matrix) *Matrix {
	if m.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: Mul shape mismatch %dx%d * %dx%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	out := NewMatrix(m.Rows, b.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < m.Cols; k++ {
			a := m.At(i, k)
			if a == 0 {
				continue
			}
			for j := 0; j < b.Cols; j++ {
				out.Data[i*out.Cols+j] += a * b.At(k, j)
			}
		}
	}
	return out
}

// MulVec returns m * x.
func (m *Matrix) MulVec(x vec.V) vec.V {
	if m.Cols != x.Dim() {
		panic("linalg: MulVec shape mismatch")
	}
	out := make(vec.V, m.Rows)
	for i := 0; i < m.Rows; i++ {
		s := 0.0
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, a := range row {
			s += a * x[j]
		}
		out[i] = s
	}
	return out
}

// Equal reports exact element-wise equality.
func (m *Matrix) Equal(b *Matrix) bool {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		return false
	}
	for i, v := range m.Data {
		if b.Data[i] != v {
			return false
		}
	}
	return true
}

// ApproxEqual reports element-wise equality within tol.
func (m *Matrix) ApproxEqual(b *Matrix, tol float64) bool {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		return false
	}
	for i, v := range m.Data {
		if math.Abs(b.Data[i]-v) > tol {
			return false
		}
	}
	return true
}

// LU holds an LU factorization with partial pivoting: P*A = L*U. Its
// zero value is an empty factorization for FactorInto to fill.
type LU struct {
	lu    Matrix
	piv   []int
	signP float64 // determinant sign of P
	n     int
}

var errSingular = errors.New("linalg: matrix is singular")

// Factor computes the LU factorization of square A. It never fails; a
// singular matrix is detected later by Solve/Inverse/Det.
func Factor(a *Matrix) *LU {
	f := new(LU)
	f.FactorInto(a)
	return f
}

// FactorInto overwrites f with the LU factorization of square A, reusing
// f's storage once it is large enough; A is not modified. Factor is
// FactorInto on a fresh LU, so both produce the same bits.
func (f *LU) FactorInto(a *Matrix) {
	if a.Rows != a.Cols {
		panic("linalg: Factor requires a square matrix")
	}
	n := a.Rows
	if cap(f.lu.Data) < n*n {
		f.lu.Data = make([]float64, n*n)
	}
	f.lu = Matrix{Rows: n, Cols: n, Data: f.lu.Data[:n*n]}
	copy(f.lu.Data, a.Data)
	if cap(f.piv) < n {
		f.piv = make([]int, n)
	}
	f.piv = f.piv[:n]
	lu, piv := &f.lu, f.piv
	for i := range piv {
		piv[i] = i
	}
	sign := 1.0
	for k := 0; k < n; k++ {
		// Partial pivot: largest |value| in column k at or below the diagonal.
		p, best := k, math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if a := math.Abs(lu.At(i, k)); a > best {
				p, best = i, a
			}
		}
		if p != k {
			for j := 0; j < n; j++ {
				lu.Data[k*n+j], lu.Data[p*n+j] = lu.Data[p*n+j], lu.Data[k*n+j]
			}
			piv[k], piv[p] = piv[p], piv[k]
			sign = -sign
		}
		pivot := lu.At(k, k)
		if pivot == 0 {
			continue // singular; leave zeros
		}
		for i := k + 1; i < n; i++ {
			m := lu.At(i, k) / pivot
			lu.Set(i, k, m)
			if m == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				lu.Set(i, j, lu.At(i, j)-m*lu.At(k, j))
			}
		}
	}
	f.signP, f.n = sign, n
}

// Singular reports whether the factored matrix is (numerically) singular
// relative to tol times its largest diagonal magnitude.
func (f *LU) Singular(tol float64) bool {
	maxD := 0.0
	for i := 0; i < f.n; i++ {
		if a := math.Abs(f.lu.At(i, i)); a > maxD {
			maxD = a
		}
	}
	if maxD == 0 {
		return true
	}
	for i := 0; i < f.n; i++ {
		if math.Abs(f.lu.At(i, i)) <= tol*maxD {
			return true
		}
	}
	return false
}

// Det returns the determinant of the factored matrix.
func (f *LU) Det() float64 {
	d := f.signP
	for i := 0; i < f.n; i++ {
		d *= f.lu.At(i, i)
	}
	return d
}

// Solve solves A x = b for the factored A. Returns an error if A is
// numerically singular.
func (f *LU) Solve(b vec.V) (vec.V, error) {
	x := make(vec.V, f.n)
	if err := f.SolveInto(x, b); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveInto is Solve writing the solution into x (length n, not aliasing
// b); x is untouched when A is numerically singular.
func (f *LU) SolveInto(x, b vec.V) error {
	if b.Dim() != f.n || x.Dim() != f.n {
		panic("linalg: Solve dimension mismatch")
	}
	if f.Singular(1e-13) {
		return errSingular
	}
	n := f.n
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	// Forward substitution with unit lower triangle.
	for i := 1; i < n; i++ {
		s := x[i]
		for j := 0; j < i; j++ {
			s -= f.lu.At(i, j) * x[j]
		}
		x[i] = s
	}
	// Back substitution with upper triangle.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= f.lu.At(i, j) * x[j]
		}
		x[i] = s / f.lu.At(i, i)
	}
	return nil
}

// Solve solves A x = b directly.
func Solve(a *Matrix, b vec.V) (vec.V, error) { return Factor(a).Solve(b) }

// Det returns det(A) for square A.
func Det(a *Matrix) float64 { return Factor(a).Det() }

// Inverse returns A^{-1}, or an error if A is numerically singular.
func Inverse(a *Matrix) (*Matrix, error) {
	f := Factor(a)
	if f.Singular(1e-13) {
		return nil, errSingular
	}
	n := a.Rows
	inv := NewMatrix(n, n)
	e := make(vec.V, n)
	for j := 0; j < n; j++ {
		for i := range e {
			e[i] = 0
		}
		e[j] = 1
		col, err := f.Solve(e)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			inv.Set(i, j, col[i])
		}
	}
	return inv, nil
}
