package linalg

import (
	"fmt"
	"math"

	"relaxedbvc/internal/vec"
)

// Matrix helpers that only tests use: they build the inputs of the
// Factor/Solve/Inverse and OrthonormalBasis tests and referee their
// results (A*inv(A) = I, A*x = b, Q^T Q = I).

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

// Identity returns the n x n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
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

// Solve solves A x = b directly.
func Solve(a *Matrix, b vec.V) (vec.V, error) { return Factor(a).Solve(b) }
