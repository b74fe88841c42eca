package linalg

import (
	"math"
	"math/rand"
	"testing"

	"relaxedbvc/internal/vec"
)

func randMatrix(rng *rand.Rand, r, c int) *Matrix {
	m := NewMatrix(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestMatrixConstruction(t *testing.T) {
	m := FromRows(vec.Of(1, 2), vec.Of(3, 4))
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Errorf("FromRows wrong layout: %+v", m)
	}
	c := FromColumns(vec.Of(1, 3), vec.Of(2, 4))
	if !m.Equal(c) {
		t.Error("FromColumns disagrees with FromRows")
	}
	if !m.Row(1).Equal(vec.Of(3, 4)) || !m.Col(0).Equal(vec.Of(1, 3)) {
		t.Error("Row/Col extraction wrong")
	}
}

func TestIdentityAndMul(t *testing.T) {
	a := FromRows(vec.Of(1, 2), vec.Of(3, 4))
	if !a.Mul(Identity(2)).Equal(a) {
		t.Error("A*I != A")
	}
	b := FromRows(vec.Of(5, 6), vec.Of(7, 8))
	ab := a.Mul(b)
	want := FromRows(vec.Of(19, 22), vec.Of(43, 50))
	if !ab.Equal(want) {
		t.Errorf("Mul = %+v", ab)
	}
}

func TestMulVec(t *testing.T) {
	a := FromRows(vec.Of(1, 2), vec.Of(3, 4))
	if got := a.MulVec(vec.Of(1, 1)); !got.Equal(vec.Of(3, 7)) {
		t.Errorf("MulVec = %v", got)
	}
}

func TestTranspose(t *testing.T) {
	a := FromRows(vec.Of(1, 2, 3), vec.Of(4, 5, 6))
	at := a.T()
	if at.Rows != 3 || at.Cols != 2 || at.At(2, 1) != 6 {
		t.Errorf("T = %+v", at)
	}
}

func TestSolveKnown(t *testing.T) {
	a := FromRows(vec.Of(2, 1), vec.Of(1, 3))
	x, err := Solve(a, vec.Of(5, 10))
	if err != nil {
		t.Fatal(err)
	}
	if !x.ApproxEqual(vec.Of(1, 3), 1e-12) {
		t.Errorf("Solve = %v", x)
	}
}

func TestSolveSingular(t *testing.T) {
	a := FromRows(vec.Of(1, 2), vec.Of(2, 4))
	if _, err := Solve(a, vec.Of(1, 1)); err == nil {
		t.Error("Solve of singular matrix did not error")
	}
	if _, err := Inverse(a); err == nil {
		t.Error("Inverse of singular matrix did not error")
	}
}

func TestDetKnown(t *testing.T) {
	a := FromRows(vec.Of(1, 2), vec.Of(3, 4))
	if got := Det(a); math.Abs(got-(-2)) > 1e-12 {
		t.Errorf("Det = %v", got)
	}
	if got := Det(Identity(4)); math.Abs(got-1) > 1e-12 {
		t.Errorf("Det(I) = %v", got)
	}
	// Permutation parity check.
	p := FromRows(vec.Of(0, 1), vec.Of(1, 0))
	if got := Det(p); math.Abs(got-(-1)) > 1e-12 {
		t.Errorf("Det(swap) = %v", got)
	}
}

func TestInverseRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(8)
		a := randMatrix(rng, n, n)
		inv, err := Inverse(a)
		if err != nil {
			continue // astronomically unlikely, but legal
		}
		if !a.Mul(inv).ApproxEqual(Identity(n), 1e-8) {
			t.Fatalf("A*A^-1 != I for n=%d", n)
		}
	}
}

func TestSolveRandomRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(10)
		a := randMatrix(rng, n, n)
		want := make(vec.V, n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		b := a.MulVec(want)
		got, err := Solve(a, b)
		if err != nil {
			continue
		}
		if !got.ApproxEqual(want, 1e-7) {
			t.Fatalf("round trip failed: got %v want %v", got, want)
		}
	}
}

// rank is the numerical rank OrthonormalBasis detects: the number of
// independent directions among vs.
func rank(vs ...vec.V) int { return OrthonormalBasis(vs).Cols }

func TestRank(t *testing.T) {
	if rank(vec.Of(1, 0, 0), vec.Of(0, 1, 0), vec.Of(0, 0, 1)) != 3 {
		t.Error("rank of identity != 3")
	}
	if got := rank(vec.Of(1, 2, 3), vec.Of(2, 4, 6), vec.Of(0, 0, 1)); got != 2 {
		t.Errorf("rank = %d, want 2", got)
	}
	if got := rank(vec.Of(1, 0, 0, 0), vec.Of(0, 1, 0, 0)); got != 2 {
		t.Errorf("wide rank = %d, want 2", got)
	}
	if rank() != 0 {
		t.Error("rank of empty != 0")
	}
}

func TestLinearIndependence(t *testing.T) {
	if rank(vec.Of(1, 0), vec.Of(0, 1)) != 2 {
		t.Error("e1,e2 dependent?")
	}
	if rank(vec.Of(1, 2), vec.Of(2, 4)) == 2 {
		t.Error("colinear vectors declared independent")
	}
	if rank(vec.Of(1, 0), vec.Of(0, 1), vec.Of(1, 1)) == 3 {
		t.Error("3 vectors in R^2 declared independent")
	}
}

// TestAffineIndependence: the projector's subspace has one dimension
// fewer than its points exactly when they are affinely independent.
func TestAffineIndependence(t *testing.T) {
	subDim := func(pts ...vec.V) int { return NewSubspaceProjector(pts).q.Cols }
	tri := []vec.V{vec.Of(0, 0), vec.Of(1, 0), vec.Of(0, 1)}
	if subDim(tri...) != 2 {
		t.Error("triangle not affinely independent")
	}
	if subDim(vec.Of(0, 0), vec.Of(1, 1), vec.Of(2, 2)) != 1 {
		t.Error("collinear points span more than a line")
	}
	if subDim(append(tri, vec.Of(5, 5))...) != 2 {
		t.Error("4 points in R^2 span more than R^2")
	}
	if subDim(vec.Of(3, 3)) != 0 {
		t.Error("single point should span a 0-dimensional subspace")
	}
}

func TestOrthonormalBasis(t *testing.T) {
	vs := []vec.V{vec.Of(2, 0, 0), vec.Of(4, 0, 0), vec.Of(0, 3, 0)}
	b := OrthonormalBasis(vs)
	if b.Cols != 2 {
		t.Fatalf("basis cols = %d, want 2", b.Cols)
	}
	if !b.T().Mul(b).ApproxEqual(Identity(2), 1e-10) {
		t.Error("basis not orthonormal")
	}
}

func TestSubspaceProjectorPreservesDistances(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	// Points in a random 3-dim affine subspace of R^6.
	d, dp := 6, 3
	basis := make([]vec.V, dp)
	for i := range basis {
		basis[i] = make(vec.V, d)
		for j := range basis[i] {
			basis[i][j] = rng.NormFloat64()
		}
	}
	origin := make(vec.V, d)
	for j := range origin {
		origin[j] = rng.NormFloat64()
	}
	pts := make([]vec.V, 5)
	for i := range pts {
		p := origin.Clone()
		for _, b := range basis {
			p.AXPY(rng.NormFloat64(), b)
		}
		pts[i] = p
	}
	sp := NewSubspaceProjector(pts)
	if sp.q.Cols > dp {
		t.Fatalf("subspace dimension = %d > %d", sp.q.Cols, dp)
	}
	proj := make([]vec.V, len(pts))
	for i, p := range pts {
		proj[i] = sp.Project(p)
	}
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			want := pts[i].Dist2(pts[j])
			got := proj[i].Dist2(proj[j])
			if math.Abs(want-got) > 1e-9*(1+want) {
				t.Fatalf("distance not preserved: %v vs %v", want, got)
			}
		}
	}
	// Lift is a right inverse of Project on the subspace.
	for i, p := range pts {
		back := sp.Lift(proj[i])
		if !back.ApproxEqual(p, 1e-9) {
			t.Fatalf("Lift(Project(p)) != p: %v vs %v", back, p)
		}
	}
}

func TestSingularDetection(t *testing.T) {
	f := Factor(FromRows(vec.Of(1, 2), vec.Of(2, 4)))
	if !f.Singular(1e-13) {
		t.Error("rank-1 matrix not flagged singular")
	}
	if f2 := Factor(Identity(3)); f2.Singular(1e-13) {
		t.Error("identity flagged singular")
	}
}
