package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"relaxedbvc/internal/vec"
)

// Property: det(AB) = det(A)det(B) for random square matrices.
func TestPropertyDetMultiplicative(t *testing.T) {
	rng := rand.New(rand.NewSource(251))
	f := func() bool {
		n := 1 + rng.Intn(5)
		a := randMatrix(rng, n, n)
		b := randMatrix(rng, n, n)
		lhs := Det(a.Mul(b))
		rhs := Det(a) * Det(b)
		return math.Abs(lhs-rhs) < 1e-7*(1+math.Abs(rhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: (A^T)^T = A and (AB)^T = B^T A^T.
func TestPropertyTransposeAlgebra(t *testing.T) {
	rng := rand.New(rand.NewSource(252))
	f := func() bool {
		r := 1 + rng.Intn(4)
		c := 1 + rng.Intn(4)
		k := 1 + rng.Intn(4)
		a := randMatrix(rng, r, c)
		b := randMatrix(rng, c, k)
		if !a.T().T().Equal(a) {
			return false
		}
		return a.Mul(b).T().ApproxEqual(b.T().Mul(a.T()), 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: solving against a random RHS and multiplying back recovers
// it (when the matrix is well-conditioned enough to invert).
func TestPropertySolveRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(253))
	f := func() bool {
		n := 1 + rng.Intn(6)
		a := randMatrix(rng, n, n)
		if math.Abs(Det(a)) < 1e-6 {
			return true // skip near-singular draws
		}
		b := make(vec.V, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := Solve(a, b)
		if err != nil {
			return true
		}
		return a.MulVec(x).ApproxEqual(b, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: the detected rank is invariant under row scaling and row
// swaps.
func TestPropertyRankInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(254))
	f := func() bool {
		r := 2 + rng.Intn(3)
		c := 2 + rng.Intn(3)
		rows := make([]vec.V, r)
		for i := range rows {
			rows[i] = vec.New(c)
			for j := range rows[i] {
				rows[i][j] = rng.NormFloat64()
			}
		}
		base := rank(rows...)
		// Scale a random row by a nonzero factor.
		b := append([]vec.V(nil), rows...)
		row := rng.Intn(r)
		b[row] = rows[row].Clone().Scale(1 + rng.Float64()*3)
		if rank(b...) != base {
			return false
		}
		// Swap two rows.
		sw := append([]vec.V(nil), rows...)
		r2 := rng.Intn(r)
		sw[row], sw[r2] = sw[r2], sw[row]
		return rank(sw...) == base
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Property: the subspace projector is an isometry on the points that
// defined it, for any subspace dimension.
func TestPropertyProjectorIsometry(t *testing.T) {
	rng := rand.New(rand.NewSource(255))
	f := func() bool {
		d := 3 + rng.Intn(4)
		sub := 1 + rng.Intn(d-1)
		basis := make([]vec.V, sub)
		for i := range basis {
			basis[i] = make(vec.V, d)
			for j := range basis[i] {
				basis[i][j] = rng.NormFloat64()
			}
		}
		npts := 3 + rng.Intn(3)
		pts := make([]vec.V, npts)
		for i := range pts {
			p := make(vec.V, d)
			for _, b := range basis {
				p.AXPY(rng.NormFloat64(), b)
			}
			pts[i] = p
		}
		sp := NewSubspaceProjector(pts)
		for i := 0; i < npts; i++ {
			for j := i + 1; j < npts; j++ {
				want := pts[i].Dist2(pts[j])
				got := sp.Project(pts[i]).Dist2(sp.Project(pts[j]))
				if math.Abs(want-got) > 1e-8*(1+want) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
