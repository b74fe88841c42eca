package linalg

import "relaxedbvc/internal/vec"

// OrthonormalBasis returns an orthonormal basis (as columns of the result)
// of span{vs}, by modified Gram-Schmidt with rank detection. The number
// of columns equals the numerical rank.
func OrthonormalBasis(vs []vec.V) *Matrix {
	if len(vs) == 0 {
		return NewMatrix(0, 0)
	}
	d := vs[0].Dim()
	// Modified Gram-Schmidt with re-orthogonalization and pivot skipping:
	// simple, adequate for the small sizes here, and keeps only the
	// independent directions.
	basis := make([]vec.V, 0, len(vs))
	for _, v := range vs {
		w := v.Clone()
		for pass := 0; pass < 2; pass++ { // re-orthogonalize once for stability
			for _, b := range basis {
				w.AXPY(-w.Dot(b), b)
			}
		}
		n := w.Norm2()
		if n > 1e-10 {
			basis = append(basis, w.Scale(1/n))
		}
	}
	out := NewMatrix(d, len(basis))
	for j, b := range basis {
		for i := 0; i < d; i++ {
			out.Set(i, j, b[i])
		}
	}
	return out
}

// SubspaceProjector builds the distance-preserving projection used in
// Theorem 8 / Theorem 9 Case II: given points whose differences from the
// last point span a d'-dimensional subspace W (d' < d), it returns a map
// P : R^d -> R^{d'} with ||P a_i - P a_j||_2 = ||a_i - a_j||_2 for all
// points, implemented as x -> Q^T (x - origin) with Q an orthonormal basis
// of W.
type SubspaceProjector struct {
	origin vec.V
	q      *Matrix // d x d' orthonormal columns
}

// NewSubspaceProjector builds the projector for the given points, using
// the last point as the origin. The subspace dimension is the numerical
// rank of the difference vectors.
func NewSubspaceProjector(pts []vec.V) *SubspaceProjector {
	if len(pts) == 0 {
		panic("linalg: NewSubspaceProjector needs at least one point")
	}
	origin := pts[len(pts)-1].Clone()
	diffs := make([]vec.V, 0, len(pts)-1)
	for _, p := range pts[:len(pts)-1] {
		diffs = append(diffs, p.Sub(origin))
	}
	return &SubspaceProjector{origin: origin, q: OrthonormalBasis(diffs)}
}

// Project maps a point of the original space into R^{d'}. For points in
// the affine subspace origin + W the map preserves pairwise Euclidean
// distances.
func (sp *SubspaceProjector) Project(x vec.V) vec.V {
	diff := x.Sub(sp.origin)
	out := make(vec.V, sp.q.Cols)
	for j := 0; j < sp.q.Cols; j++ {
		s := 0.0
		for i := 0; i < sp.q.Rows; i++ {
			s += sp.q.At(i, j) * diff[i]
		}
		out[j] = s
	}
	return out
}

// Lift maps a point of R^{d'} back into the original affine subspace.
func (sp *SubspaceProjector) Lift(y vec.V) vec.V {
	if y.Dim() != sp.q.Cols {
		panic("linalg: Lift dimension mismatch")
	}
	out := sp.origin.Clone()
	for j := 0; j < sp.q.Cols; j++ {
		for i := 0; i < sp.q.Rows; i++ {
			out[i] += sp.q.At(i, j) * y[j]
		}
	}
	return out
}
