// Package simplexgeo implements the simplex geometry of Section 9.1 of
// the paper: the dual basis b_i of Lemma 11, the inscribed-sphere radius
// r = 1 / sum ||b_i|| of Lemma 12 (Akira Toda's formulas), the facet
// inradii r_k of Lemma 14, and the incenter. These give the closed-form
// value of delta*(S) for the f = 1, n = d+1 case (Lemma 13) and the edge
// bounds of Lemma 15 and Theorem 9.
package simplexgeo

import (
	"errors"
	"math"

	"relaxedbvc/internal/linalg"
	"relaxedbvc/internal/vec"
)

// Simplex is a non-degenerate d-simplex given by d+1 affinely independent
// vertices a_1, ..., a_{d+1} in R^d.
type Simplex struct {
	pts  []vec.V // d+1 vertices
	dual []vec.V // b_1..b_{d+1}: columns of B = (A^{-1})^T plus b_{d+1} = -sum
	d    int
}

// ErrDegenerate is returned when the vertices are not affinely
// independent (so they do not form a d-simplex).
var ErrDegenerate = errors.New("simplexgeo: vertices are not affinely independent")

// New builds a Simplex from d+1 vertices in R^d. It returns ErrDegenerate
// if the vertices do not span.
func New(pts []vec.V) (*Simplex, error) {
	if len(pts) == 0 {
		return nil, errors.New("simplexgeo: no vertices")
	}
	d := pts[0].Dim()
	if len(pts) != d+1 {
		return nil, errors.New("simplexgeo: need exactly d+1 vertices in R^d")
	}
	// A = [a_1 - a_{d+1}, ..., a_d - a_{d+1}] as columns.
	cols := make([]vec.V, d)
	for i := 0; i < d; i++ {
		cols[i] = pts[i].Sub(pts[d])
	}
	a := linalg.FromColumns(cols...)
	ainv, err := linalg.Inverse(a)
	if err != nil {
		return nil, ErrDegenerate
	}
	// B = (A^{-1})^T; columns b_i are the rows of A^{-1}.
	dual := make([]vec.V, d+1)
	for i := 0; i < d; i++ {
		dual[i] = ainv.Row(i)
	}
	bd1 := vec.New(d)
	for i := 0; i < d; i++ {
		bd1.AXPY(-1, dual[i])
	}
	dual[d] = bd1
	cp := make([]vec.V, len(pts))
	for i, p := range pts {
		cp[i] = p.Clone()
	}
	return &Simplex{pts: cp, dual: dual, d: d}, nil
}

// Inradius returns the radius of the inscribed sphere:
// r = 1 / sum_{i=1}^{d+1} ||b_i||   (Lemma 12).
func (s *Simplex) Inradius() float64 {
	sum := 0.0
	for _, b := range s.dual {
		sum += b.Norm2()
	}
	return 1 / sum
}

// Incenter returns the center of the inscribed sphere. In barycentric
// coordinates the incenter has weight t_k proportional to ||b_k||, since
// the distance from a point with barycentrics t to facet pi_k is
// t_k / ||b_k||.
func (s *Simplex) Incenter() vec.V {
	sum := 0.0
	norms := make([]float64, len(s.dual))
	for i, b := range s.dual {
		norms[i] = b.Norm2()
		sum += norms[i]
	}
	c := vec.New(s.d)
	for i, p := range s.pts {
		c.AXPY(norms[i]/sum, p)
	}
	return c
}

// FacetInradius returns r_k, the radius of the (d-1)-dimensional sphere
// inscribed in facet pi_k within its own hyperplane (Lemma 14):
// r_k = 1 / sum_{j != k} ||b_{jk}||, with
// b_{jk} = b_j - (<b_j, b_k>/||b_k||^2) b_k.
func (s *Simplex) FacetInradius(k int) float64 {
	if s.d < 2 {
		// A 1-simplex facet is a point; its inradius is 0, and the lemma
		// requires d >= 2.
		return 0
	}
	bk := s.dual[k]
	bk2 := bk.Dot(bk)
	sum := 0.0
	for j, bj := range s.dual {
		if j == k {
			continue
		}
		bjk := bj.Clone().AXPY(-bj.Dot(bk)/bk2, bk)
		sum += bjk.Norm2()
	}
	return 1 / sum
}

// MinFacetInradius returns min_k r_k over all d+1 facets.
func (s *Simplex) MinFacetInradius() float64 {
	m := math.Inf(1)
	for k := range s.pts {
		if r := s.FacetInradius(k); r < m {
			m = r
		}
	}
	return m
}

// MaxEdge returns the length of the longest edge of the simplex in L2.
func (s *Simplex) MaxEdge() float64 {
	return vec.NewSet(s.pts...).MaxEdge(2)
}

// MinEdge returns the length of the shortest edge of the simplex in L2.
func (s *Simplex) MinEdge() float64 {
	return vec.NewSet(s.pts...).MinEdge(2)
}
