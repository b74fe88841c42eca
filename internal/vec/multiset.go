package vec

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Set is a multiset of points in R^d, in a fixed order so that index-based
// subsets are meaningful. Repeated points are allowed, as in the paper.
type Set struct {
	pts []V
	dim int
}

// NewSet builds a multiset from the given points. All points must share a
// dimension. The points are not copied deeply unless Clone is used.
func NewSet(pts ...V) *Set {
	s := &Set{pts: append([]V(nil), pts...)}
	if len(pts) > 0 {
		s.dim = pts[0].Dim()
		for _, p := range pts {
			if p.Dim() != s.dim {
				panic(fmt.Sprintf("vec: mixed dimensions in Set: %d vs %d", s.dim, p.Dim()))
			}
		}
	}
	return s
}

// Len returns |S| counting repetitions.
func (s *Set) Len() int { return len(s.pts) }

// Dim returns the ambient dimension (0 for an empty set).
func (s *Set) Dim() int { return s.dim }

// At returns the i-th point (not a copy).
func (s *Set) At(i int) V { return s.pts[i] }

// Points returns the backing slice (not a copy).
func (s *Set) Points() []V { return s.pts }

// Clone returns a deep copy of the multiset.
func (s *Set) Clone() *Set {
	pts := make([]V, len(s.pts))
	for i, p := range s.pts {
		pts[i] = p.Clone()
	}
	return &Set{pts: pts, dim: s.dim}
}

// Append adds points to the multiset.
func (s *Set) Append(pts ...V) {
	for _, p := range pts {
		if s.dim == 0 && len(s.pts) == 0 {
			s.dim = p.Dim()
		}
		if p.Dim() != s.dim {
			panic("vec: Append dimension mismatch")
		}
		s.pts = append(s.pts, p)
	}
}

// Without returns a new Set with the element at index i removed.
func (s *Set) Without(i int) *Set {
	pts := make([]V, 0, len(s.pts)-1)
	pts = append(pts, s.pts[:i]...)
	pts = append(pts, s.pts[i+1:]...)
	return &Set{pts: pts, dim: s.dim}
}

// Subset returns the sub-multiset selected by the given indices.
func (s *Set) Subset(idx []int) *Set {
	pts := make([]V, len(idx))
	for j, i := range idx {
		pts[j] = s.pts[i]
	}
	return &Set{pts: pts, dim: s.dim}
}

// SubsetInto writes the sub-multiset selected by idx into dst, reusing
// dst's backing storage, and returns dst. The selected points are shared
// with s (not copied), exactly as Subset shares them; only the slice
// header churn of Subset is avoided. Used by the scratch-buffer reuse in
// the partition-scan kernels.
func (s *Set) SubsetInto(idx []int, dst *Set) *Set {
	if cap(dst.pts) < len(idx) {
		dst.pts = make([]V, 0, len(idx))
	}
	dst.pts = dst.pts[:0]
	for _, i := range idx {
		dst.pts = append(dst.pts, s.pts[i])
	}
	dst.dim = s.dim
	return dst
}

// Project returns g_D(S): the multiset of D-projections of the points.
func (s *Set) Project(D []int) *Set {
	pts := make([]V, len(s.pts))
	for i, p := range s.pts {
		pts[i] = Project(p, D)
	}
	return &Set{pts: pts, dim: len(D)}
}

// String renders the multiset.
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range s.pts {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(p.String())
	}
	b.WriteByte('}')
	return b.String()
}

// Project returns g_D(u): the |D|-dimensional vector retaining the
// coordinates of u whose (0-based) indices appear in D, in D's order.
// D must be strictly increasing per Definition 1; Projection panics on a
// repeated or out-of-range index.
func Project(u V, D []int) V {
	out := make(V, len(D))
	prev := -1
	for i, d := range D {
		if d <= prev || d >= len(u) {
			panic(fmt.Sprintf("vec: invalid projection index set %v for dim %d", D, len(u)))
		}
		out[i] = u[d]
		prev = d
	}
	return out
}

// Edge is an unordered pair of point indices into a Set.
type Edge struct{ I, J int }

// Edges returns all unordered index pairs of S (the edge set E in the
// paper, with endpoints identified by index so repeated points still give
// distinct edges).
func (s *Set) Edges() []Edge {
	n := len(s.pts)
	es := make([]Edge, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			es = append(es, Edge{i, j})
		}
	}
	return es
}

// EdgeLengths returns the Lp lengths of all edges of S. An empty slice is
// returned when |S| < 2.
func (s *Set) EdgeLengths(p float64) []float64 {
	es := s.Edges()
	ls := make([]float64, len(es))
	for k, e := range es {
		ls[k] = s.pts[e.I].DistP(s.pts[e.J], p)
	}
	return ls
}

// MinEdge returns min over edges of ||e||_p, i.e. the minimum pairwise
// Lp distance. Returns +Inf when |S| < 2.
func (s *Set) MinEdge(p float64) float64 {
	m := math.Inf(1)
	for _, l := range s.EdgeLengths(p) {
		if l < m {
			m = l
		}
	}
	return m
}

// MaxEdge returns max over edges of ||e||_p (the diameter of S in Lp).
// Returns 0 when |S| < 2.
func (s *Set) MaxEdge(p float64) float64 {
	m := 0.0
	for _, l := range s.EdgeLengths(p) {
		if l > m {
			m = l
		}
	}
	return m
}

// SortedCoordinate returns the i-th coordinates of the points, sorted
// ascending. Used by scalar consensus and per-coordinate arguments.
func (s *Set) SortedCoordinate(i int) []float64 {
	xs := make([]float64, len(s.pts))
	for k, p := range s.pts {
		xs[k] = p[i]
	}
	sort.Float64s(xs)
	return xs
}

// Combinations calls fn with each size-k subset of {0,...,n-1}, in
// lexicographic order. The slice passed to fn is reused; copy it if it
// must be retained. fn returning false stops the enumeration early.
func Combinations(n, k int, fn func(idx []int) bool) {
	if k < 0 || k > n {
		return
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	for {
		if !fn(idx) {
			return
		}
		// Advance to the next combination.
		i := k - 1
		for i >= 0 && idx[i] == n-k+i {
			i--
		}
		if i < 0 {
			return
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}

// ProjScratch holds reusable storage for repeated projections, so sweep
// loops that project the same set onto many coordinate subsets stop
// allocating per subset. Not safe for concurrent use; keep one per
// goroutine. The Set and vectors returned by its methods are valid until
// the next call on the same scratch.
type ProjScratch struct {
	flat []float64
	pts  []V
	set  Set
	q    V
}

// ProjectInto is Project(u, D) into the scratch's reusable vector.
func (ps *ProjScratch) ProjectInto(u V, D []int) V {
	if cap(ps.q) < len(D) {
		ps.q = make(V, len(D))
	}
	ps.q = ps.q[:len(D)]
	prev := -1
	for i, d := range D {
		if d <= prev || d >= len(u) {
			panic(fmt.Sprintf("vec: invalid projection index set %v for dim %d", D, len(u)))
		}
		ps.q[i] = u[d]
		prev = d
	}
	return ps.q
}

// ProjectSetInto is s.Project(D) into the scratch's reusable set.
func (ps *ProjScratch) ProjectSetInto(s *Set, D []int) *Set {
	n, dd := s.Len(), len(D)
	if cap(ps.flat) < n*dd {
		ps.flat = make([]float64, n*dd)
	}
	ps.flat = ps.flat[:n*dd]
	if cap(ps.pts) < n {
		ps.pts = make([]V, n)
	}
	ps.pts = ps.pts[:n]
	for i := 0; i < n; i++ {
		p := s.At(i)
		row := ps.flat[i*dd : (i+1)*dd]
		prev := -1
		for j, d := range D {
			if d <= prev || d >= len(p) {
				panic(fmt.Sprintf("vec: invalid projection index set %v for dim %d", D, len(p)))
			}
			row[j] = p[d]
			prev = d
		}
		ps.pts[i] = V(row)
	}
	ps.set.pts = ps.pts
	ps.set.dim = dd
	return &ps.set
}

// IndexSubsetsDroppingF calls fn with each size-(n-f) subset of indices of
// a set of size n. These are the candidate "non-faulty" index sets T with
// |T| = |Y| - f used in the definition of Gamma(Y).
func IndexSubsetsDroppingF(n, f int, fn func(keep []int) bool) {
	Combinations(n, n-f, fn)
}

// Partitions calls fn with each partition of {0,...,n-1} into exactly
// parts non-empty blocks (as a slice of index slices). Blocks and the
// partition slice are reused across calls. fn returning false stops early.
// Used by the Tverberg search.
func Partitions(n, parts int, fn func(blocks [][]int) bool) {
	if parts <= 0 || parts > n {
		return
	}
	assign := make([]int, n) // assign[i] = block of element i
	blocks := make([][]int, parts)
	var rec func(i, used int) bool
	rec = func(i, used int) bool {
		if i == n {
			if used != parts {
				return true
			}
			for b := range blocks {
				blocks[b] = blocks[b][:0]
			}
			for e, b := range assign {
				blocks[b] = append(blocks[b], e)
			}
			return fn(blocks)
		}
		// Restricted-growth strings enumerate set partitions without
		// duplicates: element i may join blocks 0..used (used+1 means new).
		maxB := used
		if used < parts {
			maxB = used + 1
		}
		for b := 0; b < maxB; b++ {
			assign[i] = b
			nu := used
			if b == used {
				nu = used + 1
			}
			// Prune: remaining elements must be able to open the blocks
			// still missing.
			if parts-nu <= n-i-1 {
				if !rec(i+1, nu) {
					return false
				}
			}
		}
		return true
	}
	rec(0, 0)
}
