package geom

import (
	"math"
	"math/rand"
	"testing"

	"relaxedbvc/internal/vec"
)

// The vec.V formulation of Wolfe's method that the scratch-buffer
// minNorm replaced, kept verbatim as the referee, together with the
// allocating LU it solved its corral systems with.

func refMinNormPoint(pts []vec.V) (vec.V, []float64) {
	n := len(pts)
	scale := 1.0
	for _, p := range pts {
		if v := p.Norm2(); v > scale {
			scale = v
		}
	}
	tol := 1e-12 * scale * scale

	best := 0
	for i := 1; i < n; i++ {
		if pts[i].Norm2() < pts[best].Norm2() {
			best = i
		}
	}
	corral := []int{best}
	lam := []float64{1}
	x := pts[best].Clone()

	inCorral := func(j int) bool {
		for _, c := range corral {
			if c == j {
				return true
			}
		}
		return false
	}

	for major := 0; major < 200+20*n; major++ {
		j, jv := -1, math.Inf(1)
		for i := 0; i < n; i++ {
			if v := x.Dot(pts[i]); v < jv {
				j, jv = i, v
			}
		}
		xx := x.Dot(x)
		if jv > xx-1e-9*scale*scale-tol {
			break
		}
		if inCorral(j) {
			break
		}
		corral = append(corral, j)
		lam = append(lam, 0)

		for minor := 0; minor <= n+2; minor++ {
			alpha, ok := refAffineMinNorm(pts, corral)
			if !ok {
				corral = corral[:len(corral)-1]
				lam = lam[:len(lam)-1]
				break
			}
			posEps := 1e-11
			allPos := true
			for _, a := range alpha {
				if a <= posEps {
					allPos = false
					break
				}
			}
			if allPos {
				lam = alpha
				break
			}
			theta := 1.0
			for i := range alpha {
				if alpha[i] < posEps && lam[i] > alpha[i] {
					if t := lam[i] / (lam[i] - alpha[i]); t < theta {
						theta = t
					}
				}
			}
			newLam := make([]float64, len(lam))
			for i := range lam {
				newLam[i] = (1-theta)*lam[i] + theta*alpha[i]
			}
			var nc []int
			var nl []float64
			for i := range newLam {
				if newLam[i] > posEps {
					nc = append(nc, corral[i])
					nl = append(nl, newLam[i])
				}
			}
			if len(nc) == 0 {
				nc = []int{corral[0]}
				nl = []float64{1}
			}
			corral, lam = nc, nl
		}
		x = vec.New(pts[0].Dim())
		for i, c := range corral {
			x.AXPY(lam[i], pts[c])
		}
	}

	weights := make([]float64, n)
	sum := 0.0
	for _, l := range lam {
		sum += l
	}
	for i, c := range corral {
		weights[c] = lam[i] / sum
	}
	return x, weights
}

func refAffineMinNorm(pts []vec.V, corral []int) ([]float64, bool) {
	k := len(corral)
	kk := k + 1
	m := make([][]float64, kk)
	for i := range m {
		m[i] = make([]float64, kk)
	}
	for i := 0; i < k; i++ {
		for j := i; j < k; j++ {
			g := pts[corral[i]].Dot(pts[corral[j]])
			m[i][j] = g
			m[j][i] = g
		}
		m[i][k] = 1
		m[k][i] = 1
	}
	rhs := make([]float64, kk)
	rhs[k] = 1
	sol, ok := refSolve(m, rhs)
	if !ok {
		scale := 1.0
		for i := 0; i < k; i++ {
			if g := m[i][i]; g > scale {
				scale = g
			}
		}
		for i := 0; i < k; i++ {
			m[i][i] = m[i][i] + 1e-10*scale
		}
		sol, ok = refSolve(m, rhs)
		if !ok {
			return nil, false
		}
	}
	return sol[:k], true
}

// refSolve is the allocating Factor + Solve: LU with partial pivoting on
// a copy of a, the 1e-13 relative singular test, then substitution.
func refSolve(a [][]float64, b []float64) ([]float64, bool) {
	n := len(a)
	lu := make([][]float64, n)
	for i := range lu {
		lu[i] = append([]float64(nil), a[i]...)
	}
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	for k := 0; k < n; k++ {
		p, best := k, math.Abs(lu[k][k])
		for i := k + 1; i < n; i++ {
			if a := math.Abs(lu[i][k]); a > best {
				p, best = i, a
			}
		}
		if p != k {
			lu[k], lu[p] = lu[p], lu[k]
			piv[k], piv[p] = piv[p], piv[k]
		}
		pivot := lu[k][k]
		if pivot == 0 {
			continue
		}
		for i := k + 1; i < n; i++ {
			m := lu[i][k] / pivot
			lu[i][k] = m
			if m == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				lu[i][j] = lu[i][j] - m*lu[k][j]
			}
		}
	}
	maxD := 0.0
	for i := 0; i < n; i++ {
		if a := math.Abs(lu[i][i]); a > maxD {
			maxD = a
		}
	}
	if maxD == 0 {
		return nil, false
	}
	for i := 0; i < n; i++ {
		if math.Abs(lu[i][i]) <= 1e-13*maxD {
			return nil, false
		}
	}
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = b[piv[i]]
	}
	for i := 1; i < n; i++ {
		s := x[i]
		for j := 0; j < i; j++ {
			s -= lu[i][j] * x[j]
		}
		x[i] = s
	}
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= lu[i][j] * x[j]
		}
		x[i] = s / lu[i][i]
	}
	return x, true
}

// wolfeInstance draws instance k: n in 1..40 points in R^d, d in 1..6,
// at scale 1e-3, 1 or 1e3, as a Gaussian cloud, a cloud with repeated
// points, an affinely dependent set (the image of a lower-dimensional
// cloud) or a cloud far from the origin; plus a query point, which is a
// convex combination of the points every fourth instance.
func wolfeInstance(k int) (*vec.Set, vec.V) {
	rng := rand.New(rand.NewSource(int64(k)))
	n, d := 1+rng.Intn(40), 1+rng.Intn(6)
	scale := []float64{1e-3, 1, 1e3}[k%3]
	gauss := func(dim int) vec.V {
		v := vec.New(dim)
		for j := range v {
			v[j] = rng.NormFloat64() * scale
		}
		return v
	}
	pts := make([]vec.V, n)
	switch kind := (k / 3) % 4; kind {
	case 0, 1, 3:
		offset := vec.New(d)
		if kind == 3 {
			offset = gauss(d).Scale(50)
		}
		for i := range pts {
			if kind == 1 && i > 0 && rng.Intn(3) == 0 {
				pts[i] = pts[rng.Intn(i)].Clone()
				continue
			}
			pts[i] = gauss(d).Add(offset)
		}
	case 2:
		m := rng.Intn(d) // the points span an m-dimensional affine subspace
		basis := make([]vec.V, m)
		for i := range basis {
			basis[i] = gauss(d).Scale(1 / scale)
		}
		origin := gauss(d)
		for i := range pts {
			p := origin.Clone()
			for _, b := range basis {
				p.AXPY(rng.NormFloat64()*scale, b)
			}
			pts[i] = p
		}
	}
	q := gauss(d)
	if k%4 == 0 {
		q = vec.New(d)
		w := make([]float64, n)
		sum := 0.0
		for i := range w {
			w[i] = rng.Float64()
			sum += w[i]
		}
		for i, p := range pts {
			q.AXPY(w[i]/sum, p)
		}
	}
	return vec.NewSet(pts...), q
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestWolfeMatchesReference holds the scratch-buffer Wolfe to the bits
// of the formulation it replaced: MinNormPoint's point and weights, and
// Dist2's distance and nearest point, on 10^5 seeded sets (10^4 with
// -short).
func TestWolfeMatchesReference(t *testing.T) {
	count := 100_000
	if testing.Short() {
		count /= 10
	}
	for k := 0; k < count; k++ {
		s, q := wolfeInstance(k)
		pts := make([]vec.V, s.Len())
		for i := range pts {
			pts[i] = s.At(i).Sub(q)
		}
		rx, rw := refMinNormPoint(pts)
		if x, w := MinNormPoint(pts); !sameBits(x, rx) || !sameBits(w, rw) {
			t.Fatalf("instance %d: MinNormPoint (%v, %v), reference (%v, %v)", k, x, w, rx, rw)
		}
		d, near := Dist2Uncached(q, s)
		if rd, rnear := rx.Norm2(), rx.Add(q); math.Float64bits(d) != math.Float64bits(rd) || !sameBits(near, rnear) {
			t.Fatalf("instance %d: Dist2 (%v, %v), reference (%v, %v)", k, d, near, rd, rnear)
		}
	}
}

// Wolfe's corrals are rarely affinely dependent, so the ridge retry is
// held to the reference directly: KKT solves over random corrals of up
// to d+2 points (every one past d+1 dependent) of the referee's sets.
func TestAffineMinMatchesReference(t *testing.T) {
	ridged := 0
	for k := 0; k < 20_000; k++ {
		s, _ := wolfeInstance(k)
		rng := rand.New(rand.NewSource(int64(k)))
		corral := rng.Perm(s.Len())[:1+rng.Intn(min(s.Len(), s.Dim()+2))]
		sc := GetFilterScratch()
		sc.pts = growF(sc.pts, s.Len()*s.Dim())
		for i, p := range s.Points() {
			copy(sc.pts[i*s.Dim():], p)
		}
		sc.corral = append(sc.corral[:0], corral...)
		ok := sc.affineMin(s.Dim())
		want, wantOK := refAffineMinNorm(s.Points(), corral)
		if ok != wantOK || ok && !sameBits(sc.alpha, want) {
			t.Fatalf("instance %d corral %v: (%v, %v), reference (%v, %v)", k, corral, sc.alpha, ok, want, wantOK)
		}
		if ok && len(corral) > s.Dim()+1 {
			ridged++
		}
		sc.Release()
	}
	t.Logf("%d solvable dependent corrals", ridged)
}

// raceEnabled is set under the race detector, whose sync.Pool drops a
// share of Puts at random: pooled scratch then allocates by design.
var raceEnabled bool

// Dist2Uncached runs Wolfe in pooled scratch and allocates only the
// nearest point it returns: one allocation per call, here at the
// acs_kernel shape (4-point hulls in R^3) and on a 40-point set in R^6.
func TestDist2UncachedAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops scratch at random")
	}
	rng := rand.New(rand.NewSource(31))
	for _, shape := range []struct{ n, d int }{{4, 3}, {40, 6}} {
		s, q := randSet(rng, shape.n, shape.d), randVec(rng, shape.d, 3)
		if got := testing.AllocsPerRun(200, func() { Dist2Uncached(q, s) }); got > 1 {
			t.Fatalf("%.0f allocations per Dist2Uncached over %d points in R^%d, want 1", got, shape.n, shape.d)
		}
	}
}

// BenchmarkDist2Uncached is one Wolfe distance at the acs_kernel shape:
// a point to the hull of 4 points in R^3 (make bench-kernel).
func BenchmarkDist2Uncached(b *testing.B) {
	rng := rand.New(rand.NewSource(31))
	s, q := randSet(rng, 4, 3), randVec(rng, 3, 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Dist2Uncached(q, s)
	}
}
