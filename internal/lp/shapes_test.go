package lp

import (
	"math"
	"math/rand"
)

// lpSink is the builder surface shared by Problem and the reference
// refProblem, so one generated script builds the same LP on both.
type lpSink interface {
	AddConstraint(coef []float64, rel Rel, rhs float64)
	AddSparseConstraint(idx []int, coef []float64, rel Rel, rhs float64)
	SetBounds(i int, lo, up float64)
	SetFree(i int)
	SetObjective(c []float64, sense Sense)
}

// lpScript is a recorded LP: the variable count and the builder calls.
type lpScript struct {
	shape string
	n     int
	ops   []func(lpSink)
	obj   []float64
	sense Sense
}

func (s *lpScript) sparse(idx []int, coef []float64, rel Rel, rhs float64) {
	idx, coef = append([]int(nil), idx...), append([]float64(nil), coef...)
	s.ops = append(s.ops, func(k lpSink) { k.AddSparseConstraint(idx, coef, rel, rhs) })
}

func (s *lpScript) dense(coef []float64, rel Rel, rhs float64) {
	coef = append([]float64(nil), coef...)
	s.ops = append(s.ops, func(k lpSink) { k.AddConstraint(coef, rel, rhs) })
}

func (s *lpScript) bounds(i int, lo, up float64) {
	s.ops = append(s.ops, func(k lpSink) { k.SetBounds(i, lo, up) })
}

func (s *lpScript) free(upto int) {
	s.ops = append(s.ops, func(k lpSink) {
		for j := 0; j < upto; j++ {
			k.SetFree(j)
		}
	})
}

// apply replays the script, objective last.
func (s *lpScript) apply(k lpSink) {
	for _, op := range s.ops {
		op(k)
	}
	k.SetObjective(s.obj, s.sense)
}

func (s *lpScript) problem() *Problem {
	p := NewProblem(s.n)
	s.apply(p)
	return p
}

// cloud draws npts points in dimension d. Every third cloud sits on a
// small integer lattice, which makes repeated points, ties in the ratio
// test and degenerate vertices common.
func cloud(rng *rand.Rand, npts, d int) [][]float64 {
	lattice := rng.Intn(3) == 0
	pts := make([][]float64, npts)
	for i := range pts {
		pts[i] = make([]float64, d)
		for j := range pts[i] {
			if lattice {
				pts[i][j] = float64(rng.Intn(5) - 2)
			} else {
				pts[i][j] = rng.NormFloat64()
			}
		}
	}
	return pts
}

// droppedFamily lists index subsets of 0..npts-1 of size npts-f in
// lexicographic order, at most limit of them.
func droppedFamily(npts, f, limit int) [][]int {
	var fam [][]int
	var rec func(start int, cur []int)
	rec = func(start int, cur []int) {
		if len(fam) >= limit {
			return
		}
		if len(cur) == npts-f {
			fam = append(fam, append([]int(nil), cur...))
			return
		}
		for i := start; i < npts; i++ {
			rec(i+1, append(cur, i))
		}
	}
	rec(0, nil)
	return fam
}

// direction returns a zero objective (a feasibility problem) one time in
// three and otherwise a random direction over the first d variables.
func direction(rng *rand.Rand, n, d int) ([]float64, Sense) {
	obj := make([]float64, n)
	if rng.Intn(3) == 0 {
		return obj, Minimize
	}
	for j := 0; j < d; j++ {
		if rng.Intn(4) > 0 {
			obj[j] = rng.NormFloat64()
		}
	}
	return obj, Sense(rng.Intn(2))
}

// family draws a cloud and a dropped-subset family of 2..36 subsets over
// it (one in four beyond 8 subsets: the reference solver is dense),
// sometimes below the Tverberg floor so that empty intersections occur.
func family(rng *rand.Rand, d int) (pts [][]float64, fam [][]int) {
	f := 1 + rng.Intn(2)
	npts := d + f + 1 + rng.Intn(9-d-f)
	limit := 2 + rng.Intn(7)
	if rng.Intn(4) == 0 {
		limit = 2 + rng.Intn(35)
	}
	return cloud(rng, npts, d), droppedFamily(npts, f, limit)
}

// shapeHull is relax's hull-intersection LP: a free point x and one
// weight simplex per subset, rows written weights first and the shared
// variable last, as the builders do.
func shapeHull(rng *rand.Rand) *lpScript {
	d := 1 + rng.Intn(4)
	pts, fam := family(rng, d)
	return blockLP(rng, "hull", pts, fam, d, allCoords(d))
}

// shapeKProj is the k-relaxed intersection: one block per (subset, D)
// pair over a size-k coordinate subset D.
func shapeKProj(rng *rand.Rand) *lpScript {
	d := 2 + rng.Intn(3)
	pts, fam := family(rng, d)
	if len(fam) > 8 {
		fam = fam[:8]
	}
	k := 1 + rng.Intn(d-1)
	var blocks [][]int
	var Ds [][]int
	for _, T := range fam {
		for _, D := range droppedFamily(d, d-k, 1<<30) {
			blocks, Ds = append(blocks, T), append(Ds, D)
		}
	}
	return blockLP(rng, "kproj", pts, blocks, d, Ds...)
}

func allCoords(d int) []int {
	D := make([]int, d)
	for j := range D {
		D[j] = j
	}
	return D
}

// blockLP writes one weight-simplex block per entry of fam; block i is
// constrained on the coordinates Ds[i] (or Ds[0] when only one is given).
func blockLP(rng *rand.Rand, shape string, pts [][]float64, fam [][]int, d int, Ds ...[]int) *lpScript {
	nv := d
	offs := make([]int, len(fam))
	for i, T := range fam {
		offs[i] = nv
		nv += len(T)
	}
	s := &lpScript{shape: shape, n: nv}
	s.free(d)
	for i, T := range fam {
		D := Ds[0]
		if len(Ds) > 1 {
			D = Ds[i]
		}
		var idx []int
		var val []float64
		for t := range T {
			idx, val = append(idx, offs[i]+t), append(val, 1)
		}
		s.sparse(idx, val, EQ, 1)
		for _, j := range D {
			idx, val = idx[:0], val[:0]
			for t, pi := range T {
				idx, val = append(idx, offs[i]+t), append(val, pts[pi][j])
			}
			idx, val = append(idx, j), append(val, -1)
			s.sparse(idx, val, EQ, 0)
		}
	}
	s.obj, s.sense = direction(rng, nv, d)
	return s
}

// shapeRelaxed is relax's (delta,p)-relaxed intersection for p in
// {1, +Inf}: LE rows throughout (a slack basis), delta either fixed or a
// variable to minimize.
func shapeRelaxed(rng *rand.Rand) *lpScript {
	d := 1 + rng.Intn(3)
	pts, fam := family(rng, d)
	if len(fam) > 15 {
		fam = fam[:15]
	}
	isInf := rng.Intn(2) == 0
	nv, deltaVar := d, -1
	if rng.Intn(2) == 0 {
		deltaVar = nv
		nv++
	}
	dval := math.Abs(rng.NormFloat64()) / 2
	lam, dev := make([]int, len(fam)), make([]int, len(fam))
	for i, T := range fam {
		lam[i] = nv
		nv += len(T)
		if !isInf {
			dev[i] = nv
			nv += d
		}
	}
	s := &lpScript{shape: "relaxed", n: nv}
	s.free(d)
	for i, T := range fam {
		var idx []int
		var val []float64
		for t := range T {
			idx, val = append(idx, lam[i]+t), append(val, 1)
		}
		s.sparse(idx, val, EQ, 1)
		for j := 0; j < d; j++ {
			for _, sign := range []float64{1, -1} {
				idx, val = append(idx[:0], j), append(val[:0], sign)
				for t, pi := range T {
					idx, val = append(idx, lam[i]+t), append(val, sign*-pts[pi][j])
				}
				rhs := 0.0
				switch {
				case !isInf:
					idx, val = append(idx, dev[i]+j), append(val, -1)
				case deltaVar >= 0:
					idx, val = append(idx, deltaVar), append(val, -1)
				default:
					rhs = dval
				}
				s.sparse(idx, val, LE, rhs)
			}
		}
		if !isInf {
			idx, val = idx[:0], val[:0]
			for j := 0; j < d; j++ {
				idx, val = append(idx, dev[i]+j), append(val, 1)
			}
			rhs := dval
			if deltaVar >= 0 {
				idx, val, rhs = append(idx, deltaVar), append(val, -1), 0
			}
			s.sparse(idx, val, LE, rhs)
		}
	}
	if deltaVar >= 0 {
		s.obj, s.sense = make([]float64, nv), Minimize
		s.obj[deltaVar] = 1
	} else {
		s.obj, s.sense = direction(rng, nv, d)
	}
	return s
}

// shapeMaster is minimax's dual cutting-plane master: d+1 dense equality
// rows over many columns, maximized.
func shapeMaster(rng *rand.Rand) *lpScript { return masterLP(rng, 1+rng.Intn(5), 2+rng.Intn(40)) }

// masterLP is the dual master over m cuts in dimension d.
func masterLP(rng *rand.Rand, d, m int) *lpScript {
	nv := m + 2*d
	s := &lpScript{shape: "master", n: nv, obj: make([]float64, nv), sense: Maximize}
	row := make([]float64, nv)
	cuts := cloud(rng, m, d)
	for i := 0; i < m; i++ {
		s.obj[i], row[i] = -rng.NormFloat64(), 1
	}
	s.dense(row, EQ, 1)
	for j := 0; j < d; j++ {
		clear(row)
		for i := range cuts {
			row[i] = cuts[i][j]
		}
		row[m+j], row[m+d+j] = -1, 1
		s.dense(row, EQ, 0)
		w := 0.5 + rng.Float64()
		s.obj[m+j], s.obj[m+d+j] = -w, -w
	}
	return s
}

// shapeDense is a small random LP with every feature of the problem
// form: LE/GE/EQ rows, negative and zero right-hand sides, free,
// shifted, upper-bounded-only and boxed variables, dense rows and
// unsorted sparse rows with repeated indices.
func shapeDense(rng *rand.Rand) *lpScript {
	n, m := 1+rng.Intn(8), 1+rng.Intn(10)
	s := &lpScript{shape: "dense", n: n, obj: make([]float64, n), sense: Sense(rng.Intn(2))}
	small := func() float64 {
		if rng.Intn(2) == 0 {
			return float64(rng.Intn(7) - 3)
		}
		return rng.NormFloat64()
	}
	for i := 0; i < n; i++ {
		switch rng.Intn(6) {
		case 0:
			s.bounds(i, math.Inf(-1), math.Inf(1))
		case 1:
			s.bounds(i, small(), math.Inf(1))
		case 2:
			s.bounds(i, math.Inf(-1), small())
		case 3:
			lo := small()
			s.bounds(i, lo, lo+float64(rng.Intn(4)))
		}
		s.obj[i] = small()
	}
	for r := 0; r < m; r++ {
		rel, rhs := Rel(rng.Intn(3)), small()
		if rng.Intn(2) == 0 {
			row := make([]float64, n)
			for i := range row {
				row[i] = small()
			}
			s.dense(row, rel, rhs)
			continue
		}
		var idx []int
		var val []float64
		for k := rng.Intn(2 * n); k >= 0; k-- {
			idx, val = append(idx, rng.Intn(n)), append(val, small())
		}
		s.sparse(idx, val, rel, rhs)
	}
	return s
}

// shapeCycling is Beale's degenerate LP, scaled and padded with idle
// columns at random: the most-negative rule with lowest-index ties
// cycles on it, so it is solved only once the watchdog has switched to
// Bland's rule.
func shapeCycling(rng *rand.Rand) *lpScript {
	pad := rng.Intn(3)
	n := 4 + pad
	scale := float64(int(1) << rng.Intn(3))
	s := &lpScript{shape: "cycling", n: n, obj: make([]float64, n), sense: Minimize}
	copy(s.obj, []float64{-0.75 * scale, 150 * scale, -0.02 * scale, 6 * scale})
	row := func(c ...float64) []float64 { return append(c, make([]float64, pad)...) }
	s.dense(row(0.25, -60, -0.04, 9), LE, 0)
	s.dense(row(0.5, -90, -0.02, 3), LE, 0)
	s.dense(row(0, 0, 1, 0), LE, 1)
	return s
}

var shapes = []func(*rand.Rand) *lpScript{shapeHull, shapeKProj, shapeRelaxed, shapeMaster, shapeDense}

// genLP draws the i-th problem of a seeded stream: the five production
// shapes in rotation, and a cycling instance now and then.
func genLP(rng *rand.Rand, i int) *lpScript {
	if i%97 == 96 {
		return shapeCycling(rng)
	}
	return shapes[i%len(shapes)](rng)
}
