package consensus

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"relaxedbvc/internal/geom"
	"relaxedbvc/internal/lp"
	"relaxedbvc/internal/relax"
	"relaxedbvc/internal/vec"
)

// jointFan is supportFan as it was before lazy block generation: one LP
// over every dropped-subset hull, one phase 1 and one phase 2 per
// direction, each vertex validated with relax.InEveryHull and replaced
// by the Gamma(S) anchor when it fails. anchored[i] reports the
// substitution; ok=false is supportFan's ErrEmptyIntersection.
func jointFan(cfg *SyncConfig, s *vec.Set, fan []vec.V) (verts []vec.V, anchored []bool, ok bool) {
	fam := relax.DroppedSubsets(s, cfg.F)
	d, nv := s.Dim(), s.Dim()
	for _, t := range fam {
		nv += t.Len()
	}
	prob := lp.NewProblem(nv)
	for j := 0; j < d; j++ {
		prob.SetFree(j)
	}
	off := d
	for _, t := range fam {
		row := make([]float64, nv)
		for k := 0; k < t.Len(); k++ {
			row[off+k] = 1
		}
		prob.AddConstraint(row, lp.EQ, 1)
		for j := 0; j < d; j++ {
			row := make([]float64, nv)
			for k := 0; k < t.Len(); k++ {
				row[off+k] = t.At(k)[j]
			}
			row[j] = -1
			prob.AddConstraint(row, lp.EQ, 0)
		}
		off += t.Len()
	}
	basis := prob.Prepare()
	defer basis.Release()
	obj := make([]float64, nv)
	var anchor vec.V
	for _, dir := range fan {
		copy(obj, dir)
		var pt vec.V
		if res := basis.Solve(obj, lp.Maximize); res.Status == lp.Optimal {
			pt = vec.V(res.X[:d]).Clone()
		}
		sub := pt == nil || !relax.InEveryHull(fam, pt)
		if sub {
			if anchor == nil {
				a, ok := gammaAnchor(s, cfg.F, fam)
				if !ok {
					return nil, nil, false
				}
				anchor = a
			}
			pt = anchor
		}
		verts = append(verts, pt)
		anchored = append(anchored, sub)
	}
	return verts, anchored, true
}

// TestSupportFanRefereeJointLP holds the convex Step-2 choice to the
// joint-LP fan it replaced, on the batch workload's convex shapes (n = 8
// and 9, f = 2, d = 2), convex consensus at its bound (n = 7) and at the
// Tverberg floor (n=5 f=1 d=3, and n=6 f=1 d=4 at coordinate scale 1e3),
// where Gamma(S) is a single point and directions take the anchor
// fallback:
//   - the same ErrEmptyIntersection verdict, except where only the joint
//     LP fails at n >= (d+1)f+1 (Tverberg's theorem sides with the loop);
//   - every vertex, anchors included, is certified by relax.InEveryHull;
//   - wherever neither side anchored, each support value u.x is within
//     1e-9*scale of the joint fan's, except where the joint LP is wrong:
//     the value is higher (the joint LP stopped short of its optimum),
//     or the joint vertex lies outside a hull by more than 1e-9*scale.
func TestSupportFanRefereeJointLP(t *testing.T) {
	anchoredTotal, certified, jointWrong, jointFailed := 0, 0, 0, 0
	for _, c := range []struct {
		n, f, d, directions int
		scale               float64
	}{{8, 2, 2, 4, 3}, {9, 2, 2, 16, 3}, {7, 2, 2, 8, 3}, {5, 1, 3, 10, 3}, {6, 1, 4, 12, 1000}} {
		fan := directionFan(c.d, c.directions)
		cfg := &SyncConfig{N: c.n, F: c.f, D: c.d}
		for seed := int64(0); seed < 200; seed++ {
			where := fmt.Sprintf("n=%d f=%d d=%d seed=%d", c.n, c.f, c.d, seed)
			s := vec.NewSet(randInputs(rand.New(rand.NewSource(seed)), c.n, c.d, c.scale)...)
			fam := relax.DroppedSubsets(s, c.f)
			got, err := supportFan(cfg, s, fan)
			want, anchored, ok := jointFan(cfg, s, fan)
			if err != nil {
				if ok || !errors.Is(err, ErrEmptyIntersection) {
					t.Fatalf("%s: %v; the joint fan finds Gamma(S) non-empty=%v", where, err, ok)
				}
				continue
			}
			for i, x := range got {
				if !relax.InEveryHull(fam, x) {
					t.Fatalf("%s vertex %d: %v is not certified", where, i, x)
				}
			}
			if !ok {
				jointFailed++
				continue
			}
			anchor, _ := gammaAnchor(s, c.f, fam)
			for i, u := range fan {
				if anchored[i] || sameBitsVec(got[i], anchor) {
					anchoredTotal++
					continue
				}
				certified++
				tol := 1e-9 * c.scale
				switch gap := u.Dot(got[i]) - u.Dot(want[i]); {
				case gap > tol || gap < -tol && outsideBy(fam, want[i], tol):
					jointWrong++
				case gap < -tol:
					t.Fatalf("%s direction %d: support value %v, joint fan %v", where, i, u.Dot(got[i]), u.Dot(want[i]))
				}
			}
		}
	}
	if anchoredTotal == 0 || certified == 0 {
		t.Fatalf("%d anchored and %d certified vertices compared; want both", anchoredTotal, certified)
	}
	t.Logf("%d certified support points (%d where the joint LP is wrong), %d anchored directions, %d instances only the joint fan found empty", certified, jointWrong, anchoredTotal, jointFailed)
}

// outsideBy reports whether some hull of fam is further than tol from x.
func outsideBy(fam []*vec.Set, x vec.V, tol float64) bool {
	for _, s := range fam {
		if dist, _ := geom.Dist2(x, s); dist > tol {
			return true
		}
	}
	return false
}

// sameBitsVec reports whether a and b are the same non-nil vector, bit
// for bit.
func sameBitsVec(a, b vec.V) bool {
	if a == nil || b == nil || len(a) != len(b) {
		return false
	}
	for j := range a {
		if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
			return false
		}
	}
	return true
}
