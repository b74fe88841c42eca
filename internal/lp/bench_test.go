package lp

import (
	"math/rand"
	"testing"
)

// gammaScript is the Gamma(S) hull-intersection LP of a planar n=9 f=2
// cloud: C(9,2) = 36 weight simplices of 7 points sharing a free point,
// the LP that dominates the batch_lp workload.
func gammaScript() *lpScript {
	rng := rand.New(rand.NewSource(9))
	pts := make([][]float64, 9)
	for i := range pts {
		pts[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
	}
	s := blockLP(rng, "gamma", pts, droppedFamily(9, 2, 36), 2, allCoords(2))
	s.obj, s.sense = make([]float64, s.n), Maximize
	s.obj[0], s.obj[1] = 1, 0.5
	return s
}

// BenchmarkSolveGamma is one build + one-shot Solve of the n=9 f=2 d=2
// Gamma LP on a reused Problem, as relax's sweep does.
func BenchmarkSolveGamma(b *testing.B) {
	s := gammaScript()
	p := NewProblem(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Reset(s.n)
		s.apply(p)
		if res, _ := p.Solve(); res.Status != Optimal {
			b.Fatal(res.Status)
		}
	}
}

// BenchmarkSolveMaster is one build + Solve of a small dual cutting-plane
// master (d=3, 12 cuts: 4 dense equality rows over 18 columns), the
// one-shot LP of the delta*_2 kernel.
func BenchmarkSolveMaster(b *testing.B) {
	s := masterLP(rand.New(rand.NewSource(3)), 3, 12)
	p := NewProblem(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Reset(s.n)
		s.apply(p)
		if res, _ := p.Solve(); res.Status != Optimal {
			b.Fatal(res.Status)
		}
	}
}

// BenchmarkPreparedExtend grows the n=9 f=2 d=2 Gamma LP's working
// family from 3 to 10 of its 36 weight simplices one block at a time,
// as the lazy hull loop does, solving one objective after each growth:
// warm, by Extend, and cold, by a Prepare of the grown Problem.
func BenchmarkPreparedExtend(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	pts := make([][]float64, 9)
	for i := range pts {
		pts[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
	}
	fam := droppedFamily(9, 2, 36)
	var idx []int
	var val []float64
	addBlock := func(p *Problem, T []int) {
		off := p.AddVars(len(T))
		idx, val = idx[:0], val[:0]
		for t := range T {
			idx, val = append(idx, off+t), append(val, 1)
		}
		p.AddSparseConstraint(idx, val, EQ, 1)
		for j := 0; j < 2; j++ {
			idx, val = idx[:0], val[:0]
			for t, pi := range T {
				idx, val = append(idx, off+t), append(val, pts[pi][j])
			}
			p.AddSparseConstraint(append(idx, j), append(val, -1), EQ, 0)
		}
	}
	for _, warm := range []bool{true, false} {
		name := map[bool]string{true: "warm", false: "cold"}[warm]
		b.Run(name, func(b *testing.B) {
			p := NewProblem(0)
			var pr Prepared
			var res Result
			obj := make([]float64, 0, 128)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.Reset(2)
				p.SetFree(0)
				p.SetFree(1)
				for k := 0; k < 36; k += 12 {
					addBlock(p, fam[k])
				}
				p.PrepareInto(&pr)
				for k := 1; k < 36 && len(p.rel) < 30; k += 5 {
					addBlock(p, fam[k])
					if !warm || !pr.Extend(p) {
						p.PrepareInto(&pr)
					}
					obj = append(obj[:0], make([]float64, p.NumVars())...)
					obj[0], obj[1] = 1, 0.5
					if pr.SolveInto(&res, obj, Maximize); res.Status != Optimal {
						b.Fatal(res.Status)
					}
				}
			}
			pr.Release()
		})
	}
}
