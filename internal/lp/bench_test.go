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
