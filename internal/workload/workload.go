// Package workload generates the input configurations the experiments
// run on: random distributions (cube, Gaussian, sphere, clustered), the
// moment-curve and simplex configurations that witness Tverberg
// tightness, and — most importantly — the exact adversarial input
// matrices from the paper's impossibility proofs (Theorems 3, 4, 5, 6).
package workload

import (
	"math/rand"

	"relaxedbvc/internal/vec"
)

// UniformCube returns n points uniform in [-scale, scale]^d.
func UniformCube(rng *rand.Rand, n, d int, scale float64) []vec.V {
	pts := make([]vec.V, n)
	for i := range pts {
		pts[i] = vec.New(d)
		for j := range pts[i] {
			pts[i][j] = (2*rng.Float64() - 1) * scale
		}
	}
	return pts
}

// Gaussian returns n points from N(0, scale^2 I_d).
func Gaussian(rng *rand.Rand, n, d int, scale float64) []vec.V {
	pts := make([]vec.V, n)
	for i := range pts {
		pts[i] = vec.New(d)
		for j := range pts[i] {
			pts[i][j] = rng.NormFloat64() * scale
		}
	}
	return pts
}

// Sphere returns n points uniform on the sphere of the given radius.
func Sphere(rng *rand.Rand, n, d int, radius float64) []vec.V {
	pts := make([]vec.V, n)
	for i := range pts {
		v := vec.New(d)
		for {
			for j := range v {
				v[j] = rng.NormFloat64()
			}
			if nrm := v.Norm2(); nrm > 1e-12 {
				pts[i] = v.Scale(radius / nrm)
				break
			}
		}
	}
	return pts
}

// Clustered returns n points in a tight cluster of the given spread
// around a random center, with `outliers` of them moved far away — the
// sensor-fusion-style workload of the paper's motivation (mostly
// agreeing sensors plus a few wild readings).
func Clustered(rng *rand.Rand, n, d, outliers int, spread, far float64) []vec.V {
	center := vec.New(d)
	for j := range center {
		center[j] = rng.NormFloat64() * far / 4
	}
	pts := make([]vec.V, n)
	for i := range pts {
		p := center.Clone()
		for j := range p {
			p[j] += rng.NormFloat64() * spread
		}
		pts[i] = p
	}
	for k := 0; k < outliers && k < n; k++ {
		i := n - 1 - k
		for j := range pts[i] {
			pts[i][j] = center[j] + rng.NormFloat64()*far
		}
	}
	return pts
}

// StandardSimplex returns the d+1 vertices 0, e_1, ..., e_d in R^d.
func StandardSimplex(d int) []vec.V {
	pts := make([]vec.V, d+1)
	pts[0] = vec.New(d)
	for i := 1; i <= d; i++ {
		e := vec.New(d)
		e[i-1] = 1
		pts[i] = e
	}
	return pts
}

// AffinelyDependent returns n points (n <= d+1) confined to a random
// proper subspace of dimension subDim < n-1, the Theorem 8 configuration
// where delta* = 0.
func AffinelyDependent(rng *rand.Rand, n, d, subDim int, scale float64) []vec.V {
	basis := Gaussian(rng, subDim, d, 1)
	origin := Gaussian(rng, 1, d, scale)[0]
	pts := make([]vec.V, n)
	for i := range pts {
		p := origin.Clone()
		for _, b := range basis {
			p.AXPY(rng.NormFloat64()*scale, b)
		}
		pts[i] = p
	}
	return pts
}

// Theorem3Matrix returns the d x (d+1) adversarial input family from the
// proof of Theorem 3 (k-relaxed exact BVC, synchronous): column i
// (1 <= i <= d) has zeros above the diagonal, gamma on it, eps below;
// column d+1 is all -gamma. Requires 0 < eps <= gamma. With n = d+1 and
// f = 1 these inputs make Psi_2(Y) empty.
func Theorem3Matrix(d int, gamma, eps float64) []vec.V {
	if !(0 < eps && eps <= gamma) {
		panic("workload: Theorem3Matrix requires 0 < eps <= gamma")
	}
	cols := make([]vec.V, d+1)
	for i := 0; i < d; i++ {
		c := vec.New(d)
		for r := 0; r < d; r++ {
			switch {
			case r < i:
				c[r] = 0
			case r == i:
				c[r] = gamma
			default:
				c[r] = eps
			}
		}
		cols[i] = c
	}
	last := vec.New(d)
	for r := range last {
		last[r] = -gamma
	}
	cols[d] = last
	return cols
}

// Theorem4Matrix returns the d x (d+2) input family from the proof of
// Theorem 4 (Appendix B; k-relaxed approximate BVC, asynchronous):
// columns 1..d as in Theorem 3 but with 2*eps below the diagonal, column
// d+1 all -gamma, column d+2 all zero. Requires 0 < 2*eps < gamma.
func Theorem4Matrix(d int, gamma, eps float64) []vec.V {
	if !(0 < 2*eps && 2*eps < gamma) {
		panic("workload: Theorem4Matrix requires 0 < 2*eps < gamma")
	}
	cols := make([]vec.V, d+2)
	for i := 0; i < d; i++ {
		c := vec.New(d)
		for r := 0; r < d; r++ {
			switch {
			case r < i:
				c[r] = 0
			case r == i:
				c[r] = gamma
			default:
				c[r] = 2 * eps
			}
		}
		cols[i] = c
	}
	minus := vec.New(d)
	for r := range minus {
		minus[r] = -gamma
	}
	cols[d] = minus
	cols[d+1] = vec.New(d)
	return cols
}

// Theorem5Matrix returns the d x (d+1) input family from the proof of
// Theorem 5 ((delta,p)-relaxed exact BVC with constant delta): the i-th
// input is x * e_i for 1 <= i <= d, and the (d+1)-th input is the zero
// vector. The proof requires x > 2*d*delta.
func Theorem5Matrix(d int, x float64) []vec.V {
	cols := make([]vec.V, d+1)
	for i := 0; i < d; i++ {
		c := vec.New(d)
		c[i] = x
		cols[i] = c
	}
	cols[d] = vec.New(d)
	return cols
}

// Theorem6Matrix returns the d x (d+2) input family from the proof of
// Theorem 6 (Appendix C; asynchronous constant-delta case): x * e_i for
// 1 <= i <= d plus two all-zero inputs. The proof requires
// x > 2*d*delta + eps.
func Theorem6Matrix(d int, x float64) []vec.V {
	cols := Theorem5Matrix(d, x)
	return append(cols, vec.New(len(cols[0])))
}

// RingScenarioInputs returns the Figure 1 / Lemma 10 inputs: the 0-vector
// and 1-vector in dimension d, used by the three-scenario impossibility
// simulation for n <= 3f.
func RingScenarioInputs(d int) (zero, one vec.V) {
	zero = vec.New(d)
	one = vec.New(d)
	for i := range one {
		one[i] = 1
	}
	return zero, one
}

// Name-indexed random generators, used by the benchmark harness to sweep
// workload families.
type Generator func(rng *rand.Rand, n, d int) []vec.V

// Generators returns the named random input families at unit scale.
func Generators() map[string]Generator {
	return map[string]Generator{
		"cube": func(rng *rand.Rand, n, d int) []vec.V {
			return UniformCube(rng, n, d, 1)
		},
		"gauss": func(rng *rand.Rand, n, d int) []vec.V {
			return Gaussian(rng, n, d, 1)
		},
		"sphere": func(rng *rand.Rand, n, d int) []vec.V {
			return Sphere(rng, n, d, 1)
		},
		"cluster": func(rng *rand.Rand, n, d int) []vec.V {
			return Clustered(rng, n, d, 1, 0.05, 1)
		},
	}
}
