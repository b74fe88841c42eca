package minimax

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"testing"

	"relaxedbvc/internal/relax"
	"relaxedbvc/internal/vec"
)

// randInstance draws |S| = n points in R^d: the benchmark's cube for an
// even seed, a Gaussian cloud for an odd one.
func randInstance(seed int64, n, d int) *vec.Set {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]vec.V, n)
	for i := range pts {
		p := vec.New(d)
		for j := range p {
			if seed%2 == 0 {
				p[j] = rng.Float64()*10 - 5
			} else {
				p[j] = rng.NormFloat64() * 2
			}
		}
		pts[i] = p
	}
	return vec.NewSet(pts...)
}

// checkCertificate asserts what every Result of the cutting-plane loop
// must satisfy whatever the input.
func checkCertificate(t *testing.T, name string, s *vec.Set, f int, res Result) {
	t.Helper()
	fam := relax.DroppedSubsets(s, f)
	if res.Lower < 0 || res.Lower > res.Delta {
		t.Fatalf("%s: bracket [%v, %v] is not ordered", name, res.Lower, res.Delta)
	}
	if got := MaxDist2(res.Point, fam); math.Float64bits(got) != math.Float64bits(res.Delta) {
		t.Fatalf("%s: Delta = %v but MaxDist2(Point) = %v", name, res.Delta, got)
	}
	for j := range res.Point {
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := 0; i < s.Len(); i++ {
			lo, hi = math.Min(lo, s.At(i)[j]), math.Max(hi, s.At(i)[j])
		}
		if res.Point[j] < lo || res.Point[j] > hi {
			t.Fatalf("%s: Point[%d] = %v outside the inputs' range [%v, %v]", name, j, res.Point[j], lo, hi)
		}
	}
}

// The solver this loop replaced (5 subgradient descents of 600 steps and
// two Nelder-Mead polishes) is gone from the tree; testdata holds its
// Delta on 220 seeded instances of the benchmark's shapes, written by the
// last commit that had it. The old value is F at some point, so it bounds
// delta* from above: the new bracket must not sit above it.
func TestAgainstFrozenOldSolver(t *testing.T) {
	raw, err := os.ReadFile("testdata/old_solver_delta.json")
	if err != nil {
		t.Fatal(err)
	}
	var table []struct {
		F      int         `json:"f"`
		Points [][]float64 `json:"points"`
		Delta  float64     `json:"delta"`
	}
	if err := json.Unmarshal(raw, &table); err != nil {
		t.Fatal(err)
	}
	if len(table) < 200 {
		t.Fatalf("frozen table has %d instances, want >= 200", len(table))
	}
	better := 0
	for k, e := range table {
		pts := make([]vec.V, len(e.Points))
		for i, p := range e.Points {
			pts[i] = vec.V(p)
		}
		s := vec.NewSet(pts...)
		res := MinMaxDist2(relax.DroppedSubsets(s, e.F))
		scale := s.MaxEdge(2)
		if !res.Converged {
			t.Fatalf("instance %d: not converged, bracket [%v, %v]", k, res.Lower, res.Delta)
		}
		if res.Delta > e.Delta+1e-8*scale {
			t.Fatalf("instance %d: Delta = %v above the old solver's %v", k, res.Delta, e.Delta)
		}
		if res.Lower > e.Delta {
			t.Fatalf("instance %d: Lower = %v above a value the old solver attained, %v", k, res.Lower, e.Delta)
		}
		if res.Delta < e.Delta-1e-8*scale {
			better++
		}
	}
	t.Logf("new Delta below the old one by more than 1e-8*scale on %d of %d instances", better, len(table))
}

// Properties of the certificate on 10^4 seeded instances of the shapes
// the protocols and the benchmark produce.
func TestBundleProperties(t *testing.T) {
	shapes := []struct{ n, d, f, count int }{
		{5, 3, 2, 2500}, {6, 3, 2, 2500}, {7, 3, 2, 2500},
		{4, 2, 1, 1500}, {7, 5, 2, 800}, {10, 3, 3, 200},
	}
	for si, sh := range shapes {
		count := sh.count
		if testing.Short() {
			count /= 10
		}
		for k := 0; k < count; k++ {
			s := randInstance(int64(1_000_000*(si+1)+k), sh.n, sh.d)
			res := MinMaxDist2(relax.DroppedSubsets(s, sh.f))
			name := s.String()
			checkCertificate(t, name, s, sh.f, res)
			if !res.Converged {
				t.Fatalf("%s f=%d: not converged, bracket [%v, %v]", name, sh.f, res.Lower, res.Delta)
			}
			if gap := res.Delta - res.Lower; gap > gapTol*s.MaxEdge(2) {
				t.Fatalf("%s f=%d: gap %v above the tolerance", name, sh.f, gap)
			}
		}
	}
}

// Degenerate inputs must terminate under the iteration cap with an
// ordered bracket, whether or not the gap closes.
func TestBundleDegenerateInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	line := func(n int) []vec.V { // collinear in R^3
		pts := make([]vec.V, n)
		for i := range pts {
			a := rng.NormFloat64()
			pts[i] = vec.Of(1+2*a, -1+a, 3*a)
		}
		return pts
	}
	plane := func(n int) []vec.V { // coplanar in R^3, z = x + y
		pts := make([]vec.V, n)
		for i := range pts {
			x, y := rng.NormFloat64(), rng.NormFloat64()
			pts[i] = vec.Of(x, y, x+y)
		}
		return pts
	}
	dup := plane(4)
	far := make([]vec.V, 7) // offset 1e3, spread 1e-3
	for i := range far {
		far[i] = vec.Of(1e3+1e-3*rng.Float64(), -1e3+1e-3*rng.Float64(), 1e3+1e-3*rng.Float64())
	}
	cases := []struct {
		name string
		pts  []vec.V
		f    int
	}{
		{"coplanar", plane(7), 2},
		{"collinear", line(6), 2},
		{"duplicated", append(append([]vec.V{}, dup...), dup[0], dup[0], dup[1]), 2},
		{"all identical", []vec.V{vec.Of(1, 2, 3), vec.Of(1, 2, 3), vec.Of(1, 2, 3), vec.Of(1, 2, 3), vec.Of(1, 2, 3)}, 2},
		{"offset 1e3 spread 1e-3", far, 2},
		{"singletons", plane(3), 2},
	}
	for _, c := range cases {
		s := vec.NewSet(c.pts...)
		before := bundleIterations.Sum()
		res := MinMaxDist2(relax.DroppedSubsets(s, c.f))
		checkCertificate(t, c.name, s, c.f, res)
		if iters := bundleIterations.Sum() - before; iters > maxBundleIters {
			t.Errorf("%s: %v iterations, cap is %d", c.name, iters, maxBundleIters)
		}
		t.Logf("%s: bracket [%v, %v], converged %v", c.name, res.Lower, res.Delta, res.Converged)
	}
}

// The loop is sequential: the same bits on every cold call.
func TestBundleDeterministic(t *testing.T) {
	for k := 0; k < 40; k++ {
		s := randInstance(int64(500+k), 7, 3)
		Cache.Reset() // every call below is a miss, i.e. a fresh solve
		want := DeltaStar2Iterative(s, 2)
		Cache.Reset()
		got := DeltaStar2Iterative(s, 2)
		same := math.Float64bits(got.Delta) == math.Float64bits(want.Delta) &&
			math.Float64bits(got.Lower) == math.Float64bits(want.Lower) &&
			got.Converged == want.Converged && got.Point.Equal(want.Point)
		if !same {
			t.Fatalf("instance %d: %+v, first call gave %+v", k, got, want)
		}
	}
}

// A seed that is already optimal within the gap is returned bit for
// bit; a poor one is improved on.
func TestMinMaxDist2Seed(t *testing.T) {
	s := randInstance(9, 7, 3)
	fam := relax.DroppedSubsets(s, 2)
	first := MinMaxDist2(fam)
	again := MinMaxDist2(fam, first.Point)
	if !again.Point.Equal(first.Point) || again.Delta != first.Delta || !again.Converged {
		t.Fatalf("optimal seed moved: %+v -> %+v", first, again)
	}
	poor := MinMaxDist2(fam, s.At(0))
	if !poor.Converged || poor.Delta > first.Delta+gapTol*s.MaxEdge(2) {
		t.Fatalf("from a vertex: %+v, from the centre: %+v", poor, first)
	}
}

// Every solve records its iteration count, and one that ends with the
// bracket open is counted. Wolfe's absolute 1e-9 stopping slack on
// squared distances cannot resolve distances of 1e-5, so inputs of
// spread 1e-3 far from the origin leave the bracket open.
func TestBundleMetrics(t *testing.T) {
	solves, open := bundleIterations.Count(), bundleNotConverged.Value()
	if res := MinMaxDist2(relax.DroppedSubsets(randInstance(11, 7, 3), 2)); !res.Converged {
		t.Fatalf("unit-scale instance did not converge: %+v", res)
	}
	if bundleIterations.Count() != solves+1 || bundleNotConverged.Value() != open {
		t.Fatal("a converged solve must add one iteration sample and no failure")
	}
	rng := rand.New(rand.NewSource(77))
	tiny := make([]vec.V, 7)
	for i := range tiny {
		tiny[i] = vec.Of(1e3+1e-3*rng.Float64(), -1e3+1e-3*rng.Float64(), 1e3+1e-3*rng.Float64())
	}
	res := MinMaxDist2(relax.DroppedSubsets(vec.NewSet(tiny...), 2))
	if res.Converged {
		t.Skip("Wolfe resolved the 1e-5 distances: no open bracket to count")
	}
	if bundleNotConverged.Value() != open+1 {
		t.Fatal("minimax_bundle_not_converged_total did not count the open bracket")
	}
}

// raceEnabled is set under the race detector, whose sync.Pool drops a
// share of Puts at random: pooled scratch then allocates by design.
var raceEnabled bool

// deltaStar2Allocs is the measured mean allocation count of a cold delta*_2
// solve at the acs_kernel shape (|S| = 6, f = 2, d = 3; 5.8 probes): the
// returned nearest point and the cut of each evaluated set, and each
// probe's iterate. Wolfe's KKT matrices, LUs and solutions took 3 126,
// a master LP rebuilt and solved cold at every probe 62, and a second
// vector per cut, scaled out of place, 38.
const deltaStar2Allocs = 232

func TestDeltaStar2AllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops scratch at random")
	}
	fams := make([][]*vec.Set, 50)
	for k := range fams {
		fams[k] = relax.DroppedSubsets(randInstance(int64(900+k), 6, 3), 2)
	}
	k := 0
	got := testing.AllocsPerRun(200, func() {
		MinMaxDist2(fams[k%len(fams)])
		k++
	})
	t.Logf("%.0f allocations per solve (pinned %d)", got, deltaStar2Allocs)
	if got > 1.5*deltaStar2Allocs {
		t.Fatalf("%.0f allocations per solve, ceiling %.0f", got, 1.5*deltaStar2Allocs)
	}
}

// BenchmarkDeltaStar2 is one cold delta*_2 solve at the acs_kernel shape
// (|S| = 6, f = 2, d = 3) over 50 seeded inputs (make bench-kernel).
func BenchmarkDeltaStar2(b *testing.B) {
	sets := make([]*vec.Set, 50)
	for k := range sets {
		sets[k] = randInstance(int64(900+k), 6, 3)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Cache.Reset()
		DeltaStar2(sets[i%len(sets)], 2)
	}
}
