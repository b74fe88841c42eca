package relaxedbvc_test

// Kernel digest golden: one sha256 per geometry kernel and input scale
// over the Float64bits of every output on a fixed set of seeded shapes.
// testdata/kernel_digest.json was written once from the sequential,
// switch-free kernels' predecessor; any change to a kernel's output bits
// — a screen deciding differently, a scan returning another first hit —
// shows up here as the name of the kernel and the scale that moved.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"os"
	"testing"
	"time"

	"relaxedbvc/internal/geom"
	"relaxedbvc/internal/minimax"
	"relaxedbvc/internal/relax"
	"relaxedbvc/internal/tverberg"
	"relaxedbvc/internal/vec"
)

// digestShapes are the (n, d, f) inputs; shape i is drawn from seed i.
var digestShapes = []struct{ n, d, f int }{
	{5, 2, 1}, {7, 2, 2}, {8, 3, 2}, {9, 3, 2}, {5, 3, 1},
}

var digestScales = []float64{1e-3, 1, 1e3}

// digester accumulates exact output bits.
type digester struct{ h hash.Hash }

func (g digester) int(v int) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(v))
	g.h.Write(buf[:])
}

func (g digester) bit(b bool) {
	if b {
		g.int(1)
	} else {
		g.int(0)
	}
}

func (g digester) float(v float64) { g.int(int(math.Float64bits(v))) }

func (g digester) vec(v vec.V) {
	g.int(len(v))
	for _, x := range v {
		g.float(x)
	}
}

func (g digester) partition(blocks [][]int, pt vec.V, ok bool) {
	g.bit(ok)
	g.int(len(blocks))
	for _, b := range blocks {
		g.int(len(b))
		for _, e := range b {
			g.int(e)
		}
	}
	g.vec(pt)
}

// result digests a delta* result: its bracket, Converged and Point.
func (g digester) result(r minimax.Result) {
	g.float(r.Delta)
	g.float(r.Lower)
	g.bit(r.Converged)
	g.vec(r.Point)
}

// digestSet draws shape i at the given scale.
func digestSet(i int, scale float64) *vec.Set {
	c := digestShapes[i]
	rng := rand.New(rand.NewSource(int64(i)))
	pts := make([]vec.V, c.n)
	for p := range pts {
		v := vec.New(c.d)
		for j := range v {
			v[j] = rng.NormFloat64() * 2 * scale
		}
		pts[p] = v
	}
	return vec.NewSet(pts...)
}

// digestQueries are the membership queries against y: the centroid, a
// vertex, a point just inside a chord, a point far outside and a
// seeded random point.
func digestQueries(i int, y *vec.Set, scale float64) []vec.V {
	center := vec.Mean(y.Points())
	far := center.Clone()
	for j := range far {
		far[j] += 50 * scale
	}
	rng := rand.New(rand.NewSource(int64(100 + i)))
	random := vec.New(y.Dim())
	for j := range random {
		random[j] = rng.NormFloat64() * 2 * scale
	}
	return []vec.V{center, y.At(0), vec.Lerp(center, y.At(1), 0.999), far, random}
}

// kernelDigests computes the digest of every kernel × scale.
func kernelDigests() map[string]string {
	inf := math.Inf(1)
	kernels := []struct {
		name string
		run  func(g digester, i int, y *vec.Set, f int, scale float64)
	}{
		{"Partition", func(g digester, _ int, y *vec.Set, f int, _ float64) {
			g.partition(tverberg.Partition(y, f))
		}},
		{"PartitionK", func(g digester, _ int, y *vec.Set, f int, _ float64) {
			g.partition(tverberg.PartitionK(y, f, 1))
		}},
		{"PartitionRelaxed", func(g digester, _ int, y *vec.Set, f int, scale float64) {
			g.partition(tverberg.PartitionRelaxed(y, f, 0.2*scale, inf))
		}},
		{"InHull", func(g digester, i int, y *vec.Set, _ int, scale float64) {
			for _, q := range digestQueries(i, y, scale) {
				g.bit(geom.InHull(q, y))
			}
		}},
		{"InHullK", func(g digester, i int, y *vec.Set, _ int, scale float64) {
			for _, q := range digestQueries(i, y, scale) {
				for k := 1; k <= y.Dim(); k++ {
					g.bit(relax.InHullK(q, y, k))
				}
			}
		}},
		{"GammaPoint", func(g digester, _ int, y *vec.Set, f int, _ float64) {
			pt, ok := relax.GammaPoint(y, f)
			g.bit(ok)
			g.vec(pt)
		}},
		{"DeltaStarPoly", func(g digester, _ int, y *vec.Set, f int, _ float64) {
			for _, p := range []float64{1, inf} {
				delta, pt := relax.DeltaStarPoly(y, f, p)
				g.float(delta)
				g.vec(pt)
			}
		}},
		{"DeltaStar2", func(g digester, _ int, y *vec.Set, f int, _ float64) {
			g.result(minimax.DeltaStar2(y, f))
		}},
		{"DeltaStarP", func(g digester, _ int, y *vec.Set, f int, _ float64) {
			for _, p := range []float64{1.5, 3} {
				g.result(minimax.DeltaStarP(y, f, p))
			}
		}},
		{"GammaDeltaPoint", func(g digester, _ int, y *vec.Set, f int, scale float64) {
			for _, p := range []float64{1, inf} {
				pt, ok := relax.GammaDeltaPoint(y, f, 0.2*scale, p)
				g.bit(ok)
				g.vec(pt)
			}
		}},
	}
	out := make(map[string]string)
	for _, scale := range digestScales {
		for _, k := range kernels {
			g := digester{sha256.New()}
			for i, c := range digestShapes {
				k.run(g, i, digestSet(i, scale), c.f, scale)
			}
			out[fmt.Sprintf("%s/%g", k.name, scale)] = hex.EncodeToString(g.h.Sum(nil))
		}
	}
	return out
}

// TestKernelDigest pins every kernel's output bits to the golden file.
func TestKernelDigest(t *testing.T) {
	raw, err := os.ReadFile("testdata/kernel_digest.json")
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	got := kernelDigests()
	t.Logf("%d digests in %v", len(got), time.Since(start))
	for name, w := range want {
		g, ok := got[name]
		switch {
		case !ok:
			t.Errorf("%s: not computed", name)
		case g != w:
			t.Errorf("%s: output bits changed (digest %s, golden %s)", name, g, w)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: missing from testdata/kernel_digest.json", name)
		}
	}
}
