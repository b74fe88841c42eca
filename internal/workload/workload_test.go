package workload

import (
	"math"
	"math/rand"
	"testing"

	"relaxedbvc/internal/linalg"
	"relaxedbvc/internal/vec"
)

func TestUniformCubeBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := UniformCube(rng, 50, 3, 2)
	if len(pts) != 50 {
		t.Fatal("count")
	}
	for _, p := range pts {
		for _, x := range p {
			if x < -2 || x > 2 {
				t.Fatalf("out of cube: %v", p)
			}
		}
	}
}

func TestSphereRadius(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, p := range Sphere(rng, 30, 4, 3) {
		if math.Abs(p.Norm2()-3) > 1e-9 {
			t.Fatalf("not on sphere: %v", p.Norm2())
		}
	}
}

func TestClusteredOutliers(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := Clustered(rng, 10, 3, 2, 0.01, 100)
	s := vec.NewSet(pts[:8]...)
	if s.MaxEdge(2) > 1 {
		t.Errorf("cluster too spread: %v", s.MaxEdge(2))
	}
	// Outliers should be far from the cluster.
	c := vec.Mean(pts[:8])
	for _, o := range pts[8:] {
		if o.Dist2(c) < 1 {
			t.Log("outlier unusually close (possible but unlikely); acceptable")
		}
	}
}

func TestStandardSimplex(t *testing.T) {
	pts := StandardSimplex(3)
	if len(pts) != 4 || !affinelyIndependent(pts) {
		t.Fatal("standard simplex malformed")
	}
}

func TestAffinelyDependent(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pts := AffinelyDependent(rng, 4, 5, 2, 1)
	if affinelyIndependent(pts) {
		// 4 points in a 2-dim subspace: differences have rank <= 2 < 3.
		t.Fatal("points unexpectedly affinely independent")
	}
}

func TestTheorem3MatrixShape(t *testing.T) {
	d := 4
	gamma, eps := 1.0, 0.5
	cols := Theorem3Matrix(d, gamma, eps)
	if len(cols) != d+1 {
		t.Fatalf("columns = %d", len(cols))
	}
	// Column i: zeros above diagonal, gamma at i, eps below.
	for i := 0; i < d; i++ {
		for r := 0; r < d; r++ {
			want := eps
			if r < i {
				want = 0
			} else if r == i {
				want = gamma
			}
			if cols[i][r] != want {
				t.Fatalf("col %d row %d = %v, want %v", i, r, cols[i][r], want)
			}
		}
	}
	for r := 0; r < d; r++ {
		if cols[d][r] != -gamma {
			t.Fatalf("last column row %d = %v", r, cols[d][r])
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("invalid params did not panic")
		}
	}()
	Theorem3Matrix(d, 1, 2)
}

func TestTheorem4MatrixShape(t *testing.T) {
	d := 3
	cols := Theorem4Matrix(d, 1, 0.2)
	if len(cols) != d+2 {
		t.Fatalf("columns = %d", len(cols))
	}
	if cols[1][2] != 0.4 { // 2*eps below diagonal
		t.Errorf("below-diagonal = %v, want 0.4", cols[1][2])
	}
	if !cols[d+1].Equal(vec.New(d)) {
		t.Error("last column not zero")
	}
	defer func() {
		if recover() == nil {
			t.Error("invalid params did not panic")
		}
	}()
	Theorem4Matrix(d, 0.3, 0.2)
}

func TestTheorem5And6Matrices(t *testing.T) {
	d := 3
	cols := Theorem5Matrix(d, 10)
	if len(cols) != d+1 {
		t.Fatal("Theorem5Matrix size")
	}
	for i := 0; i < d; i++ {
		for r := 0; r < d; r++ {
			want := 0.0
			if r == i {
				want = 10
			}
			if cols[i][r] != want {
				t.Fatalf("T5 col %d row %d", i, r)
			}
		}
	}
	cols6 := Theorem6Matrix(d, 10)
	if len(cols6) != d+2 || !cols6[d+1].Equal(vec.New(d)) {
		t.Fatal("Theorem6Matrix shape")
	}
}

func TestRingScenarioInputs(t *testing.T) {
	z, o := RingScenarioInputs(3)
	if !z.Equal(vec.Of(0, 0, 0)) || !o.Equal(vec.Of(1, 1, 1)) {
		t.Fatal("ring inputs wrong")
	}
}

func TestGeneratorsDeterministicWithSeed(t *testing.T) {
	for name, g := range Generators() {
		a := g(rand.New(rand.NewSource(9)), 5, 3)
		b := g(rand.New(rand.NewSource(9)), 5, 3)
		for i := range a {
			if !a[i].Equal(b[i]) {
				t.Fatalf("%s not deterministic", name)
			}
		}
	}
}

// affinelyIndependent reports whether the differences pts[i] - pts[last]
// span len(pts)-1 dimensions.
func affinelyIndependent(pts []vec.V) bool {
	last := pts[len(pts)-1]
	diffs := make([]vec.V, len(pts)-1)
	for i := range diffs {
		diffs[i] = pts[i].Sub(last)
	}
	return linalg.OrthonormalBasis(diffs).Cols == len(diffs)
}
