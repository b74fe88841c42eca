package vec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewAndOf(t *testing.T) {
	z := New(3)
	if z.Dim() != 3 {
		t.Fatalf("New(3).Dim() = %d", z.Dim())
	}
	for i, x := range z {
		if x != 0 {
			t.Errorf("New(3)[%d] = %v, want 0", i, x)
		}
	}
	v := Of(1, 2, 3)
	if v.Dim() != 3 || v[0] != 1 || v[1] != 2 || v[2] != 3 {
		t.Errorf("Of(1,2,3) = %v", v)
	}
}

func TestCloneIndependence(t *testing.T) {
	v := Of(1, 2)
	w := v.Clone()
	w[0] = 99
	if v[0] != 1 {
		t.Errorf("Clone aliases original: v = %v", v)
	}
}

func TestAddSubScale(t *testing.T) {
	a := Of(1, 2, 3)
	b := Of(4, 5, 6)
	if got := a.Add(b); !got.Equal(Of(5, 7, 9)) {
		t.Errorf("Add = %v", got)
	}
	if got := b.Sub(a); !got.Equal(Of(3, 3, 3)) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Scale(2); !got.Equal(Of(2, 4, 6)) {
		t.Errorf("Scale = %v", got)
	}
	// Inputs untouched.
	if !a.Equal(Of(1, 2, 3)) || !b.Equal(Of(4, 5, 6)) {
		t.Errorf("inputs mutated: a=%v b=%v", a, b)
	}
}

func TestInPlaceOps(t *testing.T) {
	a := Of(1, 1)
	a.AddInPlace(Of(2, 3))
	if !a.Equal(Of(3, 4)) {
		t.Errorf("AddInPlace = %v", a)
	}
	a.AXPY(2, Of(1, 0))
	if !a.Equal(Of(5, 4)) {
		t.Errorf("AXPY = %v", a)
	}
}

func TestDotAndNorms(t *testing.T) {
	a := Of(3, 4)
	if got := a.Dot(Of(1, 2)); got != 11 {
		t.Errorf("Dot = %v", got)
	}
	if got := a.Norm2(); got != 5 {
		t.Errorf("Norm2 = %v", got)
	}
	if got := a.NormP(1); got != 7 {
		t.Errorf("NormP(1) = %v", got)
	}
	if got := a.NormP(math.Inf(1)); got != 4 {
		t.Errorf("NormP(inf) = %v", got)
	}
	// p = 3 by hand: (27+64)^(1/3)
	want := math.Pow(91, 1.0/3)
	if got := a.NormP(3); math.Abs(got-want) > 1e-12 {
		t.Errorf("NormP(3) = %v, want %v", got, want)
	}
}

func TestNormPRejectsBadP(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NormP(0.5) did not panic")
		}
	}()
	Of(1).NormP(0.5)
}

func TestDist(t *testing.T) {
	a := Of(0, 0)
	b := Of(3, 4)
	if got := a.Dist2(b); got != 5 {
		t.Errorf("Dist2 = %v", got)
	}
	if got := a.DistP(b, 1); got != 7 {
		t.Errorf("DistP(1) = %v", got)
	}
	if got := a.DistP(b, math.Inf(1)); got != 4 {
		t.Errorf("DistP(inf) = %v", got)
	}
}

func TestApproxEqual(t *testing.T) {
	a := Of(1, 2)
	if !a.ApproxEqual(Of(1+1e-10, 2), 1e-9) {
		t.Error("ApproxEqual false negative")
	}
	if a.ApproxEqual(Of(1.1, 2), 1e-9) {
		t.Error("ApproxEqual false positive")
	}
	if a.ApproxEqual(Of(1, 2, 3), 1) {
		t.Error("ApproxEqual across dims")
	}
}

func TestMeanLerpCombination(t *testing.T) {
	m := Mean([]V{Of(0, 0), Of(2, 4)})
	if !m.Equal(Of(1, 2)) {
		t.Errorf("Mean = %v", m)
	}
	l := Lerp(Of(0, 0), Of(10, 10), 0.25)
	if !l.Equal(Of(2.5, 2.5)) {
		t.Errorf("Lerp = %v", l)
	}
}

func TestDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add with mismatched dims did not panic")
		}
	}()
	Of(1, 2).Add(Of(1))
}

// Property: triangle inequality for every Lp norm we support.
func TestTriangleInequalityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func() bool {
		d := 1 + rng.Intn(6)
		a, b := New(d), New(d)
		for i := 0; i < d; i++ {
			a[i] = rng.NormFloat64() * 10
			b[i] = rng.NormFloat64() * 10
		}
		for _, p := range []float64{1, 1.5, 2, 3, math.Inf(1)} {
			if a.Add(b).NormP(p) > a.NormP(p)+b.NormP(p)+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: norm monotonicity ||x||_inf <= ||x||_p <= ||x||_r for r <= p
// (Theorem 13 direction used in the paper's norm-equivalence arguments).
func TestNormMonotonicityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func() bool {
		d := 1 + rng.Intn(8)
		x := New(d)
		for i := range x {
			x[i] = rng.NormFloat64() * 5
		}
		ps := []float64{1, 1.5, 2, 3, 6, math.Inf(1)}
		for i := 0; i+1 < len(ps); i++ {
			lo, hi := ps[i], ps[i+1]
			if x.NormP(hi) > x.NormP(lo)+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHolderScalingProperty(t *testing.T) {
	// ||x||_r <= d^(1/r - 1/p) ||x||_p for r <= p (Theorem 13).
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		d := 1 + rng.Intn(8)
		x := New(d)
		for i := range x {
			x[i] = rng.NormFloat64() * 5
		}
		r, p := 2.0, 4.0
		bound := math.Pow(float64(d), 1/r-1/p) * x.NormP(p)
		if x.NormP(r) > bound+1e-9 {
			t.Fatalf("Holder violated: ||x||_2=%v > %v", x.NormP(r), bound)
		}
	}
}

func TestString(t *testing.T) {
	if got := Of(1, 2.5).String(); got != "(1, 2.5)" {
		t.Errorf("String = %q", got)
	}
}
