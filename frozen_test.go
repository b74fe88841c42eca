package relaxedbvc

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"

	"relaxedbvc/internal/geom"
	"relaxedbvc/internal/relax"
)

// frozenInstance is one entry of a testdata/*_frozen.json file: a spec
// of the benchmark's generator (inputs uniform in [-5,5)^d, process n-1
// a RandomLiar of scale 5 with the given seed) and how it failed when
// its kernel was one joint LP over all C(n,f) dropped-subset hulls. The
// δ-relaxed entries also carry their norm and the multiset S that Step 1
// agrees on.
type frozenInstance struct {
	Index         int         `json:"index"`
	N             int         `json:"n"`
	F             int         `json:"f"`
	D             int         `json:"d"`
	P             string      `json:"p,omitempty"`
	Inputs        [][]float64 `json:"inputs"`
	LiarSeed      int64       `json:"liar_seed"`
	Set           [][]float64 `json:"set,omitempty"`
	ParentFailure string      `json:"parent_failure"`
}

func loadFrozen(t *testing.T, path string) []frozenInstance {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var frozen []frozenInstance
	if err := json.Unmarshal(raw, &frozen); err != nil {
		t.Fatal(err)
	}
	if len(frozen) == 0 {
		t.Fatal("no frozen instances")
	}
	return frozen
}

// spec is the instance's Run spec under the given protocol and norm.
func (e frozenInstance) spec(proto Protocol, p float64) Spec {
	spec := Spec{
		Protocol: proto, N: e.N, F: e.F, D: e.D, NormP: p,
		Byzantine: map[int]ByzantineBehavior{e.N - 1: RandomLiar(e.LiarSeed, e.D, 5)},
	}
	for _, v := range e.Inputs {
		spec.Inputs = append(spec.Inputs, NewVector(v...))
	}
	return spec
}

// TestExactFrozenInstances runs every frozen instance through Run and
// requires exact agreement among the honest processes and validity at
// tolerance 1e-6, the benchmark's check. Each one failed that check, or
// reported Gamma(S) empty, under the joint LP; the lazy block-generation
// loop's smaller LPs and certified points decide all of them.
func TestExactFrozenInstances(t *testing.T) {
	for _, e := range loadFrozen(t, "testdata/exact_n9_f2_d3_frozen.json") {
		spec := e.spec(ProtocolExact, 0)
		res, err := Run(context.Background(), spec)
		if err != nil {
			t.Fatalf("instance %d (was: %s): %v", e.Index, e.ParentFailure, err)
		}
		honest := spec.HonestIDs()
		if a := AgreementError(res.Outputs, honest); a != 0 {
			t.Fatalf("instance %d: agreement error %g", e.Index, a)
		}
		if !CheckExactValidity(res.Outputs[honest[0]], spec.NonFaultyInputs(), 1e-6) {
			t.Errorf("instance %d (was: %s): output %v violates validity", e.Index, e.ParentFailure, res.Outputs[honest[0]])
		}
	}
}

// TestDeltaStarFrozenInstances runs every frozen δ-relaxed instance
// through DeltaStarPoly on its agreed multiset S and through Run. The
// point must lie within δ + 1e-6 of every dropped-subset hull of S, and
// Run's honest outputs must agree and satisfy (δ,p)-relaxed validity at
// tolerance 1e-6. Under the joint LP each S made DeltaStarPoly panic or
// return a point further than that from some hull.
func TestDeltaStarFrozenInstances(t *testing.T) {
	for _, e := range loadFrozen(t, "testdata/deltastar_frozen.json") {
		p := 1.0
		if e.P == "inf" {
			p = math.Inf(1)
		}
		s := NewPointSet()
		for _, v := range e.Set {
			s.Append(NewVector(v...))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("instance %d n=%d f=%d d=%d p=%v (was: %s): panic %v", e.Index, e.N, e.F, e.D, p, e.ParentFailure, r)
				}
			}()
			delta, pt := relax.DeltaStarPoly(s, e.F, p)
			for i, T := range relax.DroppedSubsets(s, e.F) {
				if dist, _ := geom.DistP(pt, T, p); dist > delta+1e-6 {
					t.Errorf("instance %d n=%d f=%d d=%d p=%v (was: %s): point %v is %g from hull %d, δ %g", e.Index, e.N, e.F, e.D, p, e.ParentFailure, pt, dist, i, delta)
				}
			}
			spec := e.spec(ProtocolDeltaRelaxed, p)
			res, err := Run(context.Background(), spec)
			if err != nil {
				t.Fatalf("instance %d: %v", e.Index, err)
			}
			honest := spec.HonestIDs()
			if a := AgreementError(res.Outputs, honest); a != 0 {
				t.Fatalf("instance %d: agreement error %g", e.Index, a)
			}
			if out := res.Outputs[honest[0]]; !CheckDeltaValidity(out, spec.NonFaultyInputs(), res.Delta[honest[0]], p, 1e-6) {
				t.Errorf("instance %d n=%d f=%d d=%d p=%v (was: %s): output %v violates validity at δ %g", e.Index, e.N, e.F, e.D, p, e.ParentFailure, out, res.Delta[honest[0]])
			}
		}()
	}
}

// wolfeFalseReject is one entry of testdata/wolfe_false_rejects.json: a
// point x inside conv(hull), an explicit witness for it (convex weights
// over hull's points) and the distance Wolfe's Dist2 reported when the
// entry was recorded, above CertTol although the point is in the hull
// (ROADMAP item 1: Wolfe's stopping gap is 1e-9·scale²).
type wolfeFalseReject struct {
	Source  string      `json:"source"`
	X       []float64   `json:"x"`
	Hull    [][]float64 `json:"hull"`
	Witness []float64   `json:"witness"`
	Wolfe   float64     `json:"wolfe"`
}

// TestWolfeFalseRejects pins the points whose hull a block certificate
// (or, for InEveryHull, the L-infinity distance LP's weights) accepts
// while Wolfe rejects it: InEveryHull accepts each point, its witness
// residual is at most 1e-12·scale, and Wolfe still rejects it, so the
// entry stays evidence for item 1 until Dist2 is fixed.
func TestWolfeFalseRejects(t *testing.T) {
	raw, err := os.ReadFile("testdata/wolfe_false_rejects.json")
	if err != nil {
		t.Fatal(err)
	}
	var entries []wolfeFalseReject
	if err := json.Unmarshal(raw, &entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no entries")
	}
	for i, e := range entries {
		x, hull := NewVector(e.X...), NewPointSet()
		scale := x.NormP(math.Inf(1))
		for _, v := range e.Hull {
			hull.Append(NewVector(v...))
			scale = math.Max(scale, NewVector(v...).NormP(math.Inf(1)))
		}
		fam := []*PointSet{hull}
		if !relax.InEveryHull(fam, x) {
			t.Errorf("entry %d (%s): InEveryHull rejects %v", i, e.Source, x)
		}
		if r := geom.WitnessDist(x, hull, e.Witness, 2, make(Vector, len(x))); !(r <= 1e-12*scale) {
			t.Errorf("entry %d (%s): witness residual %g > 1e-12·%g", i, e.Source, r, scale)
		}
		if dist, _ := geom.Dist2(x, hull); dist <= relax.CertTol {
			t.Errorf("entry %d (%s): Wolfe now accepts (%g, recorded %g); the entry no longer freezes a false rejection", i, e.Source, dist, e.Wolfe)
		}
	}
}
