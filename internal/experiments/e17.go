package experiments

import (
	"context"
	"slices"

	bvc "relaxedbvc"
	"relaxedbvc/internal/geom"
	"relaxedbvc/internal/report"
	"relaxedbvc/internal/vec"
	"relaxedbvc/internal/workload"
)

// E17ConvexHull exercises the Convex Hull Consensus generalization the
// paper cites ([15, 16]): non-faulty processes agree on an identical
// polytope (a deterministic inner approximation of Gamma(S)) contained in
// the hull of the non-faulty inputs, under the same Byzantine adversaries
// as the point-valued protocols, and the polytope collapses to a point
// exactly when Gamma does.
func E17ConvexHull(opt Options) *Outcome {
	opt = opt.withDefaults()
	rng := opt.rng()
	o := &Outcome{ID: "E17", Title: "Convex hull consensus (cited generalization [15,16])", Pass: true}
	t := report.NewTable("", "d", "f", "n", "dirs", "attack", "polytope agree", "valid", "spread", "got")
	o.Table = t

	cases := []struct{ d, f int }{{2, 1}, {3, 1}}
	if !opt.Quick {
		cases = append(cases, struct{ d, f int }{2, 2})
	}
	for _, c := range cases {
		n := (c.d+1)*c.f + 1
		if n < 3*c.f+1 {
			n = 3*c.f + 1
		}
		for trial := 0; trial < opt.Trials; trial++ {
			inputs := workload.Gaussian(rng, n, c.d, 2)
			byz := map[int]bvc.ByzantineBehavior{
				n - 1: bvc.Equivocator(
					workload.Gaussian(rng, 1, c.d, 8)[0],
					workload.Gaussian(rng, 1, c.d, 8)[0]),
			}
			if c.f == 2 {
				byz[0] = bvc.Silent()
			}
			dirs := 4 * c.d
			spec := bvc.Spec{Protocol: bvc.ProtocolConvex, N: n, F: c.f, D: c.d, Inputs: inputs, Byzantine: byz, Directions: dirs}
			res, err := bvc.Run(context.Background(), spec)
			if err != nil {
				o.Pass = false
				t.AddRow(c.d, c.f, n, dirs, "equivocate", "-", "-", "-", "error: "+err.Error())
				continue
			}
			honest := spec.HonestIDs()
			agree := true
			for _, i := range honest[1:] {
				agree = agree && slices.EqualFunc(res.Vertices[honest[0]], res.Vertices[i], vec.V.Equal)
			}
			valid := bvc.CheckConvexValidity(res.Vertices[honest[0]], spec.NonFaultyInputs(), 1e-6)
			spread := vec.NewSet(res.Vertices[honest[0]]...).MaxEdge(2)
			ok := agree && valid
			if trial == 0 {
				t.AddRow(c.d, c.f, n, dirs, "equivocate+silent", agree, valid, spread, report.PassFail(ok))
			}
			o.Pass = o.Pass && ok
		}
	}

	// Degeneration: identical inputs collapse the polytope to a point.
	p := workload.Gaussian(rng, 1, 2, 2)[0]
	res, err := bvc.Run(context.Background(), bvc.Spec{
		Protocol: bvc.ProtocolConvex, N: 4, F: 1, D: 2, Directions: 8,
		Inputs: []vec.V{p.Clone(), p.Clone(), p.Clone(), p.Clone()},
	})
	collapsed := err == nil
	if collapsed {
		for _, v := range res.Vertices[0] {
			if !v.ApproxEqual(p, 1e-7) {
				collapsed = false
			}
		}
	}
	t.AddRow(2, 1, 4, 8, "identical inputs", collapsed, collapsed, 0.0, report.PassFail(collapsed))
	o.Pass = o.Pass && collapsed

	// Cross-check: the exact-BVC Gamma point lies (nearly) inside the
	// agreed polytope when the fan is dense enough.
	inputs := workload.Gaussian(rng, 5, 2, 2)
	spec := bvc.Spec{Protocol: bvc.ProtocolConvex, N: 5, F: 1, D: 2, Inputs: inputs, Directions: 24}
	cres, err1 := bvc.Run(context.Background(), spec)
	spec.Protocol = bvc.ProtocolExact
	eres, err2 := bvc.Run(context.Background(), spec)
	crossOK := err1 == nil && err2 == nil
	gap := 0.0
	if crossOK {
		gap, _ = geom.Dist2(eres.Outputs[0], vec.NewSet(cres.Vertices[0]...))
		crossOK = gap < 0.1
	}
	t.AddRow(2, 1, 5, 24, "Gamma-point containment", crossOK, crossOK, gap, report.PassFail(crossOK))
	o.Pass = o.Pass && crossOK
	note(o, "the polytope is Gamma(S)'s support-point inner approximation; its hull is the agreed region")
	return o
}
