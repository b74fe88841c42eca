package consensus

import (
	"context"
	"fmt"
	"math"

	"relaxedbvc/internal/geom"
	"relaxedbvc/internal/relax"
	"relaxedbvc/internal/sched"
	"relaxedbvc/internal/transport"
	"relaxedbvc/internal/tverberg"
	"relaxedbvc/internal/vec"
)

// Convex hull consensus (Tseng-Vaidya [16], Byzantine variant [15]) is
// the generalization the paper cites in Related Work: instead of a single
// vector, the non-faulty processes agree on an identical convex POLYTOPE
// contained in the convex hull of their inputs. The largest such
// adversary-safe region is exactly Gamma(S); this implementation outputs
// a deterministic inner approximation of Gamma(S) — its support points in
// a fixed direction fan — so all non-faulty processes compute the same
// polytope, and the approximation refines as Directions grows.

// ConvexResult is the outcome of a convex hull consensus run.
type ConvexResult struct {
	// Vertices[i] holds process i's agreed polytope vertices (identical
	// across honest processes; possibly with repeats when Gamma is
	// lower-dimensional).
	Vertices [][]vec.V
	// Rounds and Messages are broadcast statistics.
	Rounds, Messages int
	// Faults counts injected link-fault events during Step 1.
	Faults sched.FaultStats
	// Transport sums the local endpoints' traffic (zero on the
	// simulation).
	Transport transport.Stats
}

// minDirections is the floor on the direction-fan size: the 2d signed
// coordinate axes, below which the supporting polytope is unbounded.
func minDirections(d int) int { return 2 * d }

// directionFan returns a deterministic set of at least `count` unit
// directions in R^d: the 2d signed axes followed by normalized lattice
// diagonals from a fixed linear-congruential sequence. All processes use
// the same fan, which is what makes the output polytope identical.
func directionFan(d, count int) []vec.V {
	var dirs []vec.V
	for i := 0; i < d; i++ {
		e := vec.New(d)
		e[i] = 1
		dirs = append(dirs, e)
		ne := vec.New(d)
		ne[i] = -1
		dirs = append(dirs, ne)
	}
	// Deterministic pseudo-directions (no time/global rand involved).
	state := uint64(88172645463325252)
	next := func() float64 {
		// xorshift64
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return float64(int64(state%2000001)-1000000) / 1000000.0
	}
	for len(dirs) < count {
		v := vec.New(d)
		for j := range v {
			v[j] = next()
		}
		if n := v.Norm2(); n > 1e-9 {
			dirs = append(dirs, v.Scale(1/n))
		}
	}
	return dirs
}

// gammaAnchor computes a certified point of Gamma(S) = the intersection
// of the dropped-subset hulls: first relax.GammaPoint, then
// an exhaustive Tverberg partition scan as backup (a depth-(f+1)
// Tverberg point lies in every dropped-subset hull, because each subset
// drops only f points and so keeps at least one partition block
// intact). ok=false means Gamma(S) is genuinely empty.
func gammaAnchor(y *vec.Set, f int, fam []*vec.Set) (vec.V, bool) {
	if pt, ok := relax.GammaPoint(y, f); ok && relax.InEveryHull(fam, pt) {
		return pt, true
	}
	if pt, ok := tverberg.Point(y, f); ok && relax.InEveryHull(fam, pt) {
		return pt, true
	}
	return nil, false
}

// RunConvexHullConsensus runs Byzantine convex hull consensus: Step 1
// broadcasts all inputs (oral or signed per cfg); Step 2 computes the
// support points of Gamma(S) along a deterministic fan of `directions`
// directions (at least 2d are always used).
//
// Bounds (Tseng-Vaidya, arXiv:1307.1332): Gamma(S) is guaranteed
// non-empty when n >= max(3f+1, (d+1)f+1) — the Tverberg existence floor
// — but only guaranteed full-dimensional at n >= (d+2)f+1. In the gap
// (e.g. n=5, f=1, d=3) Gamma(S) is generically a single degenerate point,
// where the support LP is numerically fragile: it can report spurious
// infeasibility or return an "optimal" vertex outside the intersection.
// Each support point is therefore validated against every dropped-subset
// hull, and fragile directions fall back to a certified Gamma(S) anchor
// point, so the output polytope (possibly a single repeated vertex) is
// always contained in Gamma(S).
func RunConvexHullConsensus(ctx context.Context, cfg *SyncConfig, directions int) (*ConvexResult, error) {
	return RunConvexHull(ctx, transport.Plane{}, cfg, directions)
}

// RunConvexHull is RunConvexHullConsensus on a chosen plane: the same
// Step 1 as every synchronous protocol, then the support fan as the
// Step-2 choice. On TCP only this process's polytope is filled.
func RunConvexHull(ctx context.Context, plane transport.Plane, cfg *SyncConfig, directions int) (*ConvexResult, error) {
	minN := 3*cfg.F + 1
	if t := (cfg.D+1)*cfg.F + 1; t > minN {
		minN = t
	}
	if cfg.N < minN {
		errorsTotal.Inc()
		return nil, fmt.Errorf("%w: convex hull consensus requires n >= max(3f+1, (d+1)f+1) = %d, got n=%d", ErrTooFewProcesses, minN, cfg.N)
	}
	if directions < minDirections(cfg.D) {
		directions = minDirections(cfg.D)
	}
	fan := directionFan(cfg.D, directions)
	info, verts, err := runSync(ctx, plane, cfg, func(s *vec.Set) ([]vec.V, error) {
		return supportFan(cfg, s, fan)
	})
	if err != nil {
		return nil, err
	}
	return &ConvexResult{
		Vertices:  verts,
		Rounds:    info.rounds,
		Messages:  info.messages,
		Faults:    info.faults,
		Transport: info.transport,
	}, nil
}

// supportFan is the convex Step-2 choice: the support point of Gamma(S)
// in every direction of fan, all solved by one lazy block-generation
// loop, which certifies every point it returns against every hull.
func supportFan(cfg *SyncConfig, s *vec.Set, fan []vec.V) ([]vec.V, error) {
	fam := relax.DroppedSubsets(s, cfg.F)
	verts := relax.SupportPoints(fam, fan)
	var anchor vec.V
	for i, pt := range verts {
		if pt != nil {
			continue
		}
		// Degenerate Gamma(S): substitute the certified anchor so the
		// vertex stays inside the intersection. All honest processes
		// hold the same multiset after step 1, so they substitute the
		// same anchor and agreement is preserved.
		if anchor == nil {
			a, ok := gammaAnchor(s, cfg.F, fam)
			if !ok {
				return nil, fmt.Errorf("%w: Gamma(S) is empty (n=%d, f=%d, d=%d)", ErrEmptyIntersection, cfg.N, cfg.F, cfg.D)
			}
			anchor = a
		}
		verts[i] = anchor
	}
	return verts, nil
}

// PolytopeAgreementError returns the maximum over vertex indices of the
// L-infinity distance between two processes' polytope vertex lists
// (0 = identical polytopes).
func PolytopeAgreementError(res *ConvexResult, a, b int) float64 {
	va, vb := res.Vertices[a], res.Vertices[b]
	if len(va) != len(vb) {
		return math.Inf(1)
	}
	worst := 0.0
	for i := range va {
		if d := va[i].Sub(vb[i]).NormP(math.Inf(1)); d > worst {
			worst = d
		}
	}
	return worst
}

// CheckConvexValidity reports whether every vertex of the agreed polytope
// lies in the convex hull of the non-faulty inputs (within tol) — the
// validity condition of convex hull consensus.
func CheckConvexValidity(vertices []vec.V, nonFaulty *vec.Set, tol float64) bool {
	for _, v := range vertices {
		d, _ := geom.Dist2(v, nonFaulty)
		if d > tol {
			return false
		}
	}
	return true
}
