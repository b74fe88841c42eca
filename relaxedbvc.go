// Package relaxedbvc is a library for relaxed Byzantine vector consensus,
// reproducing "Relaxed Byzantine Vector Consensus" by Zhuolun Xiang and
// Nitin H. Vaidya (arXiv:1601.08067; brief announcement at SPAA 2016).
//
// The exact Byzantine vector consensus problem asks n processes, up to f
// of them Byzantine, to agree on a vector inside the convex hull of the
// non-faulty processes' d-dimensional inputs. Tight bounds require
// n >= max(3f+1, (d+1)f+1) processes synchronously and n >= (d+2)f+1
// asynchronously — painful when d is large. The paper studies two
// relaxations of the validity condition:
//
//   - k-relaxed validity: the output need only lie in the convex hull of
//     every k-coordinate projection of the non-faulty inputs (Definition
//     6). Result: for 2 <= k <= d-1 the bounds do not improve; k = 1
//     drops the requirement to n >= 3f+1.
//   - (delta,p)-relaxed validity: the output may be within Lp distance
//     delta of the hull (Definition 9). Result: for constant delta the
//     bounds do not improve either — but when delta may depend on the
//     inputs, n = d+1 processes suffice (f = 1, d >= 3) with
//     delta* < min(min_e||e||/2, max_e||e||/(n-2))  (Theorem 9),
//     and analogous bounds for f >= 2 (Theorem 12, Conjecture 1) and
//     other norms (Theorem 14) and asynchrony (Theorem 15).
//
// This library implements, from scratch on the Go standard library:
//
//   - the synchronous protocols (exact BVC, k-relaxed BVC, and the
//     paper's Algorithm ALGO for input-dependent (delta,p)-relaxed BVC)
//     over a simulated complete network with real Byzantine adversaries
//     and oral-messages (EIG) Byzantine broadcast;
//   - the asynchronous Relaxed Verified Averaging algorithm of Section
//     10 over Bracha reliable broadcast with genuine witness
//     verification;
//   - the geometric machinery: exact LP-based convex hull predicates,
//     relaxed hulls H_k and H_(delta,p), the Gamma/Psi intersection
//     regions, Wolfe min-norm-point L2 distances, simplex inradius
//     closed forms (Lemmas 11-15), Tverberg partition search, and the
//     delta* minimax solver;
//   - an experiment harness regenerating every quantitative claim of the
//     paper (Table 1, Figure 1's scenarios and Theorems 1-15); see
//     EXPERIMENTS.md and cmd/bvcbench.
//
// The top-level package re-exports the stable public API; packages under
// internal/ hold the implementation.
package relaxedbvc

import (
	"math"
	"math/rand"

	"relaxedbvc/internal/adversary"
	"relaxedbvc/internal/broadcast"
	"relaxedbvc/internal/consensus"
	"relaxedbvc/internal/geom"
	"relaxedbvc/internal/minimax"
	"relaxedbvc/internal/relax"
	"relaxedbvc/internal/sched"
	"relaxedbvc/internal/trace"
	"relaxedbvc/internal/tverberg"
	"relaxedbvc/internal/vec"
)

// Vector is a point in R^d (an input or output of consensus).
type Vector = vec.V

// PointSet is an ordered multiset of vectors.
type PointSet = vec.Set

// NewVector builds a vector from coordinates.
func NewVector(xs ...float64) Vector { return vec.Of(xs...) }

// NewPointSet builds a multiset from vectors.
func NewPointSet(pts ...Vector) *PointSet { return vec.NewSet(pts...) }

// LInf is the value to pass as the norm parameter p for the L-infinity
// norm.
var LInf = math.Inf(1)

// --- Adversary scripting and protocol modes (Spec fields) ---

// ByzantineBehavior scripts a Byzantine process's broadcast-level
// behavior (see the adversary constructors below).
type ByzantineBehavior = broadcast.EIGBehavior

// IterByzantine scripts a Byzantine process in the iterative protocol.
type IterByzantine = consensus.IterByzantine

// IterByzantineFunc adapts a function to IterByzantine.
type IterByzantineFunc = consensus.IterByzantineFunc

// AsyncByzantine scripts an asynchronous Byzantine process.
type AsyncByzantine = consensus.AsyncByzantine

// AsyncMode selects exact (delta = 0, n >= (d+2)f+1) or relaxed
// (input-dependent delta, n >= 3f+1) round-0 choice.
type AsyncMode = consensus.AsyncMode

// Async modes.
const (
	ModeRelaxed = consensus.ModeRelaxed
	ModeExact   = consensus.ModeExact
)

// NeverMisbehave marks an AsyncByzantine field as "never".
const NeverMisbehave = consensus.NeverMisbehave

// --- Validity / agreement checks ---

// AgreementError returns the maximum pairwise L-infinity distance between
// the outputs of the given process ids.
func AgreementError(outputs []Vector, ids []int) float64 {
	return consensus.AgreementError(outputs, ids)
}

// CheckExactValidity reports whether out is in the convex hull of the
// non-faulty inputs (within tol).
func CheckExactValidity(out Vector, nonFaulty *PointSet, tol float64) bool {
	return consensus.CheckExactValidity(out, nonFaulty, tol)
}

// CheckKValidity reports k-relaxed validity (Definition 7).
func CheckKValidity(out Vector, nonFaulty *PointSet, k int, tol float64) bool {
	return consensus.CheckKValidity(out, nonFaulty, k, tol)
}

// CheckDeltaValidity reports (delta,p)-relaxed validity (Definition 10).
func CheckDeltaValidity(out Vector, nonFaulty *PointSet, delta, p, tol float64) bool {
	return consensus.CheckDeltaValidity(out, nonFaulty, delta, p, tol)
}

// CheckConvexValidity reports whether every polytope vertex lies in the
// hull of the non-faulty inputs.
func CheckConvexValidity(vertices []Vector, nonFaulty *PointSet, tol float64) bool {
	return consensus.CheckConvexValidity(vertices, nonFaulty, tol)
}

// --- Byzantine behavior library (synchronous broadcast level) ---

// Silent returns a crash-at-start behavior.
func Silent() ByzantineBehavior { return adversary.Silent() }

// Equivocator sends a to even recipients and b to odd ones.
func Equivocator(a, b Vector) ByzantineBehavior { return adversary.Equivocator(a, b) }

// FixedVector always claims v.
func FixedVector(v Vector) ByzantineBehavior { return adversary.FixedVector(v) }

// PerRecipient sends vectors[to] to each recipient (honest otherwise).
func PerRecipient(vectors map[int]Vector) ByzantineBehavior { return adversary.PerRecipient(vectors) }

// RandomLiar sends seeded random vectors.
func RandomLiar(seed int64, d int, scale float64) ByzantineBehavior {
	return adversary.RandomLiar(seed, d, scale)
}

// --- Geometry ---

// InHull reports whether q is in the convex hull of s (exact LP test).
func InHull(q Vector, s *PointSet) bool { return geom.InHull(q, s) }

// InRelaxedHull reports membership in H_(delta,p)(S) (Definition 9).
func InRelaxedHull(q Vector, s *PointSet, delta, p float64) bool {
	return geom.InRelaxedHull(q, s, delta, p, 0)
}

// InKRelaxedHull reports membership in H_k(S) (Definition 6).
func InKRelaxedHull(q Vector, s *PointSet, k int) bool { return relax.InHullK(q, s, k) }

// DistToHull returns the Lp distance from q to conv(S) and the nearest
// hull point. p may be any value >= 1 including LInf.
func DistToHull(q Vector, s *PointSet, p float64) (float64, Vector) { return geom.DistP(q, s, p) }

// GammaPoint returns a deterministic point of Gamma(S) (the intersection
// of the hulls of all (|S|-f)-subsets), or ok=false when empty.
func GammaPoint(s *PointSet, f int) (Vector, bool) { return relax.GammaPoint(s, f) }

// TverbergPartition searches for a partition of s into f+1 parts with
// intersecting hulls (Theorem 7) and returns the blocks and a common
// point.
func TverbergPartition(s *PointSet, f int) (blocks [][]int, point Vector, ok bool) {
	return tverberg.Partition(s, f)
}

// --- Paper bounds (Table 1 and Theorem 14) ---

// Theorem9Bound returns min(minEdge/2, maxEdge/(n-2)) over the non-faulty
// inputs: the f = 1, n = d+1 bound of Theorem 9.
func Theorem9Bound(nonFaulty *PointSet, n int) float64 {
	return minimax.Theorem9Bound(nonFaulty, n)
}

// Theorem12Bound returns maxEdge/(d-1): the f >= 2, n = (d+1)f bound.
func Theorem12Bound(nonFaulty *PointSet, d int) float64 {
	return minimax.Theorem12Bound(nonFaulty, d)
}

// Conjecture1Bound returns maxEdge/(floor(n/f)-2) for 3f+1 <= n < (d+1)f.
func Conjecture1Bound(nonFaulty *PointSet, n, f int) float64 {
	return minimax.Conjecture1Bound(nonFaulty, n, f)
}

// HolderScale returns d^(1/2-1/p), the Theorem 14 transfer factor from
// the L2 bound to Lp (p >= 2).
func HolderScale(d int, p float64) float64 { return minimax.HolderScale(d, p) }

// --- Network-level knobs ---

// Message is one delivered point-to-point message (for trace hooks).
type Message = sched.Message

// Schedule controls asynchronous delivery order.
type Schedule = sched.Schedule

// Delivery schedules for Spec.Schedule.
func FIFOSchedule() Schedule { return sched.FIFOSchedule{} }
func LIFOSchedule() Schedule { return sched.LIFOSchedule{} }
func RandomSchedule(seed int64) Schedule {
	return &sched.RandomSchedule{Rng: rand.New(rand.NewSource(seed))}
}
func StarveSchedule(slow ...int) Schedule {
	m := make(map[int]bool, len(slow))
	for _, s := range slow {
		m[s] = true
	}
	return &sched.DelayTargetSchedule{Slow: m}
}

// LinkFaults is a seeded, replayable link-fault policy for Spec.Faults
// (per-link drop probability, bounded delay, duplication, timed
// partitions). See the sched package for the full model semantics.
type LinkFaults = sched.LinkFaults

// Link identifies one directed channel in LinkFaults.Links.
type Link = sched.Link

// LinkProfile is the per-link fault intensity of a LinkFaults policy.
type LinkProfile = sched.LinkProfile

// Partition is a timed network split in LinkFaults.Partitions.
type Partition = sched.Partition

// FaultStats counts injected fault events for one run.
type FaultStats = sched.FaultStats

// SignedByzantineBehavior scripts a Byzantine process under the signed
// (Dolev-Strong) broadcast mode of Spec.SignedBroadcast.
type SignedByzantineBehavior = broadcast.DSBehavior

// SignedEquivocator builds the canonical signed-mode attack: per-
// recipient round-0 values with genuine signatures.
func SignedEquivocator(values map[int]Vector) SignedByzantineBehavior {
	return adversary.SignedEquivocator(values)
}

// TraceRecorder captures message-level transcripts; install its Hook as
// Spec.Trace and inspect the summary afterwards.
type TraceRecorder = trace.Recorder

// NewTraceRecorder returns a recorder retaining up to limit events
// (0 = default cap).
func NewTraceRecorder(limit int) *TraceRecorder { return trace.New(limit) }
