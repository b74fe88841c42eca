// Package simtest is an invariant-checking simulation harness for the
// consensus protocols: it wraps Run(ctx, spec), checks every successful
// run against the paper's correctness conditions (validity in the exact,
// k-relaxed or (delta,p)-relaxed sense; agreement, or non-expansion for
// the approximate protocols; termination), and classifies failures into graceful degradations
// (typed errors such as ErrDeliveryViolated from an out-of-model fault
// pattern) versus genuine invariant violations.
//
// GenSpec deterministically expands a seed into a protocol instance —
// system size at the paper's bounds, random inputs, a Byzantine roster
// and a link-fault pattern drawn from the requested Regime. The fault
// layer is seed-deterministic, so a failing seed is a complete bug
// report. internal/soak sweeps, shrinks and replays seeds at scale.
package simtest

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	bvc "relaxedbvc"
)

// Violation is one broken invariant in an otherwise-completed run.
type Violation struct {
	// Invariant is "termination", "validity" or "agreement".
	Invariant string
	// Process is the offending process id, or -1 for a global condition.
	Process int
	// Detail is a human-readable description.
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s[p%d]: %s", v.Invariant, v.Process, v.Detail)
}

// HonestIDs returns the process ids of spec not scripted in any of its
// Byzantine rosters, ascending.
func HonestIDs(spec bvc.Spec) []int {
	var ids []int
	for i := 0; i < spec.N; i++ {
		if _, ok := spec.Byzantine[i]; ok {
			continue
		}
		if _, ok := spec.ByzantineSigned[i]; ok && spec.SignedBroadcast {
			continue
		}
		if _, ok := spec.AsyncByzantine[i]; ok {
			continue
		}
		if _, ok := spec.IterByzantine[i]; ok {
			continue
		}
		if _, ok := spec.ACSByzantine[i]; ok {
			continue
		}
		ids = append(ids, i)
	}
	return ids
}

// NonFaultyInputs returns the multiset of honest processes' inputs.
func NonFaultyInputs(spec bvc.Spec) *bvc.PointSet {
	var pts []bvc.Vector
	for _, i := range HonestIDs(spec) {
		if i < len(spec.Inputs) {
			pts = append(pts, spec.Inputs[i])
		}
	}
	return bvc.NewPointSet(pts...)
}

// acsEpochs returns an ACS instance's epoch count: the proposal matrix
// depth, or the single Inputs epoch it falls back to.
func acsEpochs(spec bvc.Spec) int {
	if len(spec.Proposals) > 0 {
		return len(spec.Proposals)
	}
	return 1
}

// acsProposal returns process i's epoch-e proposal, or nil when the
// spec does not define it.
func acsProposal(spec bvc.Spec, e, i int) bvc.Vector {
	if len(spec.Proposals) > 0 {
		if e < len(spec.Proposals) && i < len(spec.Proposals[e]) {
			return spec.Proposals[e][i]
		}
		return nil
	}
	if e == 0 && i < len(spec.Inputs) {
		return spec.Inputs[i]
	}
	return nil
}

// specNorm returns the spec's relaxation norm (0 means 2).
func specNorm(spec bvc.Spec) float64 {
	if spec.NormP == 0 {
		return 2
	}
	return spec.NormP
}

// inputSpread returns the L-infinity diameter of the honest inputs.
func inputSpread(spec bvc.Spec) float64 {
	honest := HonestIDs(spec)
	worst := 0.0
	for a := 0; a < len(honest); a++ {
		for b := a + 1; b < len(honest); b++ {
			va, vb := spec.Inputs[honest[a]], spec.Inputs[honest[b]]
			for j := 0; j < va.Dim(); j++ {
				if d := math.Abs(va[j] - vb[j]); d > worst {
					worst = d
				}
			}
		}
	}
	return worst
}

// Check verifies one successful run against the paper's invariants for
// its protocol and returns every violation found (empty = clean run).
// The caller is responsible for classifying errors from Run itself; pass
// only a non-nil Result here.
func Check(spec bvc.Spec, res *bvc.Result) []Violation {
	var out []Violation
	add := func(inv string, proc int, format string, args ...any) {
		out = append(out, Violation{Invariant: inv, Process: proc, Detail: fmt.Sprintf(format, args...)})
	}
	honest := HonestIDs(spec)
	nonFaulty := NonFaultyInputs(spec)
	const tol = 1e-6 // geometric tolerance of the hull predicates

	// Termination: every honest process produced a decision.
	switch spec.Protocol {
	case bvc.ProtocolConvex:
		for _, i := range honest {
			if i >= len(res.Vertices) || len(res.Vertices[i]) == 0 {
				add("termination", i, "no agreed polytope")
			}
		}
	case bvc.ProtocolACS:
		// Totality: every honest process seals the whole epoch stream.
		epochs := acsEpochs(spec)
		for _, i := range honest {
			if i >= len(res.ACS) || len(res.ACS[i]) != epochs {
				got := 0
				if i < len(res.ACS) {
					got = len(res.ACS[i])
				}
				add("termination", i, "sealed %d epochs, want %d", got, epochs)
			}
		}
	default:
		for _, i := range honest {
			if i >= len(res.Outputs) || res.Outputs[i] == nil {
				add("termination", i, "never decided")
			}
		}
	}
	if len(out) > 0 {
		// Validity/agreement are meaningless on missing outputs.
		return out
	}

	// Validity, per protocol.
	switch spec.Protocol {
	case bvc.ProtocolExact, bvc.ProtocolScalar:
		for _, i := range honest {
			if !bvc.CheckExactValidity(res.Outputs[i], nonFaulty, tol) {
				add("validity", i, "output %v outside the non-faulty hull", res.Outputs[i])
			}
		}
	case bvc.ProtocolKRelaxed:
		for _, i := range honest {
			if !bvc.CheckKValidity(res.Outputs[i], nonFaulty, spec.K, tol) {
				add("validity", i, "output %v violates %d-relaxed validity", res.Outputs[i], spec.K)
			}
		}
	case bvc.ProtocolDeltaRelaxed:
		p := specNorm(spec)
		for _, i := range honest {
			if !bvc.CheckDeltaValidity(res.Outputs[i], nonFaulty, res.Delta[i], p, tol) {
				add("validity", i, "output %v outside the (%v,%v)-relaxed hull", res.Outputs[i], res.Delta[i], p)
			}
		}
	case bvc.ProtocolConvex:
		for _, i := range honest {
			if !bvc.CheckConvexValidity(res.Vertices[i], nonFaulty, tol) {
				add("validity", i, "polytope vertex outside the non-faulty hull")
			}
		}
	case bvc.ProtocolIterative:
		for _, i := range honest {
			if !bvc.CheckExactValidity(res.Outputs[i], nonFaulty, tol) {
				add("validity", i, "estimate %v left the non-faulty hull", res.Outputs[i])
			}
		}
		if n := len(res.RangeHistory); n > 1 && res.RangeHistory[n-1] > res.RangeHistory[0]+tol {
			add("validity", -1, "estimate range expanded: %v -> %v", res.RangeHistory[0], res.RangeHistory[n-1])
		}
	case bvc.ProtocolAsync:
		if spec.Mode == bvc.ModeExact {
			for _, i := range honest {
				if !bvc.CheckExactValidity(res.Outputs[i], nonFaulty, tol) {
					add("validity", i, "output %v outside the non-faulty hull", res.Outputs[i])
				}
			}
		} else {
			// Relaxed mode: outputs are averages of verified round-0
			// values, each within its process's delta of a witnessed hull;
			// the checkable guarantee is (maxDelta, p)-relaxed validity
			// with respect to every claimed round-0 value (honest inputs
			// plus whatever the Byzantine processes actually broadcast).
			claimed := make([]bvc.Vector, 0, spec.N)
			for i := 0; i < spec.N; i++ {
				v := spec.Inputs[i]
				if b, ok := spec.AsyncByzantine[i]; ok && b != nil && b.Input != nil {
					v = b.Input
				}
				claimed = append(claimed, v)
			}
			claimedSet := bvc.NewPointSet(claimed...)
			maxDelta := 0.0
			for _, i := range honest {
				if res.Delta[i] > maxDelta {
					maxDelta = res.Delta[i]
				}
			}
			p := specNorm(spec)
			for _, i := range honest {
				if !bvc.CheckDeltaValidity(res.Outputs[i], claimedSet, maxDelta, p, tol) {
					add("validity", i, "output %v outside the (%v,%v)-relaxed hull of the claimed values", res.Outputs[i], maxDelta, p)
				}
			}
		}
	case bvc.ProtocolK1Async:
		for _, i := range honest {
			if !bvc.CheckKValidity(res.Outputs[i], nonFaulty, 1, tol) {
				add("validity", i, "output %v violates 1-relaxed validity", res.Outputs[i])
			}
		}
	case bvc.ProtocolACS:
		p := specNorm(spec)
		for _, i := range honest {
			for e, ep := range res.ACS[i] {
				if ep.Epoch != e {
					add("validity", i, "epoch %d sealed out of order as %d", e, ep.Epoch)
					continue
				}
				if len(ep.Subset) < spec.N-spec.F {
					add("validity", i, "epoch %d subset %v below the n-f floor", e, ep.Subset)
				}
				if !sort.IntsAreSorted(ep.Subset) {
					add("validity", i, "epoch %d subset %v not ascending", e, ep.Subset)
				}
				if len(ep.Values) != len(ep.Subset) {
					add("validity", i, "epoch %d has %d values for %d slots", e, len(ep.Values), len(ep.Subset))
					continue
				}
				// Per-slot validity: an honest sender's agreed value is its
				// actual proposal (reliable broadcast forbids substitution).
				for k, s := range ep.Subset {
					if s < 0 || s >= spec.N {
						add("validity", i, "epoch %d subset slot %d out of range", e, s)
						continue
					}
					if _, byz := spec.ACSByzantine[s]; byz {
						continue
					}
					if want := acsProposal(spec, e, s); want != nil && !ep.Values[k].Equal(want) {
						add("validity", i, "epoch %d slot %d value %v != proposal %v", e, s, ep.Values[k], want)
					}
				}
				// Decision correctness: the sealed output is exactly the
				// public delta*_p kernel over the agreed values.
				delta, out, err := bvc.ComputeDeltaStar(bvc.NewPointSet(ep.Values...), spec.F, p)
				if err != nil {
					add("validity", i, "epoch %d kernel recompute failed: %v", e, err)
				} else if !out.Equal(ep.Output) || delta != ep.Delta {
					add("validity", i, "epoch %d decision (%v, %v) != kernel (%v, %v)", e, ep.Output, ep.Delta, out, delta)
				}
			}
		}
	}

	// Agreement.
	switch spec.Protocol {
	case bvc.ProtocolExact, bvc.ProtocolKRelaxed, bvc.ProtocolDeltaRelaxed, bvc.ProtocolScalar:
		if eps := bvc.AgreementError(res.Outputs, honest); eps > tol {
			add("agreement", -1, "honest outputs disagree by %v", eps)
		}
	case bvc.ProtocolConvex:
		for k := 1; k < len(honest); k++ {
			a, b := honest[0], honest[k]
			if !sameVertices(res.Vertices[a], res.Vertices[b], tol) {
				add("agreement", b, "polytope differs from process %d's", a)
			}
		}
	case bvc.ProtocolACS:
		// Agreement on the stream: every honest process seals the same
		// epochs with the same subsets, values and decisions, bit for bit.
		for k := 1; k < len(honest); k++ {
			a, b := honest[0], honest[k]
			if bvc.ACSFingerprint(res.ACS[a]) != bvc.ACSFingerprint(res.ACS[b]) {
				add("agreement", b, "decision stream differs from process %d's", a)
			}
		}
	case bvc.ProtocolAsync, bvc.ProtocolK1Async, bvc.ProtocolIterative:
		eps := bvc.AgreementError(res.Outputs, honest)
		if spread := inputSpread(spec); eps > spread+tol {
			add("agreement", -1, "output spread %v exceeds the honest input spread %v", eps, spread)
		}
		if n := len(res.RoundSpread); n > 1 && res.RoundSpread[n-1] > res.RoundSpread[0]+tol {
			add("agreement", -1, "round spread expanded: %v -> %v", res.RoundSpread[0], res.RoundSpread[n-1])
		}
	}
	return out
}

func sameVertices(a, b []bvc.Vector, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Dim() != b[i].Dim() {
			return false
		}
		for j := 0; j < a[i].Dim(); j++ {
			if math.Abs(a[i][j]-b[i][j]) > tol {
				return false
			}
		}
	}
	return true
}

// Report is the outcome of one checked run.
type Report struct {
	// Spec is the instance that ran.
	Spec bvc.Spec
	// Result is the run's outcome (nil when Err != nil).
	Result *bvc.Result
	// Err is the run's error, if any.
	Err error
	// Graceful reports that Err is a typed model-violation degradation
	// (wraps ErrDeliveryViolated): the fault pattern left the protocol's
	// delivery model and the run ended with a diagnostic instead of an
	// unguaranteed output. Not an invariant violation.
	Graceful bool
	// Violations are the invariants the run broke (successful runs only).
	Violations []Violation
	// Signature is a deterministic fingerprint of the outcome, used to
	// confirm replays reproduce the same failure.
	Signature string
}

// Failed reports whether the run is a genuine failure: an invariant
// violation or an untyped error.
func (r *Report) Failed() bool {
	return len(r.Violations) > 0 || (r.Err != nil && !r.Graceful)
}

// RunChecked executes spec and classifies the outcome.
func RunChecked(ctx context.Context, spec bvc.Spec) *Report {
	res, err := bvc.Run(ctx, spec)
	return Classify(spec, res, err)
}

// Classify turns one run of spec into a Report: an error is a graceful
// degradation when it wraps ErrDeliveryViolated, a completed run is
// checked against the invariants, and either way the outcome gets its
// replay signature. RunChecked and the soak workers both classify here.
func Classify(spec bvc.Spec, res *bvc.Result, err error) *Report {
	rep := &Report{Spec: spec, Result: res, Err: err}
	if err != nil {
		rep.Graceful = errors.Is(err, bvc.ErrDeliveryViolated)
	} else if res != nil {
		rep.Violations = Check(spec, res)
	}
	rep.Signature = signature(rep)
	return rep
}

// signature builds a deterministic outcome fingerprint: protocol, error
// text, violations, outputs and fault counters — everything that must
// reproduce under replay, nothing (wall time) that may not.
func signature(r *Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "proto=%s", r.Spec.Protocol)
	if r.Err != nil {
		fmt.Fprintf(&b, " err=%q", r.Err.Error())
	}
	for _, v := range r.Violations {
		fmt.Fprintf(&b, " viol=%q", v.String())
	}
	if res := r.Result; res != nil {
		fmt.Fprintf(&b, " outputs=%v delta=%v", res.Outputs, res.Delta)
		if len(res.ACS) > 0 {
			// Streaming runs: fold every node's full decision stream in.
			for i, eps := range res.ACS {
				if len(eps) > 0 {
					fmt.Fprintf(&b, " acs%d=%s", i, bvc.ACSFingerprint(eps)[:16])
				}
			}
		}
		if m := res.Metrics; m != nil {
			fmt.Fprintf(&b, " faults=[%d %d %d %d %d]",
				m.LinkDrops, m.LinkDuplicates, m.LinkDelays, m.Retransmits, m.PartitionHeals)
		}
	}
	return b.String()
}

// Fingerprint runs spec with a fresh trace recorder attached and returns
// a deterministic textual digest of everything observable about the run:
// outputs, deltas, the per-run metrics snapshot (wall time zeroed) and
// the full message transcript. Two runs of the same spec must produce
// byte-identical fingerprints — the deterministic-replay contract.
func Fingerprint(ctx context.Context, spec bvc.Spec) (string, error) {
	rec := bvc.NewTraceRecorder(1 << 17)
	prev := spec.Trace
	hook := rec.Hook()
	spec.Trace = func(m bvc.Message) {
		hook(m)
		if prev != nil {
			prev(m)
		}
	}
	res, err := bvc.Run(ctx, spec)
	var b strings.Builder
	fmt.Fprintf(&b, "proto=%s\n", spec.Protocol)
	if err != nil {
		fmt.Fprintf(&b, "err=%q\n", err.Error())
	}
	if res != nil {
		fmt.Fprintf(&b, "outputs=%v\ndelta=%v\nspread=%v\nrange=%v\n",
			res.Outputs, res.Delta, res.RoundSpread, res.RangeHistory)
		if res.Metrics != nil {
			m := *res.Metrics
			m.WallNanos = 0
			j, merr := json.Marshal(m)
			if merr != nil {
				return "", merr
			}
			fmt.Fprintf(&b, "metrics=%s\n", j)
		}
	}
	b.WriteString("transcript:\n")
	rec.Dump(&b, 0)
	if err != nil && !errors.Is(err, bvc.ErrDeliveryViolated) {
		return b.String(), err
	}
	return b.String(), nil
}
