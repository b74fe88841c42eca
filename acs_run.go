package relaxedbvc

// ProtocolACS execution. The ACS node is a deterministic lockstep state
// machine (internal/acs), so transport.RunCluster drives the identical
// machine on every backend — the decision stream is bit-for-bit the
// same on all three, and ACSFingerprint is the parity predicate the
// cross-transport tests compare.

import (
	"context"
	"fmt"
	"math"

	"relaxedbvc/internal/acs"
	"relaxedbvc/internal/transport"
)

// ACSBehavior scripts one ACS node's adversary (Spec.ACSByzantine).
type ACSBehavior int

const (
	// ACSEquivocate proposes different values to different peers each
	// epoch; Bracha's echo quorum refuses to deliver the slot.
	ACSEquivocate ACSBehavior = iota
	// ACSMute crashes at start and never sends a message.
	ACSMute
)

// ACSEpoch is one sealed epoch of a process's decision stream.
type ACSEpoch struct {
	// Epoch is the epoch index; decisions commit strictly in order.
	Epoch int
	// Subset holds the agreed slot ids, ascending (at least N-F).
	Subset []int
	// Values are the subset's reliably-delivered proposals, in Subset
	// order.
	Values []Vector
	// Output and Delta are the epoch decision: the delta*_p minimizer
	// over Values with fault bound F.
	Output Vector
	Delta  float64
}

// ACSFingerprint digests a process's decision stream into a stable hex
// string; equal fingerprints mean bit-identical streams. Use it to
// compare runs across transports (bvcnode's -stream records carry it).
func ACSFingerprint(decisions []ACSEpoch) string {
	conv := make([]acs.EpochDecision, len(decisions))
	for i, d := range decisions {
		conv[i] = acs.EpochDecision{
			Epoch: d.Epoch, Subset: d.Subset, Values: d.Values,
			Output: d.Output, Delta: d.Delta,
		}
	}
	return acs.Fingerprint(conv)
}

// acsProposals resolves the proposal matrix: Spec.Proposals, or one
// epoch of Spec.Inputs.
func (s *Spec) acsProposals() [][]Vector {
	if len(s.Proposals) > 0 {
		return s.Proposals
	}
	if len(s.Inputs) > 0 {
		return [][]Vector{s.Inputs}
	}
	return nil
}

// validateACS checks the ACS instance shape with typed sentinels.
func validateACS(spec *Spec) ([][]Vector, error) {
	if spec.F < 1 {
		return nil, fmt.Errorf("%w: ACS needs f >= 1, got f=%d", ErrTooManyFaults, spec.F)
	}
	if spec.N < 3*spec.F+1 {
		return nil, fmt.Errorf("%w: ACS requires n >= 3f+1 (n=%d, f=%d)", ErrTooFewProcesses, spec.N, spec.F)
	}
	if err := acs.CheckProcesses(spec.N); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadInputs, err)
	}
	if spec.D < 1 {
		return nil, fmt.Errorf("%w: need d >= 1, got d=%d", ErrBadDimension, spec.D)
	}
	if len(spec.ACSByzantine) > spec.F {
		return nil, fmt.Errorf("%w: %d scripted ACS adversaries with f=%d", ErrTooManyFaults, len(spec.ACSByzantine), spec.F)
	}
	if p := spec.norm(); p < 1 || math.IsNaN(p) {
		return nil, fmt.Errorf("%w: p=%v (need p >= 1)", ErrBadNorm, p)
	}
	props := spec.acsProposals()
	if len(props) == 0 {
		return nil, fmt.Errorf("%w: no proposals (set Spec.Proposals or Spec.Inputs)", ErrBadInputs)
	}
	for e, row := range props {
		if len(row) != spec.N {
			return nil, fmt.Errorf("%w: epoch %d has %d proposals for n=%d", ErrBadInputs, e, len(row), spec.N)
		}
		// A nil entry means "proposed by another process" — legal on the
		// TCP backend, where each node knows only its own column; the node
		// constructor rejects a nil in the column it actually executes.
		for i, v := range row {
			if v != nil && len(v) != spec.D {
				return nil, fmt.Errorf("%w: epoch %d proposal %d has dimension %d, want %d", ErrBadInputs, e, i, len(v), spec.D)
			}
		}
	}
	return props, nil
}

// acsNode builds process i's state machine, its epoch kernels on lane.
func acsNode(spec *Spec, props [][]Vector, i int, lane *acs.Lane) (*acs.Node, error) {
	own := make([]Vector, len(props))
	for e := range props {
		own[e] = props[e][i]
	}
	behavior := acs.Honest
	if b, bad := spec.ACSByzantine[i]; bad {
		switch b {
		case ACSMute:
			behavior = acs.Mute
		default:
			behavior = acs.Equivocate
		}
	}
	return acs.NewNode(acs.Config{
		N: spec.N, F: spec.F, Self: i, D: spec.D,
		NormP:     spec.norm(),
		Proposals: own,
		Behavior:  behavior,
		Default:   spec.Default,
		Lane:      lane,
	})
}

// runACS executes the stream on plane: one acs.Node per local process
// under the lockstep driver, then each sealed stream copied out. The
// local nodes share one kernel lane, joined on every return path, so no
// kernel goroutine outlives the run and a kernel panic surfaces here.
func runACS(ctx context.Context, plane transport.Plane, spec *Spec) (*Result, error) {
	props, err := validateACS(spec)
	if err != nil {
		return nil, err
	}
	lane := acs.NewLane()
	defer lane.Wait()
	run, err := transport.RunCluster(ctx, plane, spec.N, nil, spec.Faults, spec.Trace, func(i int) (*acs.Node, error) {
		node, err := acsNode(spec, props, i, lane)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadInputs, err)
		}
		return node, nil
	})
	if err != nil {
		return nil, err
	}
	res := &Result{
		Protocol: ProtocolACS,
		Outputs:  make([]Vector, spec.N),
		Delta:    make([]float64, spec.N),
		ACS:      make([][]ACSEpoch, spec.N),
		Rounds:   run.Rounds,
		Messages: run.Messages,
		Metrics:  &RunMetrics{},
	}
	fillFaultMetrics(res.Metrics, run.Faults)
	fillTransportMetrics(res.Metrics, run.Stats)
	for _, i := range run.Local {
		fillACSNode(res, i, run.Machines[i])
	}
	fillACSStats(res, spec, run.Machines)
	return res, nil
}

// fillACSNode copies one node's sealed stream into the Result.
func fillACSNode(res *Result, i int, node *acs.Node) {
	decs := node.Decisions()
	out := make([]ACSEpoch, len(decs))
	for e, d := range decs {
		out[e] = ACSEpoch{
			Epoch: d.Epoch, Subset: d.Subset, Values: d.Values,
			Output: d.Output, Delta: d.Delta,
		}
	}
	res.ACS[i] = out
	if len(decs) > 0 {
		last := decs[len(decs)-1]
		res.Outputs[i] = last.Output
		res.Delta[i] = last.Delta
	}
}

// fillACSStats publishes the protocol counters of the first honest node
// that ran here (nodes is indexed by id, nil for a peer's).
func fillACSStats(res *Result, spec *Spec, nodes []*acs.Node) {
	for _, i := range spec.HonestIDs() {
		if nodes[i] == nil {
			continue
		}
		st := nodes[i].Stats()
		res.Metrics.ACSEpochs = st.Epochs
		res.Metrics.ACSSlots = st.Slots
		res.Metrics.ABARounds = st.ABARounds
		return
	}
}
