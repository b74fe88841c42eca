package consensus

// The distributed node layer: RunSyncNode executes ONE process of a
// synchronous consensus instance over a transport.Transport, while its
// peers run the same protocol in other goroutines, processes or
// machines. Step 1 is the same EIG state machine the simulation drives
// (broadcast.EIGNode), run in lockstep by transport.RunSync with
// delivery semantics identical to sched.SyncEngine; Step 2 applies a
// Chooser to the locally decided multiset. Deterministic state machines
// plus identical delivery order means a cluster of RunSyncNode calls
// decides bit-for-bit the same vectors as the simulation of the same
// instance — the facade's parity tests pin that equality.
//
// Only the oral-messages synchronous protocols run here: signed
// broadcast and seeded link faults are simulation-only features and
// return an error chaining transport.ErrUnsupported.

import (
	"context"
	"fmt"

	"relaxedbvc/internal/broadcast"
	"relaxedbvc/internal/transport"
	"relaxedbvc/internal/vec"
)

// NodeResult is the outcome of one node's distributed synchronous run —
// the per-process slice of the simulation's SyncResult plus local
// traffic statistics.
type NodeResult struct {
	// Output is this node's decision vector.
	Output vec.V
	// Delta is the relaxation radius used (ALGO only, else 0).
	Delta float64
	// AgreedSet is the multiset this node obtained from Step 1; honest
	// nodes of the same instance obtain identical multisets.
	AgreedSet *vec.Set
	// Rounds is the number of lockstep rounds (equal on all nodes and
	// to the simulation's Rounds for the same instance).
	Rounds int
	// Delivered counts the Step-1 messages delivered to this node,
	// FramesSent the round-bundle frames it sent (one per peer per
	// round; transport.SyncNodeStats).
	Delivered, FramesSent int
	// Drops counts sends suppressed by a scripted local Byzantine
	// behavior; TreeNodes is the local EIG tree size.
	Drops, TreeNodes int
}

// validateNode is the lenient, single-node counterpart of validate: a
// distributed node knows only its own input, so Inputs entries for
// other processes may be nil.
func (c *SyncConfig) validateNode(self int) error {
	if c.N < 2 {
		return fmt.Errorf("%w: n must be >= 2, got %d", ErrTooFewProcesses, c.N)
	}
	if self < 0 || self >= c.N {
		return fmt.Errorf("%w: self id %d outside [0,%d)", ErrBadInputs, self, c.N)
	}
	if c.F < 0 || c.F >= c.N || len(c.Byzantine) > c.F {
		return fmt.Errorf("%w: f=%d with n=%d and %d scripted behaviors", ErrTooManyFaults, c.F, c.N, len(c.Byzantine))
	}
	if len(c.Inputs) != c.N {
		return fmt.Errorf("%w: %d inputs for n=%d", ErrBadInputs, len(c.Inputs), c.N)
	}
	if c.Inputs[self] == nil {
		return fmt.Errorf("%w: node %d has no input", ErrBadInputs, self)
	}
	for i, v := range c.Inputs {
		if v != nil && v.Dim() != c.D {
			return fmt.Errorf("%w: input %d has dimension %d, want %d", ErrBadDimension, i, v.Dim(), c.D)
		}
	}
	if c.SignedBroadcast || len(c.ByzantineSigned) > 0 {
		return fmt.Errorf("%w: signed broadcast runs only on the simulation backend", transport.ErrUnsupported)
	}
	if c.Faults != nil {
		return fmt.Errorf("%w: seeded link faults run only on the simulation backend", transport.ErrUnsupported)
	}
	return nil
}

// RunSyncNode runs process tr.Self() of the synchronous instance cfg
// over tr, deciding with choose. It blocks until the whole cluster's
// Step 1 completes (every node must eventually run, or ctx must
// cancel). The transport is not closed — the caller owns its lifecycle.
func RunSyncNode(ctx context.Context, tr transport.Transport, cfg *SyncConfig, choose Chooser) (*NodeResult, error) {
	self := tr.Self()
	if tr.N() != cfg.N {
		errorsTotal.Inc()
		return nil, fmt.Errorf("%w: transport has %d nodes, config says n=%d", ErrBadInputs, tr.N(), cfg.N)
	}
	if err := cfg.validateNode(self); err != nil {
		errorsTotal.Inc()
		return nil, err
	}
	if err := canceled(ctx); err != nil {
		return nil, err
	}
	def := cfg.defaultVec()
	node := broadcast.NewEIGNode(cfg.N, cfg.F, self,
		broadcast.EncodeVec(cfg.Inputs[self]), cfg.Byzantine[self], broadcast.EncodeVec(def))
	st, err := transport.RunSync(ctx, tr, node, 0, cfg.Trace)
	if err != nil {
		errorsTotal.Inc()
		return nil, fmt.Errorf("consensus: node %d step 1: %w", self, err)
	}
	s := vec.NewSet()
	for c := 0; c < cfg.N; c++ {
		v, err := broadcast.DecodeVec(node.Decided()[c])
		if err != nil || v.Dim() != cfg.D {
			v = def.Clone()
		}
		s.Append(v)
	}
	if err := canceled(ctx); err != nil {
		return nil, err
	}
	out, delta, err := choose(s)
	if err != nil {
		errorsTotal.Inc()
		return nil, fmt.Errorf("consensus: node %d choice failed: %w", self, err)
	}
	return &NodeResult{
		Output:     out.Clone(),
		Delta:      delta,
		AgreedSet:  s,
		Rounds:     st.Rounds,
		Delivered:  st.Delivered,
		FramesSent: st.FramesSent,
		Drops:      node.Drops(),
		TreeNodes:  node.TreeNodes(),
	}, nil
}
