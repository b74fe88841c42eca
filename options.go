package relaxedbvc

// Functional options for Run and the message-plane (transport)
// selection. The default backend is the deterministic simulation —
// bit-for-bit replayable, fault-injectable, and the substrate of every
// fuzz and parity test. The alternative backends run one consensus
// process per goroutine (mesh) or per OS process/machine (TCP) over
// internal/transport's lockstep runner, which reproduces the
// simulation's delivery semantics exactly; a cluster therefore decides
// the same vectors as the simulation of the same Spec.

import (
	"context"
	"fmt"
	"net"
	"sync"

	"relaxedbvc/internal/consensus"
	"relaxedbvc/internal/transport"
)

// Transport-level error sentinels, re-exported so errors.Is works
// across the API boundary.
var (
	// ErrTransport is the root sentinel of all message-plane failures
	// on the mesh and TCP backends (dial/write failures, malformed or
	// oversized frames, sends after close). The simulation backend
	// never returns it.
	ErrTransport = transport.ErrTransport
	// ErrUnsupportedTransport: the Spec asks for a feature only the
	// simulation backend provides (an asynchronous or iterative
	// protocol, signed broadcast, seeded link faults) on a non-sim
	// transport. It chains ErrTransport.
	ErrUnsupportedTransport = transport.ErrUnsupported
)

// TransportKind selects the message-plane backend of a Run.
type TransportKind int

const (
	// TransportSim is the deterministic in-process simulation (default):
	// every protocol, scripted adversaries, seeded link faults,
	// bit-for-bit replay.
	TransportSim TransportKind = iota
	// TransportMesh runs one goroutine per process over an in-process
	// channel mesh — real concurrency (race-detector friendly), same
	// decisions as the simulation. Synchronous oral-message protocols
	// only.
	TransportMesh
	// TransportTCP runs THIS process's node over real TCP sockets
	// against a peer set; each peer runs its own Run (or cmd/bvcnode).
	// Synchronous oral-message protocols only.
	TransportTCP
)

// String returns the kind's canonical name.
func (k TransportKind) String() string {
	switch k {
	case TransportSim:
		return "sim"
	case TransportMesh:
		return "mesh"
	case TransportTCP:
		return "tcp"
	}
	return fmt.Sprintf("transport(%d)", int(k))
}

// Transport configures the message plane of a Run (see WithTransport).
// The zero value selects the simulation.
type Transport struct {
	// Kind selects the backend.
	Kind TransportKind
	// Self is this process's node id (TransportTCP only; the mesh runs
	// all n nodes in-process).
	Self int
	// Peers maps every node id 0..n-1 (Self included) to its host:port
	// address (TransportTCP only).
	Peers map[int]string
	// Listener optionally supplies a pre-bound listener for
	// Peers[Self], letting tests bind ":0" first (TransportTCP only).
	Listener net.Listener
	// MaxFrame bounds frame sizes on the wire (0 = 1 MiB default;
	// TransportTCP only). A frame is one chunk of a lockstep round —
	// everything a node sends one peer in that round, split at 64 KiB —
	// not a single protocol message, so the bound must admit 64 KiB plus
	// the largest message; a round chunk above it fails the run with an
	// error chaining ErrTransport instead of being sent.
	MaxFrame int
}

// runOptions collects the effects of Run's functional options.
type runOptions struct {
	transport     Transport
	sink          func(*RunMetrics)
	kernelWorkers int
	setWorkers    bool
}

// Option customizes one Run call; build them with the With* helpers.
type Option func(*runOptions)

// WithTransport selects the message-plane backend (default: the
// deterministic simulation). Non-sim backends support the synchronous
// oral-message protocols (ProtocolDeltaRelaxed, ProtocolExact,
// ProtocolKRelaxed, ProtocolScalar) and the streaming ProtocolACS;
// anything else fails with ErrUnsupportedTransport. A Spec.Trace hook runs concurrently from
// every node's goroutine on non-sim backends and must be safe for
// concurrent use there.
func WithTransport(t Transport) Option {
	return func(o *runOptions) { o.transport = t }
}

// WithMetricsSink registers a callback that receives the run's final
// RunMetrics snapshot (the same object as Result.Metrics) after the
// run completes successfully. Use it to stream per-run observability
// into a collector without threading the Result around.
func WithMetricsSink(fn func(*RunMetrics)) Option {
	return func(o *runOptions) { o.sink = fn }
}

// WithKernelWorkers scopes a kernel worker budget (see
// SetKernelWorkers) to this Run call: the previous setting is restored
// when the run returns. The budget is process-wide while the run is in
// flight, so concurrent runs with different budgets race on the knob —
// prefer one setting per process, or this option on isolated runs.
func WithKernelWorkers(w int) Option {
	return func(o *runOptions) { o.kernelWorkers = w; o.setWorkers = true }
}

// syncChooser maps a Spec to the Step-2 choice function shared by the
// simulated and distributed paths, rejecting protocols that require
// the simulation backend.
func syncChooser(spec *Spec, cfg *consensus.SyncConfig) (consensus.Chooser, error) {
	switch spec.Protocol {
	case ProtocolDeltaRelaxed:
		return consensus.DeltaRelaxedChooser(cfg, spec.norm())
	case ProtocolExact:
		return consensus.ExactChooser(cfg), nil
	case ProtocolKRelaxed:
		return consensus.KRelaxedChooser(cfg, spec.K)
	case ProtocolScalar:
		return consensus.ScalarChooser(cfg)
	}
	return nil, fmt.Errorf("%w: protocol %s runs only on the simulation backend", ErrUnsupportedTransport, spec.Protocol)
}

// addTransportStats copies an endpoint's traffic counters into the
// run's metrics (summing across endpoints on the mesh).
func addTransportStats(m *RunMetrics, t transport.Transport) {
	if inst, ok := t.(transport.Instrumented); ok {
		st := inst.Stats()
		m.TransportFramesSent += st.FramesSent
		m.TransportFramesReceived += st.FramesReceived
		m.TransportReconnects += st.Reconnects
	}
}

// runMesh executes all n nodes of the instance concurrently over an
// in-process channel mesh and assembles the same Result shape as the
// simulation (identical Outputs/Delta/AgreedSet/Rounds/Messages for
// the same Spec).
func runMesh(ctx context.Context, spec *Spec) (*Result, error) {
	if spec.Protocol == ProtocolACS {
		return runMeshACS(ctx, spec)
	}
	cfg := spec.syncConfig()
	choose, err := syncChooser(spec, cfg)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	mesh := transport.NewMesh(spec.N)
	nodes := make([]*consensus.NodeResult, spec.N)
	errs := make([]error, spec.N)
	var wg sync.WaitGroup
	for i := 0; i < spec.N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			nodes[i], errs[i] = consensus.RunSyncNode(ctx, mesh.Node(i), cfg, choose)
			if errs[i] != nil {
				cancel() // unblock peers stuck at the round barrier
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < spec.N; i++ {
		mesh.Node(i).Close() //nolint:errcheck // mesh close cannot fail
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("mesh node %d: %w", i, err)
		}
	}
	res := &Result{
		Protocol:  spec.Protocol,
		Outputs:   make([]Vector, spec.N),
		Delta:     make([]float64, spec.N),
		AgreedSet: make([]*PointSet, spec.N),
		Metrics:   &RunMetrics{},
	}
	for i, nr := range nodes {
		res.Outputs[i] = nr.Output
		res.Delta[i] = nr.Delta
		res.AgreedSet[i] = nr.AgreedSet
		res.Rounds = nr.Rounds
		res.Messages += nr.Delivered
		res.Metrics.ByzantineDrops += nr.Drops
		res.Metrics.EIGTreeNodes += nr.TreeNodes
		addTransportStats(res.Metrics, mesh.Node(i))
	}
	return res, nil
}

// runTCP executes THIS process's node over real sockets. Only the
// local slices of the Result are filled (Outputs[Self], Delta[Self],
// AgreedSet[Self]); the peers each produce their own.
func runTCP(ctx context.Context, spec *Spec, tc *Transport) (*Result, error) {
	if spec.Protocol == ProtocolACS {
		return runTCPACS(ctx, spec, tc)
	}
	cfg := spec.syncConfig()
	choose, err := syncChooser(spec, cfg)
	if err != nil {
		return nil, err
	}
	if len(tc.Peers) != spec.N {
		return nil, fmt.Errorf("%w: %d peers for n=%d", ErrBadInputs, len(tc.Peers), spec.N)
	}
	tr, err := transport.DialTCP(transport.TCPConfig{
		Self:     tc.Self,
		Peers:    tc.Peers,
		Listener: tc.Listener,
		MaxFrame: tc.MaxFrame,
	})
	if err != nil {
		return nil, err
	}
	nr, runErr := consensus.RunSyncNode(ctx, tr, cfg, choose)
	closeErr := tr.Close()
	if runErr != nil {
		return nil, fmt.Errorf("tcp node %d: %w", tc.Self, runErr)
	}
	if closeErr != nil {
		return nil, fmt.Errorf("tcp node %d: close: %w", tc.Self, closeErr)
	}
	res := &Result{
		Protocol:  spec.Protocol,
		Outputs:   make([]Vector, spec.N),
		Delta:     make([]float64, spec.N),
		AgreedSet: make([]*PointSet, spec.N),
		Rounds:    nr.Rounds,
		Messages:  nr.Delivered,
		Metrics:   &RunMetrics{ByzantineDrops: nr.Drops, EIGTreeNodes: nr.TreeNodes},
	}
	res.Outputs[tc.Self] = nr.Output
	res.Delta[tc.Self] = nr.Delta
	res.AgreedSet[tc.Self] = nr.AgreedSet
	addTransportStats(res.Metrics, tr)
	return res, nil
}
