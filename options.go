package relaxedbvc

// Functional options for Run and the message-plane (transport)
// selection. The default backend is the deterministic simulation —
// bit-for-bit replayable, fault-injectable, and the substrate of every
// fuzz and parity test. The alternative backends run one consensus
// process per goroutine (mesh) or per OS process/machine (TCP); on all
// three the machines are driven by internal/transport's RunCluster,
// which reproduces the simulation's delivery semantics exactly, so a
// cluster decides the same vectors as the simulation of the same Spec.

import (
	"fmt"
	"net"

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
	// simulation backend provides (an asynchronous protocol, seeded link
	// faults) on a non-sim transport. It chains ErrTransport.
	ErrUnsupportedTransport = transport.ErrUnsupported
)

// TransportKind selects the message-plane backend of a Run.
type TransportKind int

const (
	// TransportSim is the deterministic in-process simulation (default):
	// every protocol, scripted adversaries, seeded link faults,
	// bit-for-bit replay.
	TransportSim = TransportKind(transport.PlaneSim)
	// TransportMesh runs one goroutine per process over an in-process
	// channel mesh — real concurrency (race-detector friendly), same
	// decisions as the simulation. Lockstep protocols only (see
	// WithTransport).
	TransportMesh = TransportKind(transport.PlaneMesh)
	// TransportTCP runs THIS process's node over real TCP sockets
	// against a peer set; each peer runs its own Run (or cmd/bvcnode).
	// Lockstep protocols only.
	TransportTCP = TransportKind(transport.PlaneTCP)
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
	transport Transport
	sink      func(*RunMetrics)
}

// Option customizes one Run call; build them with the With* helpers.
type Option func(*runOptions)

// WithTransport selects the message-plane backend (default: the
// deterministic simulation). Every protocol that is a set of lockstep
// machines runs on every backend — the synchronous protocols (oral or
// signed Step 1), ProtocolConvex, ProtocolIterative (RangeHistory is
// nil on TCP, where a node holds only its own estimate) and the
// streaming ProtocolACS; the asynchronous protocols and seeded link
// faults fail with ErrUnsupportedTransport. A Spec.Trace hook runs
// concurrently from every node's goroutine on the mesh and must be safe
// for concurrent use there.
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

// plane resolves the option into the driver's plane for spec, once per
// Run: the kinds map one to one. What spec cannot do off the simulation
// (a delivery schedule, seeded link faults) the driver refuses itself.
func (t *Transport) plane(spec *Spec) (transport.Plane, error) {
	plane := transport.Plane{Kind: transport.PlaneKind(t.Kind)}
	if t.Kind == TransportTCP {
		// The driver checks this too; here a peer map of the wrong size is
		// a bad input to Run, the sentinel the facade has always answered.
		if len(t.Peers) != spec.N {
			return plane, fmt.Errorf("%w: %d peers for n=%d", ErrBadInputs, len(t.Peers), spec.N)
		}
		plane.TCP = transport.TCPConfig{Self: t.Self, Peers: t.Peers, Listener: t.Listener, MaxFrame: t.MaxFrame}
	}
	return plane, nil
}
