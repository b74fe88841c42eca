// Package transport is the message plane of the library: a Transport
// moves typed, length-prefixed frames between node IDs, and RunCluster
// (cluster.go) drives every protocol's deterministic state machines —
// sched.SyncProcess values emitting sched.Outgoing and consuming
// sched.Message — unchanged on any of three planes:
//
//   - the deterministic simulation (default, and the fuzz substrate):
//     all n in one sched.SyncEngine, or in one sched.AsyncEngine under a
//     delivery schedule; seeded link faults, exact replay.
//   - Mesh (NewMesh): an in-process channel mesh, one goroutine per
//     node, real concurrency, no sockets — the race-detector backend.
//   - TCP (DialTCP): real sockets, writes on the caller's goroutine,
//     per-peer reconnect with exponential backoff, graceful draining
//     shutdown.
//
// Every error this package mints chains to ErrTransport, matchable with
// errors.Is across the facade (TestTransportErrorsChainRoot holds every
// sentinel to it; bvclint's errwrap bans ad-hoc errors at return sites).
package transport

import (
	"context"
	"errors"
	"fmt"
)

// Broadcast is the special destination meaning "all other nodes",
// mirroring sched.Broadcast.
const Broadcast = -1

// Typed error sentinels. ErrTransport is the root of the chain; every
// derived sentinel and every error minted in this package wraps it, so
// errors.Is(err, ErrTransport) identifies any message-plane failure.
var (
	// ErrTransport is the root sentinel of all message-plane failures.
	ErrTransport = errors.New("transport: message plane failure")
	// ErrClosed: the transport (or the addressed link) has been closed.
	ErrClosed = fmt.Errorf("%w: transport closed", ErrTransport)
	// ErrBadPeer: a frame addressed a node id outside [0, n) or a
	// config named an unknown/duplicate peer.
	ErrBadPeer = fmt.Errorf("%w: invalid peer", ErrTransport)
	// ErrFrameTooLarge: a frame exceeded the configured size limit
	// (send side) or a length prefix announced more than the limit
	// (receive side, where it shields against memory bombs).
	ErrFrameTooLarge = fmt.Errorf("%w: frame exceeds size limit", ErrTransport)
	// ErrBadFrame: bytes on the wire did not decode as a frame.
	ErrBadFrame = fmt.Errorf("%w: malformed frame", ErrTransport)
	// ErrLink: a per-link failure (dial, write, or handshake) on one
	// peer connection; the offending peer id is in the message.
	ErrLink = fmt.Errorf("%w: link failure", ErrTransport)
	// ErrUnsupported: the requested Spec/backend combination is not
	// implemented on this backend (e.g. seeded link faults outside the
	// simulation, or an asynchronous protocol over a real network).
	ErrUnsupported = fmt.Errorf("%w: not supported on this backend", ErrTransport)
)

// Frame is one typed message between node IDs. On stream backends it
// travels length-prefixed (see WriteFrame/ReadFrame); in-process
// backends pass it by value.
type Frame struct {
	// From and To are node ids in [0, n). Send fills From with the
	// local id; To may be Broadcast.
	From, To int
	// Round is the lockstep round the frame was sent in (-1 for the
	// pre-round Start sends), or a backend-defined sequence hint.
	Round int
	// Tag is the protocol-level message type (e.g. "eig"). Tags
	// beginning with '\x00' are reserved for transport control frames.
	Tag string
	// Data is the opaque payload.
	Data []byte
}

// Transport is one node's endpoint on the message plane.
//
// Send hands a frame to a peer (or all peers with To == Broadcast). On
// an idle link a stream backend writes it on the caller's goroutine, so
// Send blocks only as long as one write(2) takes, or while a down
// link's backlog is at its cap; otherwise the frame waits in a buffer
// for the write in flight or for the reconnect.
// Recv delivers the next incoming frame, honoring ctx cancellation.
// Close releases the endpoint; it drains queued outgoing frames before
// tearing links down, and subsequent Sends/Recvs fail with ErrClosed.
//
// Implementations must be safe for concurrent use.
type Transport interface {
	// Self is this node's id in [0, N).
	Self() int
	// N is the cluster size.
	N() int
	// Send transmits f (From is overwritten with Self).
	Send(f Frame) error
	// Recv returns the next delivered frame.
	Recv(ctx context.Context) (Frame, error)
	// Close shuts the endpoint down gracefully.
	Close() error
}

// Stats counts one endpoint's traffic (see Instrumented); RunCluster
// sums the local endpoints' into its result.
type Stats struct {
	// FramesSent and FramesReceived count data+control frames through
	// this endpoint.
	FramesSent, FramesReceived int64
	// BytesSent counts encoded payload bytes written to links.
	BytesSent int64
	// Reconnects counts re-established peer connections (TCP only).
	Reconnects int64
}

// Instrumented is implemented by backends that track per-endpoint
// traffic statistics.
type Instrumented interface {
	Stats() Stats
}

// route hands send one copy of f per destination, with From set to
// self: f.To, checked against the cluster, or every other node when
// f.To is Broadcast.
func route(f Frame, self, n int, send func(Frame) error) error {
	f.From = self
	if f.To != Broadcast {
		if err := checkPeer(f.To, self, n); err != nil {
			return err
		}
		return send(f)
	}
	for to := 0; to < n; to++ {
		if to == self {
			continue
		}
		f.To = to
		if err := send(f); err != nil {
			return err
		}
	}
	return nil
}

// checkPeer validates a destination id against the cluster size and
// the local id.
func checkPeer(to, self, n int) error {
	if to < 0 || to >= n {
		return fmt.Errorf("%w: destination %d outside [0,%d)", ErrBadPeer, to, n)
	}
	if to == self {
		return fmt.Errorf("%w: node %d addressed itself", ErrBadPeer, to)
	}
	return nil
}
