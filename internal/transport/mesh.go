package transport

// The in-process mesh: n endpoints, each with an unbounded FIFO inbox.
// No sockets, no serialization — frames pass by value — but real
// goroutine concurrency, which makes it the backend of choice for
// running cluster tests under the race detector and for multi-node runs
// inside one process (the facade's mesh dispatch).

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"relaxedbvc/internal/metrics"
)

var meshFrames = metrics.DefaultCounter("transport_mesh_frames_total")

// Mesh is a cluster of in-process Transports. Build one with NewMesh
// and hand Node(i) to each node's goroutine.
type Mesh struct {
	nodes []*meshNode
}

// NewMesh wires a fully-connected n-node mesh.
func NewMesh(n int) *Mesh {
	m := &Mesh{nodes: make([]*meshNode, n)}
	for i := range m.nodes {
		m.nodes[i] = &meshNode{
			mesh:   m,
			self:   i,
			wake:   make(chan struct{}, 1),
			closed: make(chan struct{}),
		}
	}
	return m
}

// Node returns endpoint i of the mesh.
func (m *Mesh) Node(i int) Transport { return m.nodes[i] }

// meshNode's inbox is unbounded because RunSync sends a node's whole
// round before it receives anything: with every node sending at once,
// any fixed capacity below the largest round (over 4 500 frames per
// inbox in the last EIG relay round at n=10 f=3) blocks every sender on
// a receiver that is itself still sending.
type meshNode struct {
	mesh *Mesh
	self int

	mu    sync.Mutex
	inbox []Frame // FIFO: inbox[head:] is pending
	head  int
	// wake holds a token whenever the inbox may be non-empty; one slot
	// suffices because push and pop both refill it.
	wake chan struct{}

	closed    chan struct{}
	closeOnce sync.Once
	sent      atomic.Int64
	received  atomic.Int64
}

func (t *meshNode) Self() int { return t.self }
func (t *meshNode) N() int    { return len(t.mesh.nodes) }

func (t *meshNode) signal() {
	select {
	case t.wake <- struct{}{}:
	default:
	}
}

func (t *meshNode) push(f Frame) {
	t.mu.Lock()
	if len(t.inbox) == cap(t.inbox) && t.head > len(t.inbox)/2 {
		// Reclaim the consumed prefix instead of growing; waiting until
		// it is over half the slice keeps the copying amortized O(1).
		n := copy(t.inbox, t.inbox[t.head:])
		clear(t.inbox[n:])
		t.inbox, t.head = t.inbox[:n], 0
	}
	t.inbox = append(t.inbox, f)
	t.mu.Unlock()
	t.signal()
}

func (t *meshNode) pop() (Frame, bool) {
	t.mu.Lock()
	if t.head == len(t.inbox) {
		t.mu.Unlock()
		return Frame{}, false
	}
	f := t.inbox[t.head]
	t.inbox[t.head] = Frame{} // drop the payload reference
	t.head++
	more := t.head < len(t.inbox)
	if !more {
		t.inbox, t.head = t.inbox[:0], 0
	}
	t.mu.Unlock()
	if more {
		t.signal() // a concurrent Recv may be parked on wake
	}
	return f, true
}

// Send appends f to the recipient inbox(es); it never blocks. Sending
// to a closed peer fails with a per-link error chaining ErrClosed;
// sending from a closed endpoint fails likewise.
func (t *meshNode) Send(f Frame) error {
	select {
	case <-t.closed:
		return fmt.Errorf("%w: node %d send after close", ErrClosed, t.self)
	default:
	}
	f.From = t.self
	if f.To == Broadcast {
		for to := range t.mesh.nodes {
			if to == t.self {
				continue
			}
			df := f
			df.To = to
			if err := t.deliver(df); err != nil {
				return err
			}
		}
		return nil
	}
	if err := checkPeer(f.To, t.self, t.N()); err != nil {
		return err
	}
	return t.deliver(f)
}

func (t *meshNode) deliver(f Frame) error {
	peer := t.mesh.nodes[f.To]
	select {
	case <-peer.closed:
		return fmt.Errorf("%w: link %d->%d: peer closed", ErrClosed, t.self, f.To)
	case <-t.closed:
		return fmt.Errorf("%w: node %d closed mid-send", ErrClosed, t.self)
	default:
	}
	peer.push(f)
	t.sent.Add(1)
	meshFrames.Inc()
	return nil
}

// Recv returns the next frame delivered to this node. Frames already
// buffered remain receivable after Close until the buffer drains.
func (t *meshNode) Recv(ctx context.Context) (Frame, error) {
	for {
		if f, ok := t.pop(); ok {
			t.received.Add(1)
			return f, nil
		}
		select {
		case <-t.wake:
		case <-t.closed:
			return Frame{}, fmt.Errorf("%w: node %d recv after close", ErrClosed, t.self)
		case <-ctx.Done():
			return Frame{}, fmt.Errorf("%w: recv: %w", ErrTransport, ctx.Err())
		}
	}
}

// Close marks the endpoint closed. Peers' later Sends to this node fail
// with a link error; this node's buffered frames stay receivable until
// the inbox drains.
func (t *meshNode) Close() error {
	t.closeOnce.Do(func() { close(t.closed) })
	return nil
}

// Stats implements Instrumented.
func (t *meshNode) Stats() Stats {
	return Stats{FramesSent: t.sent.Load(), FramesReceived: t.received.Load()}
}
