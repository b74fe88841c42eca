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
			inbox:  newFIFO(0),
			closed: make(chan struct{}),
		}
	}
	return m
}

// Node returns endpoint i of the mesh.
func (m *Mesh) Node(i int) Transport { return m.nodes[i] }

// fifo is an endpoint's inbox: frames in arrival order, in a slice
// that grows only with what is pending. RunSync sends a node's whole
// round before it receives anything, so with every node sending at once
// a bound below what two rounds put in flight would block every sender
// on a receiver that is itself still sending. A round is one bundle per
// peer, split every bundleCap bytes, so the mesh sets no bound (limit
// 0), and a TCP endpoint's, which stops a flooding peer, sits far above.
type fifo struct {
	mu    sync.Mutex
	q     []Frame // q[head:] is pending
	head  int
	limit int // push waits while this many frames are pending
	// wake holds a token whenever q may be non-empty, room one whenever
	// it may have fallen below limit; push and pop refill them.
	wake, room chan struct{}
}

func newFIFO(limit int) *fifo {
	return &fifo{limit: limit, wake: make(chan struct{}, 1), room: make(chan struct{}, 1)}
}

// signal leaves a token in a one-slot channel unless one is there.
func signal(c chan struct{}) {
	select {
	case c <- struct{}{}:
	default:
	}
}

// push appends f, first waiting while limit frames are pending; it
// gives up, returning false, once stop is closed.
func (q *fifo) push(f Frame, stop <-chan struct{}) bool {
	q.mu.Lock()
	for q.limit > 0 && len(q.q)-q.head >= q.limit {
		q.mu.Unlock()
		select {
		case <-q.room:
		case <-stop:
			return false
		}
		q.mu.Lock()
	}
	if len(q.q) == cap(q.q) && q.head > len(q.q)/2 {
		// Reclaim the consumed prefix instead of growing; waiting until
		// it is over half the slice keeps the copying amortized O(1).
		n := copy(q.q, q.q[q.head:])
		clear(q.q[n:])
		q.q, q.head = q.q[:n], 0
	}
	q.q = append(q.q, f)
	q.mu.Unlock()
	signal(q.wake)
	return true
}

func (q *fifo) pop() (Frame, bool) {
	q.mu.Lock()
	if q.head == len(q.q) {
		q.mu.Unlock()
		return Frame{}, false
	}
	f := q.q[q.head]
	q.q[q.head] = Frame{} // drop the payload reference
	q.head++
	more := q.head < len(q.q)
	if !more {
		q.q, q.head = q.q[:0], 0
	}
	q.mu.Unlock()
	if more {
		signal(q.wake) // a concurrent recv may be parked on wake
	}
	signal(q.room)
	return f, true
}

// recv returns the next frame, waiting for one until closed is closed
// or ctx ends; frames already pending stay receivable after closed
// until the queue drains.
func (q *fifo) recv(ctx context.Context, closed <-chan struct{}, self int) (Frame, error) {
	for {
		if f, ok := q.pop(); ok {
			return f, nil
		}
		select {
		case <-q.wake:
		case <-closed:
			return Frame{}, fmt.Errorf("%w: node %d recv after close", ErrClosed, self)
		case <-ctx.Done():
			return Frame{}, fmt.Errorf("%w: recv: %w", ErrTransport, ctx.Err())
		}
	}
}

type meshNode struct {
	mesh  *Mesh
	self  int
	inbox *fifo

	closed    chan struct{}
	closeOnce sync.Once
	sent      atomic.Int64
	received  atomic.Int64
}

func (t *meshNode) Self() int { return t.self }
func (t *meshNode) N() int    { return len(t.mesh.nodes) }

// Send appends f to the recipient inbox(es); it never blocks. Sending
// to a closed peer fails with a per-link error chaining ErrClosed;
// sending from a closed endpoint fails likewise.
func (t *meshNode) Send(f Frame) error {
	select {
	case <-t.closed:
		return fmt.Errorf("%w: node %d send after close", ErrClosed, t.self)
	default:
	}
	return route(f, t.self, t.N(), t.deliver)
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
	peer.inbox.push(f, nil)
	t.sent.Add(1)
	meshFrames.Inc()
	return nil
}

// Recv returns the next frame delivered to this node. Frames already
// buffered remain receivable after Close until the buffer drains.
func (t *meshNode) Recv(ctx context.Context) (Frame, error) {
	f, err := t.inbox.recv(ctx, t.closed, t.self)
	if err == nil {
		t.received.Add(1)
	}
	return f, err
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
