package transport

// The real-network backend: length-prefixed frames over TCP. Each node
// listens on its own address and keeps one outbound connection per
// peer, established lazily and re-established with exponential backoff
// after any dial or write failure. Inbound connections authenticate
// with a hello frame naming the sender id, then stream frames into the
// shared inbox through one buffered reader per connection. Close drains
// the outbound queues (bounded by tcpDrainTimeout) before tearing links
// down, so a node that finishes a protocol and shuts down does not
// strand the final round's frames.
//
// Send checks a frame's encoded size against DefaultMaxFrame and
// rejects an oversize frame synchronously, so the writers only ever see
// frames the peer will accept. A peer's writer encodes the frame it dequeued
// and every frame already queued behind it into one reused buffer and
// issues a single Write; it never waits for more frames, so coalescing
// adds no latency.
//
// Delivery is at-least-once across reconnects: a write error after the
// peer already received some of a batch leads to duplicates of those
// frames. That is inside the protocols' delivery model — the lockstep
// runner deduplicates its round bundles exactly — and matches the
// duplication tolerance the sim's fault layer already exercises.

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"relaxedbvc/internal/metrics"
)

// helloTag is the connection-opening control frame naming the dialing
// node; '\x00'-prefixed tags are reserved for the transport layer.
const helloTag = "\x00hello"

var (
	tcpFramesSent = metrics.DefaultCounter("transport_tcp_frames_sent_total")
	tcpFramesRecv = metrics.DefaultCounter("transport_tcp_frames_received_total")
	tcpBytesSent  = metrics.DefaultCounter("transport_tcp_bytes_sent_total")
	tcpReconnects = metrics.DefaultCounter("transport_tcp_reconnects_total")
	tcpLinkErrors = metrics.DefaultCounter("transport_tcp_link_errors_total")
)

// tcpInboxCap bounds buffered inbound frames; senders' writes park in
// kernel buffers once it fills.
const tcpInboxCap = 1 << 13

// tcpQueueCap bounds each outbound per-peer queue; Send blocks
// (backpressure) when a peer falls this far behind.
const tcpQueueCap = 1 << 12

// tcpBatchBytes is the encoded size past which a writer stops
// coalescing queued frames and writes what it has.
const tcpBatchBytes = 64 << 10

// tcpReadBuf sizes each connection's buffered reader: one read(2)
// fetches every frame of that size already in the socket, and a larger
// frame's payload is read straight into its own buffer.
const tcpReadBuf = 16 << 10

// Link timing. tcpDialTimeout bounds one connection attempt; redials
// back off exponentially from tcpBackoffMin to tcpBackoffMax; Close
// waits at most tcpDrainTimeout for queued outbound frames to flush.
const (
	tcpDialTimeout  = 5 * time.Second
	tcpBackoffMin   = 25 * time.Millisecond
	tcpBackoffMax   = 2 * time.Second
	tcpDrainTimeout = 5 * time.Second
)

// TCPConfig configures one node's TCP endpoint.
type TCPConfig struct {
	// Self is this node's id.
	Self int
	// Peers maps every node id (0..n-1, Self included) to its
	// host:port listen address.
	Peers map[int]string
	// Listener optionally supplies a pre-bound listener for
	// Peers[Self]; tests bind ":0" first to learn the port. When nil,
	// DialTCP listens on Peers[Self].
	Listener net.Listener
}

// TCP is one node's endpoint on a TCP cluster. Build with DialTCP.
type TCP struct {
	self int
	n    int

	ln    net.Listener
	inbox chan Frame
	peers []*tcpPeer // indexed by id; nil at self

	closing   chan struct{}
	closeOnce sync.Once
	writerWG  sync.WaitGroup
	readerWG  sync.WaitGroup

	mu       sync.Mutex
	linkErrs map[int]error
	conns    map[net.Conn]struct{}

	framesSent atomic.Int64
	framesRecv atomic.Int64
	bytesSent  atomic.Int64
	reconnects atomic.Int64
}

type tcpPeer struct {
	id    int
	addr  string
	queue chan Frame
	// connected records that this link has succeeded at least once, so
	// later re-establishments count as reconnects, and buf is the
	// encode buffer reused across batches. Only the peer's writeLoop
	// goroutine touches them.
	connected bool
	buf       []byte
}

// DialTCP opens node c.Self's endpoint: it listens on
// c.Peers[c.Self] (or c.Listener) immediately and connects to
// each peer lazily on first send, retrying with backoff until the peer
// is up — so cluster nodes may start in any order.
func DialTCP(c TCPConfig) (*TCP, error) {
	n := len(c.Peers)
	if n < 2 {
		return nil, fmt.Errorf("%w: need at least 2 peers, got %d", ErrBadPeer, n)
	}
	for id := 0; id < n; id++ {
		if _, ok := c.Peers[id]; !ok {
			return nil, fmt.Errorf("%w: peer ids must be contiguous 0..%d, missing %d", ErrBadPeer, n-1, id)
		}
	}
	if c.Self < 0 || c.Self >= n {
		return nil, fmt.Errorf("%w: self id %d outside [0,%d)", ErrBadPeer, c.Self, n)
	}
	t := &TCP{
		self:     c.Self,
		n:        n,
		inbox:    make(chan Frame, tcpInboxCap),
		peers:    make([]*tcpPeer, n),
		closing:  make(chan struct{}),
		linkErrs: make(map[int]error),
		conns:    make(map[net.Conn]struct{}),
	}
	if c.Listener != nil {
		t.ln = c.Listener
	} else {
		ln, err := net.Listen("tcp", c.Peers[c.Self])
		if err != nil {
			return nil, fmt.Errorf("%w: node %d listen %s: %v", ErrLink, c.Self, c.Peers[c.Self], err)
		}
		t.ln = ln
	}
	for id := 0; id < n; id++ {
		if id == t.self {
			continue
		}
		p := &tcpPeer{id: id, addr: c.Peers[id], queue: make(chan Frame, tcpQueueCap)}
		t.peers[id] = p
		t.writerWG.Add(1)
		go t.writeLoop(p)
	}
	t.readerWG.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Self implements Transport.
func (t *TCP) Self() int { return t.self }

// N implements Transport.
func (t *TCP) N() int { return t.n }

// Addr returns the bound listen address (useful with ":0").
func (t *TCP) Addr() string { return t.ln.Addr().String() }

// Send implements Transport: it enqueues f on the peer's outbound
// queue (blocking for backpressure) and returns once queued; the
// per-peer writer flushes asynchronously with reconnect. A frame that
// encodes to more than DefaultMaxFrame is rejected here with
// ErrFrameTooLarge.
func (t *TCP) Send(f Frame) error {
	select {
	case <-t.closing:
		return fmt.Errorf("%w: node %d send after close", ErrClosed, t.self)
	default:
	}
	if size := encodedLen(&f); size > DefaultMaxFrame {
		return fmt.Errorf("%w: node %d send: %d-byte frame, limit %d", ErrFrameTooLarge, t.self, size, DefaultMaxFrame)
	}
	f.From = t.self
	if f.To == Broadcast {
		for to := 0; to < t.n; to++ {
			if to == t.self {
				continue
			}
			df := f
			df.To = to
			if err := t.enqueue(df); err != nil {
				return err
			}
		}
		return nil
	}
	if err := checkPeer(f.To, t.self, t.n); err != nil {
		return err
	}
	return t.enqueue(f)
}

func (t *TCP) enqueue(f Frame) error {
	p := t.peers[f.To]
	select {
	case p.queue <- f:
		t.framesSent.Add(1)
		tcpFramesSent.Inc()
		return nil
	case <-t.closing:
		return fmt.Errorf("%w: node %d closed mid-send", ErrClosed, t.self)
	}
}

// Recv implements Transport. Buffered frames stay receivable during
// shutdown until the inbox drains.
func (t *TCP) Recv(ctx context.Context) (Frame, error) {
	select {
	case f := <-t.inbox:
		return f, nil
	default:
	}
	select {
	case f := <-t.inbox:
		return f, nil
	case <-t.closing:
		return Frame{}, fmt.Errorf("%w: node %d recv after close", ErrClosed, t.self)
	case <-ctx.Done():
		return Frame{}, fmt.Errorf("%w: recv: %w", ErrTransport, ctx.Err())
	}
}

// LinkError reports the most recent failure on the link to peer (nil
// when the link has never failed). Errors chain ErrLink/ErrTransport.
func (t *TCP) LinkError(peer int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.linkErrs[peer]
}

// Stats implements Instrumented.
func (t *TCP) Stats() Stats {
	return Stats{
		FramesSent:     t.framesSent.Load(),
		FramesReceived: t.framesRecv.Load(),
		BytesSent:      t.bytesSent.Load(),
		Reconnects:     t.reconnects.Load(),
	}
}

// Close shuts the endpoint down gracefully: new Sends fail
// immediately, the per-peer writers flush their queues (bounded by
// tcpDrainTimeout), then the listener and every connection close and all
// loops are joined.
func (t *TCP) Close() error {
	t.closeOnce.Do(func() { close(t.closing) })
	done := make(chan struct{})
	go func() {
		t.writerWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(tcpDrainTimeout + time.Second):
	}
	t.ln.Close() //nolint:errcheck // already closing
	t.mu.Lock()
	for conn := range t.conns {
		conn.Close() //nolint:errcheck // already closing
	}
	t.mu.Unlock()
	t.readerWG.Wait()
	return nil
}

func (t *TCP) setLinkErr(peer int, err error) {
	tcpLinkErrors.Inc()
	t.mu.Lock()
	t.linkErrs[peer] = err
	t.mu.Unlock()
}

// --- outbound: per-peer writer with reconnect/backoff ---

// dial attempts one connection + hello handshake to p.
func (t *TCP) dial(p *tcpPeer) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", p.addr, tcpDialTimeout)
	if err != nil {
		return nil, fmt.Errorf("%w: dial %d->%d (%s): %v", ErrLink, t.self, p.id, p.addr, err)
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true) //nolint:errcheck // best-effort latency knob
	}
	hello := Frame{From: t.self, To: p.id, Round: -1, Tag: helloTag}
	if _, err := WriteFrame(conn, &hello); err != nil {
		conn.Close() //nolint:errcheck // dial failed anyway
		return nil, fmt.Errorf("%w: hello %d->%d: %v", ErrLink, t.self, p.id, err)
	}
	return conn, nil
}

// connect dials p with exponential backoff until it succeeds, the
// transport starts closing, or the optional deadline passes.
func (t *TCP) connect(p *tcpPeer, deadline time.Time) net.Conn {
	backoff := tcpBackoffMin
	// One timer reused across attempts: time.After here would allocate
	// a fresh timer per retry, each alive until its full backoff
	// elapses even after the connection succeeds.
	var retry *time.Timer
	defer func() {
		if retry != nil {
			retry.Stop()
		}
	}()
	for {
		if !deadline.IsZero() && time.Now().After(deadline) {
			return nil
		}
		conn, err := t.dial(p)
		if err == nil {
			if p.connected {
				t.reconnects.Add(1)
				tcpReconnects.Inc()
			}
			p.connected = true
			return conn
		}
		t.setLinkErr(p.id, err)
		if retry == nil {
			retry = time.NewTimer(backoff)
		} else {
			if !retry.Stop() {
				select {
				case <-retry.C:
				default:
				}
			}
			retry.Reset(backoff)
		}
		select {
		case <-t.closing:
			// Keep trying only while draining with a deadline; a plain
			// close abandons the link.
			if deadline.IsZero() {
				return nil
			}
		case <-retry.C:
		}
		if backoff *= 2; backoff > tcpBackoffMax {
			backoff = tcpBackoffMax
		}
	}
}

// writeBatch encodes first and every frame already queued behind it
// (up to tcpBatchBytes) into p.buf and writes the batch to p,
// reconnecting and rewriting the whole batch on failure until it is
// written or the deadline/closing applies. It returns the live
// connection (nil when the batch had to be dropped).
func (t *TCP) writeBatch(p *tcpPeer, conn net.Conn, first Frame, deadline time.Time) net.Conn {
	p.buf = appendStreamFrame(p.buf[:0], &first)
coalesce:
	for len(p.buf) < tcpBatchBytes {
		select {
		case f := <-p.queue:
			p.buf = appendStreamFrame(p.buf, &f)
		default:
			break coalesce
		}
	}
	for {
		if conn == nil {
			conn = t.connect(p, deadline)
			if conn == nil {
				return nil
			}
		}
		n, err := conn.Write(p.buf)
		if err == nil {
			t.bytesSent.Add(int64(n))
			tcpBytesSent.Add(int64(n))
			return conn
		}
		t.setLinkErr(p.id, fmt.Errorf("%w: write %d->%d: %v", ErrLink, t.self, p.id, err))
		conn.Close() //nolint:errcheck // already failed
		conn = nil
		select {
		case <-t.closing:
			if deadline.IsZero() {
				return nil
			}
			if time.Now().After(deadline) {
				return nil
			}
		default:
		}
	}
}

func (t *TCP) writeLoop(p *tcpPeer) {
	defer t.writerWG.Done()
	var conn net.Conn
	defer func() {
		if conn != nil {
			conn.Close() //nolint:errcheck // shutdown
		}
	}()
	for {
		select {
		case f := <-p.queue:
			conn = t.writeBatch(p, conn, f, time.Time{})
		case <-t.closing:
			// Drain what is already queued, bounded by tcpDrainTimeout, so
			// the final round of a finished protocol reaches the peer.
			deadline := time.Now().Add(tcpDrainTimeout)
			for {
				select {
				case f := <-p.queue:
					conn = t.writeBatch(p, conn, f, deadline)
				default:
					return
				}
			}
		}
	}
}

// --- inbound: accept + read loops ---

func (t *TCP) acceptLoop() {
	defer t.readerWG.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			select {
			case <-t.closing:
			default:
				t.setLinkErr(t.self, fmt.Errorf("%w: node %d accept: %v", ErrLink, t.self, err))
			}
			return
		}
		t.mu.Lock()
		t.conns[conn] = struct{}{}
		t.mu.Unlock()
		t.readerWG.Add(1)
		go t.readLoop(conn)
	}
}

func (t *TCP) readLoop(conn net.Conn) {
	defer t.readerWG.Done()
	defer func() {
		conn.Close() //nolint:errcheck // read side done
		t.mu.Lock()
		delete(t.conns, conn)
		t.mu.Unlock()
	}()
	br := bufio.NewReaderSize(conn, tcpReadBuf)
	hello, err := ReadFrame(br)
	if err != nil || hello.Tag != helloTag || hello.From < 0 || hello.From >= t.n || hello.From == t.self {
		// Not a cluster peer (or a broken handshake): drop the
		// connection without poisoning a link slot.
		return
	}
	peer := hello.From
	for {
		f, err := ReadFrame(br)
		if err != nil {
			select {
			case <-t.closing:
			default:
				t.setLinkErr(peer, fmt.Errorf("%w: read %d->%d: %v", ErrLink, peer, t.self, err))
			}
			return
		}
		if f.Tag == helloTag {
			continue
		}
		f.From = peer // trust the handshake, not the frame header
		t.framesRecv.Add(1)
		tcpFramesRecv.Inc()
		select {
		case t.inbox <- f:
		case <-t.closing:
			return
		}
	}
}
