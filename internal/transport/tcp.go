package transport

// The real-network backend: length-prefixed frames over TCP. Each node
// listens on its own address and keeps one outbound connection per
// peer, established lazily and re-established with exponential backoff
// after any dial or write failure. Inbound connections authenticate
// with a hello frame naming the sender id, then stream frames into the
// shared inbox through one buffered reader per connection. Close drains
// what is still unwritten (bounded by tcpDrainTimeout) before tearing
// links down, so a node that finishes a protocol and shuts down does
// not strand the final round's frames.
//
// Send checks a frame's encoded size against DefaultMaxFrame and
// rejects an oversize frame synchronously, then encodes it into its
// peer's buffer. On an idle link Send writes that buffer itself, on the
// caller's goroutine; while another write to the peer is in flight it
// only appends, and the writer in flight takes whatever piled up behind
// its write in one more write before it lets go, so coalescing adds no
// latency. A per-peer link goroutine only dials, redials, and flushes
// what accumulated while the link was down; direct writes wait for that
// flush, so no frame overtakes the backlog.
//
// Delivery is at-least-once across reconnects: a failed write is
// rewritten whole after the redial, so a peer that had already received
// part of it gets duplicates of those frames. That is inside the
// protocols' delivery model — the lockstep runner deduplicates its
// round bundles exactly — and matches the duplication tolerance the
// sim's fault layer already exercises.

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

// tcpInboxCap is the most inbound frames the inbox holds; readers stop
// reading once it is full, and senders' writes park in kernel buffers.
const tcpInboxCap = 1 << 13

// tcpQueueCap is the most unwritten frames a peer's buffer holds; Send
// blocks (backpressure) while it is full, as a down link's backlog fills.
const tcpQueueCap = 1 << 12

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
	inbox *fifo
	peers []*tcpPeer // indexed by id; nil at self

	closing   chan struct{}
	closeOnce sync.Once
	linkWG    sync.WaitGroup
	readerWG  sync.WaitGroup

	mu       sync.Mutex
	linkErrs map[int]error
	conns    map[net.Conn]struct{} // nil once Close has severed them

	framesSent atomic.Int64
	framesRecv atomic.Int64
	bytesSent  atomic.Int64
	reconnects atomic.Int64
}

type tcpPeer struct {
	id   int
	addr string
	kick chan struct{} // one slot: a down link has frames to flush

	mu     sync.Mutex
	cond   *sync.Cond // on mu; broadcast when buf is taken or a write ends
	conn   net.Conn   // nil while the link is down
	busy   bool       // a write to conn is in flight
	buf    []byte     // the frames encoded since the last write began
	frames int        // how many frames buf holds
	spare  []byte     // the other buffer, reused once its write is done

	connected bool // the link was up before: a dial is a reconnect (linkLoop only)
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
		inbox:    newFIFO(tcpInboxCap),
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
		p := &tcpPeer{id: id, addr: c.Peers[id], kick: make(chan struct{}, 1)}
		p.cond = sync.NewCond(&p.mu)
		t.peers[id] = p
		t.linkWG.Add(1)
		go t.linkLoop(p)
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

// Send implements Transport: it encodes f into the peer's buffer and,
// when the link is idle, writes it before returning (see the file
// comment). A frame that encodes to more than DefaultMaxFrame is
// rejected here with ErrFrameTooLarge.
func (t *TCP) Send(f Frame) error {
	if t.isClosing() {
		return fmt.Errorf("%w: node %d send after close", ErrClosed, t.self)
	}
	if size := encodedLen(&f); size > DefaultMaxFrame {
		return fmt.Errorf("%w: node %d send: %d-byte frame, limit %d", ErrFrameTooLarge, t.self, size, DefaultMaxFrame)
	}
	return route(f, t.self, t.n, t.enqueue)
}

// enqueue encodes f into its peer's buffer, then writes the buffer if
// the link is up and idle, or wakes linkLoop if the link is down.
func (t *TCP) enqueue(f Frame) error {
	p := t.peers[f.To]
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.frames >= tcpQueueCap {
		if t.isClosing() {
			return fmt.Errorf("%w: node %d closed mid-send", ErrClosed, t.self)
		}
		p.cond.Wait()
	}
	p.buf = appendStreamFrame(p.buf, &f)
	p.frames++
	t.framesSent.Add(1)
	tcpFramesSent.Inc()
	switch {
	case p.conn == nil:
		signal(p.kick)
	case !p.busy:
		p.busy = true
		t.drain(p)
	}
	return nil
}

func (t *TCP) isClosing() bool {
	select {
	case <-t.closing:
		return true
	default:
		return false
	}
}

// Recv implements Transport. Buffered frames stay receivable during
// shutdown until the inbox drains.
func (t *TCP) Recv(ctx context.Context) (Frame, error) {
	return t.inbox.recv(ctx, t.closing, t.self)
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
// immediately, the per-peer links flush what is unwritten (bounded by
// tcpDrainTimeout), then the listener and every connection close and all
// loops are joined.
func (t *TCP) Close() error {
	t.closeOnce.Do(func() { close(t.closing) })
	done := make(chan struct{})
	go func() {
		t.linkWG.Wait()
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
	t.conns = nil
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

// --- outbound: direct writes, and a per-peer link with reconnect/backoff ---

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

// connect dials p with exponential backoff until it succeeds, or
// deadline passes, or — when deadline is zero, since a drain outlives
// the close — the transport starts closing.
func (t *TCP) connect(p *tcpPeer, deadline time.Time) net.Conn {
	var stop <-chan struct{}
	if deadline.IsZero() {
		stop = t.closing
	}
	for backoff := tcpBackoffMin; ; backoff = min(2*backoff, tcpBackoffMax) {
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
		wait := backoff
		if !deadline.IsZero() {
			if wait = min(wait, time.Until(deadline)); wait <= 0 {
				return nil
			}
		}
		// A timer per retry, stopped on the way out: time.After would
		// keep each one alive for its full wait.
		retry := time.NewTimer(wait)
		select {
		case <-retry.C:
		case <-stop:
			retry.Stop()
			return nil
		}
	}
}

// drain writes p.buf, then whatever piled up behind each write, until
// nothing is left or a write fails; a failure takes the link down and
// hands every unwritten frame to linkLoop. The caller holds p.mu and has
// set p.busy; drain releases p.mu only around each write and clears
// p.busy before it returns.
func (t *TCP) drain(p *tcpPeer) {
	for len(p.buf) > 0 {
		out, frames, conn := p.buf, p.frames, p.conn
		p.buf, p.spare, p.frames = p.spare[:0], nil, 0
		p.cond.Broadcast()
		p.mu.Unlock()
		n, err := conn.Write(out)
		p.mu.Lock()
		if err != nil {
			t.setLinkErr(p.id, fmt.Errorf("%w: write %d->%d: %v", ErrLink, t.self, p.id, err))
			conn.Close() //nolint:errcheck // already failed
			// The whole batch goes again, ahead of what piled up behind it.
			p.conn, p.spare = nil, p.buf[:0]
			p.buf, p.frames = append(out, p.buf...), p.frames+frames
			signal(p.kick)
			break
		}
		p.spare = out[:0]
		t.bytesSent.Add(int64(n))
		tcpBytesSent.Add(int64(n))
	}
	p.busy = false
	p.cond.Broadcast()
}

// linkLoop connects p whenever frames wait on a down link, with
// backoff, and flushes them. Once the transport closes it flushes what
// is left, redialing until tcpDrainTimeout passes, then closes the
// link.
func (t *TCP) linkLoop(p *tcpPeer) {
	defer t.linkWG.Done()
	var deadline time.Time // zero until Close starts the drain
	for {
		if deadline.IsZero() {
			select {
			case <-p.kick:
			case <-t.closing:
				deadline = time.Now().Add(tcpDrainTimeout)
			}
		}
		p.mu.Lock()
		p.cond.Broadcast() // a Send waiting for room must see the close
		for p.busy {
			p.cond.Wait()
		}
		var conn net.Conn
		if p.conn == nil && len(p.buf) > 0 {
			p.mu.Unlock()
			conn = t.connect(p, deadline)
			p.mu.Lock()
		}
		if conn != nil {
			p.conn, p.busy = conn, true
			t.drain(p)
		} else if !deadline.IsZero() {
			if p.conn != nil {
				p.conn.Close() //nolint:errcheck // shutdown
				p.conn = nil
			}
			p.mu.Unlock()
			return
		}
		p.mu.Unlock()
	}
}

// --- inbound: accept + read loops ---

func (t *TCP) acceptLoop() {
	defer t.readerWG.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			if !t.isClosing() {
				t.setLinkErr(t.self, fmt.Errorf("%w: node %d accept: %v", ErrLink, t.self, err))
			}
			return
		}
		if t.track(conn) {
			t.readerWG.Add(1)
			go t.readLoop(conn)
		}
	}
}

// track registers an accepted connection for Close to sever. Once
// Close has severed the others it refuses, closing conn: Accept can
// still return a connection made just before the listener closed, and
// nothing would sever it later.
func (t *TCP) track(conn net.Conn) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.conns == nil {
		conn.Close() //nolint:errcheck // refused
		return false
	}
	t.conns[conn] = struct{}{}
	return true
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
			if !t.isClosing() {
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
		if !t.inbox.push(f, t.closing) {
			return
		}
	}
}
