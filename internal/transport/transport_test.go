package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"relaxedbvc/internal/broadcast"
	"relaxedbvc/internal/vec"
)

// --- frame codec ---

func TestFrameRoundTrip(t *testing.T) {
	v := vec.New(3)
	v[0], v[1], v[2] = 1.5, -2.25, 1e-300
	cases := []Frame{
		{From: 0, To: 1, Round: 0, Tag: "eig", Data: []byte("payload")},
		{From: 2, To: Broadcast, Round: -1, Tag: roundTag, Data: []byte{bundleLast, 0, 0, 0, 0}},
		{From: 65535, To: 0, Round: 1<<31 - 1, Tag: ""},
		{From: 1, To: 3, Round: 7, Tag: "vec", Data: broadcast.EncodeVec(v)},
	}
	for _, want := range cases {
		b := EncodeFrame(&want)
		got, err := DecodeFrame(b)
		if err != nil {
			t.Fatalf("decode %+v: %v", want, err)
		}
		if got.From != want.From || got.To != want.To || got.Round != want.Round || got.Tag != want.Tag || !bytes.Equal(got.Data, want.Data) {
			t.Errorf("round trip: got %+v, want %+v", got, want)
		}
	}
	// The vector payload survives the frame path bit-for-bit.
	f := cases[3]
	decoded, err := DecodeFrame(EncodeFrame(&f))
	if err != nil {
		t.Fatal(err)
	}
	got, err := broadcast.DecodeVec(decoded.Data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range v {
		if got[i] != v[i] {
			t.Errorf("coordinate %d: got %v, want %v", i, got[i], v[i])
		}
	}
}

func TestDecodeFrameRejectsMalformed(t *testing.T) {
	valid := EncodeFrame(&Frame{From: 0, To: 1, Tag: "eig", Data: []byte("abc")})
	cases := map[string][]byte{
		"short header":   valid[:frameHeaderLen-2],
		"truncated data": valid[:len(valid)-1],
		"trailing bytes": append(valid[:len(valid):len(valid)], 0x00),
	}
	for name, b := range cases {
		if _, err := DecodeFrame(b); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: err = %v, want ErrBadFrame", name, err)
		}
	}
}

func TestWriteFrameTooLarge(t *testing.T) {
	var buf bytes.Buffer
	f := Frame{To: 1, Tag: "eig", Data: make([]byte, DefaultMaxFrame)}
	_, err := WriteFrame(&buf, &f)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("oversized frame wrote %d bytes; stream framing is broken", buf.Len())
	}
}

func TestReadFrameStream(t *testing.T) {
	var buf bytes.Buffer
	frames := []Frame{
		{From: 0, To: 1, Round: 0, Tag: "eig", Data: []byte("a")},
		{From: 0, To: 1, Round: 1, Tag: "eig", Data: []byte("bb")},
	}
	for i := range frames {
		if _, err := WriteFrame(&buf, &frames[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := range frames {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Round != frames[i].Round || !bytes.Equal(got.Data, frames[i].Data) {
			t.Errorf("frame %d: got %+v, want %+v", i, got, frames[i])
		}
	}
	// Clean EOF at a frame boundary surfaces io.EOF through ErrTransport.
	_, err := ReadFrame(&buf)
	if !errors.Is(err, io.EOF) || !errors.Is(err, ErrTransport) {
		t.Fatalf("err = %v, want io.EOF chained under ErrTransport", err)
	}
}

func TestReadFrameOversizedPrefix(t *testing.T) {
	// 4 GiB announced, and one byte past the limit: both must fail
	// before allocating the buffer.
	for _, prefix := range [][]byte{{0xFF, 0xFF, 0xFF, 0xFF}, binary.BigEndian.AppendUint32(nil, DefaultMaxFrame+1)} {
		if _, err := ReadFrame(bytes.NewReader(prefix)); !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("prefix %x: err = %v, want ErrFrameTooLarge", prefix, err)
		}
	}
}

// --- in-process mesh ---

func TestMeshUnicastAndBroadcast(t *testing.T) {
	m := NewMesh(3)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	if err := m.Node(0).Send(Frame{To: 1, Round: 0, Tag: "eig", Data: []byte("uni")}); err != nil {
		t.Fatal(err)
	}
	f, err := m.Node(1).Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if f.From != 0 || f.To != 1 || string(f.Data) != "uni" {
		t.Fatalf("unicast delivered %+v", f)
	}

	if err := m.Node(2).Send(Frame{To: Broadcast, Round: 1, Tag: "eig", Data: []byte("all")}); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 1} {
		f, err := m.Node(i).Recv(ctx)
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		if f.From != 2 || f.To != i || string(f.Data) != "all" {
			t.Fatalf("node %d got %+v", i, f)
		}
	}
}

func TestMeshPeerValidation(t *testing.T) {
	m := NewMesh(2)
	if err := m.Node(0).Send(Frame{To: 5}); !errors.Is(err, ErrBadPeer) {
		t.Errorf("out of range: err = %v, want ErrBadPeer", err)
	}
	if err := m.Node(0).Send(Frame{To: 0}); !errors.Is(err, ErrBadPeer) {
		t.Errorf("self-send: err = %v, want ErrBadPeer", err)
	}
}

func TestMeshClose(t *testing.T) {
	m := NewMesh(2)
	if err := m.Node(1).Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Node(0).Send(Frame{To: 1, Tag: "eig"}); !errors.Is(err, ErrClosed) {
		t.Errorf("send to closed peer: err = %v, want ErrClosed", err)
	}
	if err := m.Node(1).Send(Frame{To: 0, Tag: "eig"}); !errors.Is(err, ErrClosed) {
		t.Errorf("send from closed node: err = %v, want ErrClosed", err)
	}
	if _, err := m.Node(1).Recv(context.Background()); !errors.Is(err, ErrClosed) {
		t.Errorf("recv after close: err = %v, want ErrClosed", err)
	}
}

func TestMeshRecvHonorsContext(t *testing.T) {
	m := NewMesh(2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := m.Node(0).Recv(ctx)
	if !errors.Is(err, context.Canceled) || !errors.Is(err, ErrTransport) {
		t.Fatalf("err = %v, want context.Canceled under ErrTransport", err)
	}
}

// TestMeshSendNeverBlocks: a lockstep node sends its whole round before
// it receives, so an inbox must take any number of frames with nobody
// receiving (a bounded inbox deadlocked n=10 f=3 EIG). The frames then
// drain in FIFO order — after Close too — across two concurrent
// receivers, and only an empty closed inbox reports ErrClosed.
func TestMeshSendNeverBlocks(t *testing.T) {
	const frames = 3 << 12
	m := NewMesh(2)
	sent := make(chan error, 1)
	go func() {
		for i := 0; i < frames; i++ {
			if err := m.Node(0).Send(Frame{To: 1, Round: i, Tag: "eig"}); err != nil {
				sent <- err
				return
			}
		}
		sent <- nil
	}()
	select {
	case err := <-sent:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("Send blocked before %d frames with no receiver", frames)
	}
	if err := m.Node(1).Close(); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	rounds := make([][]int, 2)
	for w := range rounds {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				f, err := m.Node(1).Recv(context.Background())
				if err != nil {
					if !errors.Is(err, ErrClosed) {
						t.Errorf("receiver %d: err = %v, want ErrClosed", w, err)
					}
					return
				}
				rounds[w] = append(rounds[w], f.Round)
			}
		}(w)
	}
	wg.Wait()
	if got := len(rounds[0]) + len(rounds[1]); got != frames {
		t.Fatalf("drained %d frames, want %d", got, frames)
	}
	for w, rs := range rounds {
		if !sort.IntsAreSorted(rs) {
			t.Errorf("receiver %d saw frames out of FIFO order", w)
		}
	}
}

// TestFIFOLimit drives the bounded inbox the TCP readers push into:
// several producers against one consumer never hold more than limit
// frames pending, lose no wakeup (every frame arrives, each producer's
// in order), and a push blocked on a full queue gives up once its stop
// channel closes.
func TestFIFOLimit(t *testing.T) {
	const limit, producers, frames = 3, 4, 2000
	q := newFIFO(limit)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < frames; i++ {
				if !q.push(Frame{From: p, Round: i}, nil) {
					t.Errorf("producer %d: push gave up", p)
					return
				}
			}
		}(p)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	next := make([]int, producers)
	for got := 0; got < producers*frames; got++ {
		f, err := q.recv(ctx, nil, 0)
		if err != nil {
			t.Fatalf("after %d frames: %v", got, err)
		}
		if f.Round != next[f.From] {
			t.Fatalf("producer %d: frame %d arrived where %d was due", f.From, f.Round, next[f.From])
		}
		next[f.From]++
		q.mu.Lock()
		pending := len(q.q) - q.head
		q.mu.Unlock()
		if pending > limit {
			t.Fatalf("%d frames pending, limit %d", pending, limit)
		}
	}
	wg.Wait()

	for i := 0; i < limit; i++ {
		q.push(Frame{}, nil)
	}
	stop := make(chan struct{})
	gaveUp := make(chan bool)
	go func() { gaveUp <- !q.push(Frame{}, stop) }()
	close(stop)
	if !<-gaveUp {
		t.Error("push onto a full queue succeeded")
	}
}

// --- TCP backend ---

func listenLoopback(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	return ln
}

func TestTCPPairExchange(t *testing.T) {
	ln0, ln1 := listenLoopback(t), listenLoopback(t)
	peers := map[int]string{0: ln0.Addr().String(), 1: ln1.Addr().String()}
	n0, err := DialTCP(TCPConfig{Self: 0, Peers: peers, Listener: ln0})
	if err != nil {
		t.Fatal(err)
	}
	defer n0.Close()
	n1, err := DialTCP(TCPConfig{Self: 1, Peers: peers, Listener: ln1})
	if err != nil {
		t.Fatal(err)
	}
	defer n1.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	if err := n0.Send(Frame{To: 1, Round: 0, Tag: "eig", Data: []byte("hello")}); err != nil {
		t.Fatal(err)
	}
	f, err := n1.Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if f.From != 0 || f.Tag != "eig" || string(f.Data) != "hello" {
		t.Fatalf("delivered %+v", f)
	}
	if err := n1.Send(Frame{To: Broadcast, Round: 0, Tag: "ack"}); err != nil {
		t.Fatal(err)
	}
	f, err = n0.Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if f.From != 1 || f.Tag != "ack" {
		t.Fatalf("delivered %+v", f)
	}
	// BytesSent counts bytes actually written, and the writer adds them
	// after its Write returns — by when the peer may already have
	// answered. Wait for the writer's accounting instead of racing it.
	deadline := time.Now().Add(5 * time.Second)
	for n0.Stats().BytesSent == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if s := n0.Stats(); s.FramesSent == 0 || s.FramesReceived == 0 || s.BytesSent == 0 {
		t.Errorf("stats not counted: %+v", s)
	}
}

// TestTCPSendRejectsOversizeFrame: a frame above DefaultMaxFrame is
// refused by Send itself. It used to be queued, fail in the writer
// before a byte was written, and be retried over a fresh connection
// forever, blocking every later frame to that peer.
func TestTCPSendRejectsOversizeFrame(t *testing.T) {
	ln0, ln1 := listenLoopback(t), listenLoopback(t)
	peers := map[int]string{0: ln0.Addr().String(), 1: ln1.Addr().String()}
	n0, err := DialTCP(TCPConfig{Self: 0, Peers: peers, Listener: ln0})
	if err != nil {
		t.Fatal(err)
	}
	defer n0.Close()
	n1, err := DialTCP(TCPConfig{Self: 1, Peers: peers, Listener: ln1})
	if err != nil {
		t.Fatal(err)
	}
	defer n1.Close()

	for _, to := range []int{1, Broadcast} {
		err := n0.Send(Frame{To: to, Tag: "eig", Data: make([]byte, DefaultMaxFrame)})
		if !errors.Is(err, ErrFrameTooLarge) || !errors.Is(err, ErrTransport) {
			t.Fatalf("oversize send to %d: err = %v, want ErrFrameTooLarge", to, err)
		}
	}
	if err := n0.Send(Frame{To: 1, Tag: "eig", Data: []byte("small")}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	f, err := n1.Recv(ctx)
	if err != nil {
		t.Fatalf("frame after the oversize one never arrived: %v", err)
	}
	if string(f.Data) != "small" {
		t.Fatalf("delivered %+v", f)
	}
	if s := n0.Stats(); s.Reconnects != 0 || s.FramesSent != 1 {
		t.Errorf("stats = %+v, want no reconnects and only the small frame counted", s)
	}
}

// TestTCPWriterCoalesces: frames queued while the link is still being
// established go out in batches, which must change nothing a peer or
// the counters can see — order, one FramesSent per frame, and BytesSent
// the sum of the frames' stream encodings.
func TestTCPWriterCoalesces(t *testing.T) {
	const k = 200
	ln0, ln1 := listenLoopback(t), listenLoopback(t)
	defer ln1.Close()
	peers := map[int]string{0: ln0.Addr().String(), 1: ln1.Addr().String()}
	n0, err := DialTCP(TCPConfig{Self: 0, Peers: peers, Listener: ln0})
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := 0
	for i := 0; i < k; i++ {
		f := Frame{To: 1, Round: i, Tag: "eig", Data: bytes.Repeat([]byte{byte(i)}, i)}
		wantBytes += streamPrefixLen + encodedLen(&f)
		if err := n0.Send(f); err != nil {
			t.Fatal(err)
		}
	}
	conn, err := ln1.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if hello, err := ReadFrame(conn); err != nil || hello.Tag != helloTag {
		t.Fatalf("handshake: frame %+v, err %v", hello, err)
	}
	for i := 0; i < k; i++ {
		f, err := ReadFrame(conn)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.From != 0 || f.Round != i || len(f.Data) != i {
			t.Fatalf("frame %d arrived as %+v", i, f)
		}
	}
	if err := n0.Close(); err != nil { // joins the writer: its accounting is final
		t.Fatal(err)
	}
	if s := n0.Stats(); s.FramesSent != k || s.BytesSent != int64(wantBytes) || s.Reconnects != 0 {
		t.Errorf("stats = %+v, want %d frames and %d bytes", s, k, wantBytes)
	}
}

// BenchmarkTCPRoundTrip: one frame to a peer and one back over loopback
// (two frames written, two read per iteration); allocations per
// iteration cover the whole path, Send to Recv.
func BenchmarkTCPRoundTrip(b *testing.B) {
	ln0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	peers := map[int]string{0: ln0.Addr().String(), 1: ln1.Addr().String()}
	n0, err := DialTCP(TCPConfig{Self: 0, Peers: peers, Listener: ln0})
	if err != nil {
		b.Fatal(err)
	}
	defer n0.Close()
	n1, err := DialTCP(TCPConfig{Self: 1, Peers: peers, Listener: ln1})
	if err != nil {
		b.Fatal(err)
	}
	defer n1.Close()
	ctx := context.Background()
	echoed := make(chan error, 1)
	go func() {
		for i := 0; i < b.N+1; i++ {
			f, err := n1.Recv(ctx)
			if err == nil {
				err = n1.Send(Frame{To: 0, Round: f.Round, Tag: f.Tag, Data: f.Data})
			}
			if err != nil {
				echoed <- err
				return
			}
		}
		echoed <- nil
	}()
	payload := make([]byte, 64)
	roundTrip := func(i int) {
		if err := n0.Send(Frame{To: 1, Round: i, Tag: roundTag, Data: payload}); err != nil {
			b.Fatal(err)
		}
		if _, err := n0.Recv(ctx); err != nil {
			b.Fatal(err)
		}
	}
	roundTrip(-1) // both links up before the clock starts
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip(i)
	}
	b.StopTimer()
	if err := <-echoed; err != nil {
		b.Fatal(err)
	}
}

// TestTCPCloseDrainsQueuedFrames pins graceful shutdown: frames queued
// before Close still reach the peer (the final round of a finished
// protocol must not be cut off).
func TestTCPCloseDrainsQueuedFrames(t *testing.T) {
	ln0, ln1 := listenLoopback(t), listenLoopback(t)
	peers := map[int]string{0: ln0.Addr().String(), 1: ln1.Addr().String()}
	n0, err := DialTCP(TCPConfig{Self: 0, Peers: peers, Listener: ln0})
	if err != nil {
		t.Fatal(err)
	}
	n1, err := DialTCP(TCPConfig{Self: 1, Peers: peers, Listener: ln1})
	if err != nil {
		t.Fatal(err)
	}
	defer n1.Close()

	if err := n0.Send(Frame{To: 1, Round: 0, Tag: "eig", Data: []byte("last")}); err != nil {
		t.Fatal(err)
	}
	if err := n0.Close(); err != nil {
		t.Fatal(err)
	}
	if err := n0.Send(Frame{To: 1, Tag: "eig"}); !errors.Is(err, ErrClosed) {
		t.Errorf("send after close: err = %v, want ErrClosed", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	f, err := n1.Recv(ctx)
	if err != nil {
		t.Fatalf("queued frame lost at close: %v", err)
	}
	if string(f.Data) != "last" {
		t.Fatalf("delivered %+v", f)
	}
}

// TestTCPReconnect cuts an established link from the accepting side
// and keeps peer 1 away until the redials fail, then brings it back on
// the same address: the link goroutine must redial with backoff and
// keep delivering (at-least-once across the cut), and the frames sent
// while the link was down must arrive after the earlier frames and
// before the later ones, so a direct write never overtakes the backlog.
func TestTCPReconnect(t *testing.T) {
	ln0, ln1 := listenLoopback(t), listenLoopback(t)
	addr1 := ln1.Addr().String()
	peers := map[int]string{0: ln0.Addr().String(), 1: addr1}
	n0, err := DialTCP(TCPConfig{Self: 0, Peers: peers, Listener: ln0})
	if err != nil {
		t.Fatal(err)
	}
	defer n0.Close()
	round := 0
	send := func() {
		t.Helper()
		if err := n0.Send(Frame{To: 1, Round: round, Tag: "eig"}); err != nil {
			t.Fatal(err)
		}
		round++
	}

	send()
	conn, err := ln1.Accept()
	if err != nil {
		t.Fatal(err)
	}
	hello, err := ReadFrame(conn)
	if err != nil || hello.Tag != helloTag || hello.From != 0 {
		t.Fatalf("handshake: frame %+v, err %v", hello, err)
	}
	if f, err := ReadFrame(conn); err != nil || f.Round != 0 {
		t.Fatalf("first frame: %+v, err %v", f, err)
	}
	ln1.Close()                      //nolint:errcheck // peer 1 goes away...
	conn.(*net.TCPConn).SetLinger(0) //nolint:errcheck // ...with a reset
	conn.Close()                     //nolint:errcheck // the cut

	// Keep traffic flowing until a write fails and a redial is refused.
	deadline := time.After(10 * time.Second)
	for err := n0.LinkError(1); err == nil || !strings.Contains(err.Error(), "dial 0->1"); err = n0.LinkError(1) {
		send()
		select {
		case <-deadline:
			t.Fatalf("link never went down; last error %v", err)
		case <-time.After(2 * time.Millisecond):
		}
	}
	firstDown := round
	for i := 0; i < 5; i++ {
		send()
	}

	ln1b, err := net.Listen("tcp", addr1)
	if err != nil {
		t.Fatalf("peer 1 back on %s: %v", addr1, err)
	}
	defer ln1b.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		if c, err := ln1b.Accept(); err == nil {
			accepted <- c
		}
	}()
	var conn2 net.Conn
	for conn2 == nil {
		send()
		select {
		case conn2 = <-accepted:
		case <-deadline:
			t.Fatal("link never re-dialed after the cut")
		case <-time.After(5 * time.Millisecond):
		}
	}
	defer conn2.Close()
	for i := 0; i < 5; i++ {
		send()
	}
	conn2.SetReadDeadline(time.Now().Add(10 * time.Second))
	if hello2, err := ReadFrame(conn2); err != nil || hello2.Tag != helloTag {
		t.Fatalf("second handshake: frame %+v, err %v", hello2, err)
	}
	// Probes sent before the link was seen down may be lost with the
	// cut connection; everything from firstDown on must arrive, in order.
	prev := 0
	for prev < round-1 {
		f, err := ReadFrame(conn2)
		if err != nil {
			t.Fatalf("after round %d: %v", prev, err)
		}
		if f.Round <= prev || (f.Round > firstDown && f.Round != prev+1) {
			t.Fatalf("round %d arrived after round %d (link down from round %d, last %d)", f.Round, prev, firstDown, round-1)
		}
		prev = f.Round
	}
	if n0.Stats().Reconnects == 0 {
		t.Error("reconnect not counted in stats")
	}
}

// failConn is a connection whose Write runs onWrite, as a Send racing
// the write would, and then fails.
type failConn struct {
	net.Conn
	onWrite func()
	closed  bool
}

func (c *failConn) Write([]byte) (int, error) {
	c.onWrite()
	return 0, errors.New("connection reset")
}

func (c *failConn) Close() error {
	c.closed = true
	return nil
}

// TestTCPFailedWriteKeepsOrder: a failed write hands its whole batch
// back ahead of the frame that piled up behind it while it was in
// flight, and takes the link down for the link goroutine to redial.
func TestTCPFailedWriteKeepsOrder(t *testing.T) {
	tr := &TCP{self: 0, n: 2, linkErrs: make(map[int]error)}
	p := &tcpPeer{id: 1, kick: make(chan struct{}, 1)}
	p.cond = sync.NewCond(&p.mu)
	conn := &failConn{onWrite: func() {
		p.mu.Lock()
		p.buf = appendStreamFrame(p.buf, &Frame{To: 1, Round: 1, Tag: "late"})
		p.frames++
		p.mu.Unlock()
	}}
	p.buf, p.frames = appendStreamFrame(nil, &Frame{To: 1, Round: 0, Tag: "first"}), 1
	p.conn, p.busy = conn, true
	p.mu.Lock()
	tr.drain(p)
	p.mu.Unlock()

	if p.conn != nil || p.busy || !conn.closed || p.frames != 2 {
		t.Fatalf("after the failed write: conn %v, busy %v, closed %v, %d frames", p.conn, p.busy, conn.closed, p.frames)
	}
	r := bytes.NewReader(p.buf)
	for i, tag := range []string{"first", "late"} {
		if f, err := ReadFrame(r); err != nil || f.Round != i || f.Tag != tag {
			t.Fatalf("backlog frame %d: %+v, err %v", i, f, err)
		}
	}
	if r.Len() != 0 {
		t.Errorf("%d stray bytes after the backlog", r.Len())
	}
	select {
	case <-p.kick:
	default:
		t.Error("the link goroutine was not woken to redial")
	}
	if err := tr.LinkError(1); !errors.Is(err, ErrLink) {
		t.Errorf("link error = %v, want ErrLink", err)
	}
}

// TestTCPRefusesConnectionAfterClose: a connection Accept returns after
// Close has severed the tracked ones (one made just before the listener
// closed) is refused and closed, not left open for Close to wait on.
func TestTCPRefusesConnectionAfterClose(t *testing.T) {
	ln0, ln1 := listenLoopback(t), listenLoopback(t)
	defer ln1.Close()
	n0, err := DialTCP(TCPConfig{Self: 0, Peers: map[int]string{0: ln0.Addr().String(), 1: ln1.Addr().String()}, Listener: ln0})
	if err != nil {
		t.Fatal(err)
	}
	if err := n0.Close(); err != nil {
		t.Fatal(err)
	}
	local, remote := net.Pipe()
	defer remote.Close()
	if n0.track(local) {
		t.Fatal("a connection was registered after Close")
	}
	remote.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := remote.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("refused connection left open: read err = %v, want EOF", err)
	}
}

// TestTCPEndpointAllocationCeiling: an endpoint's buffers grow with its
// traffic rather than being allocated up front, so opening and closing
// an idle 4-node loopback set costs each endpoint under 64 KiB.
func TestTCPEndpointAllocationCeiling(t *testing.T) {
	const n, ceiling = 4, 64 << 10
	peers := make(map[int]string, n)
	lns := make([]net.Listener, n)
	for i := range lns {
		lns[i] = listenLoopback(t)
		peers[i] = lns[i].Addr().String()
	}
	eps := make([]*TCP, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range eps {
		ep, err := DialTCP(TCPConfig{Self: i, Peers: peers, Listener: lns[i]})
		if err != nil {
			t.Fatal(err)
		}
		eps[i] = ep
	}
	for _, ep := range eps {
		if err := ep.Close(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per > ceiling {
		t.Errorf("DialTCP and Close allocated %d bytes per endpoint, ceiling %d", per, ceiling)
	}
}

// TestTCPRejectsForeignConnection pins the handshake gate: a connection
// whose hello does not identify a cluster peer is dropped without
// delivering anything and without poisoning a link slot.
func TestTCPRejectsForeignConnection(t *testing.T) {
	ln0, ln1 := listenLoopback(t), listenLoopback(t)
	defer ln1.Close()
	peers := map[int]string{0: ln0.Addr().String(), 1: ln1.Addr().String()}
	n0, err := DialTCP(TCPConfig{Self: 0, Peers: peers, Listener: ln0})
	if err != nil {
		t.Fatal(err)
	}
	defer n0.Close()

	conn, err := net.Dial("tcp", n0.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	bogus := Frame{From: 7, To: 0, Round: -1, Tag: helloTag} // id outside [0,2)
	if _, err := WriteFrame(conn, &bogus); err != nil {
		t.Fatal(err)
	}
	data := Frame{From: 7, To: 0, Tag: "eig", Data: []byte("evil")}
	if _, err := WriteFrame(conn, &data); err != nil {
		t.Fatal(err)
	}
	// The node must hang up (EOF, or RST if our data frame was still
	// unread when it closed — either way, not a timeout)...
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadAll(conn); err != nil && os.IsTimeout(err) {
		t.Fatalf("node kept the foreign connection open: %v", err)
	}
	// ...and deliver nothing.
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if f, err := n0.Recv(ctx); err == nil {
		t.Fatalf("foreign frame delivered: %+v", f)
	} else if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline", err)
	}
	if err := n0.LinkError(1); err != nil {
		t.Fatalf("foreign connection poisoned link 1: %v", err)
	}
}

// TestTCPLinkErrorSurfaced pins per-link error reporting: garbage on an
// authenticated stream records an ErrLink for that peer.
func TestTCPLinkErrorSurfaced(t *testing.T) {
	ln0, ln1 := listenLoopback(t), listenLoopback(t)
	defer ln1.Close()
	peers := map[int]string{0: ln0.Addr().String(), 1: ln1.Addr().String()}
	n0, err := DialTCP(TCPConfig{Self: 0, Peers: peers, Listener: ln0})
	if err != nil {
		t.Fatal(err)
	}
	defer n0.Close()

	conn, err := net.Dial("tcp", n0.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hello := Frame{From: 1, To: 0, Round: -1, Tag: helloTag}
	if _, err := WriteFrame(conn, &hello); err != nil {
		t.Fatal(err)
	}
	// An absurd length prefix: ReadFrame fails with ErrFrameTooLarge and
	// the read loop must record it against peer 1.
	if _, err := conn.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF}); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for {
		if err := n0.LinkError(1); err != nil {
			if !errors.Is(err, ErrLink) || !errors.Is(err, ErrTransport) {
				t.Fatalf("link error %v does not chain ErrLink/ErrTransport", err)
			}
			return
		}
		select {
		case <-deadline:
			t.Fatal("link error never surfaced")
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// TestTCPWriteLinkErrorSurfaced pins the writer's side: peer 1 reads
// node 0's hello and resets the connection, so a later conn.Write fails,
// and the error recorded against peer 1 must name the write and chain
// ErrLink/ErrTransport. Peer 1 accepts and drains the reconnects, so no
// dial error takes the write error's place.
func TestTCPWriteLinkErrorSurfaced(t *testing.T) {
	ln0, ln1 := listenLoopback(t), listenLoopback(t)
	defer ln1.Close()
	peers := map[int]string{0: ln0.Addr().String(), 1: ln1.Addr().String()}
	n0, err := DialTCP(TCPConfig{Self: 0, Peers: peers, Listener: ln0})
	if err != nil {
		t.Fatal(err)
	}
	defer n0.Close()
	go func() {
		for reset := true; ; reset = false {
			conn, err := ln1.Accept()
			if err != nil {
				return
			}
			if reset {
				ReadFrame(conn)                  //nolint:errcheck // the hello
				conn.(*net.TCPConn).SetLinger(0) //nolint:errcheck // close with RST
				conn.Close()                     //nolint:errcheck // the reset
				continue
			}
			go func() {
				io.Copy(io.Discard, conn) //nolint:errcheck // until node 0 closes
				conn.Close()              //nolint:errcheck // drained
			}()
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := n0.LinkError(1); err != nil {
			if !errors.Is(err, ErrLink) || !errors.Is(err, ErrTransport) || !strings.Contains(err.Error(), "write 0->1") {
				t.Fatalf("link error %v is not a write error chaining ErrLink/ErrTransport", err)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("write error never surfaced")
		}
		if err := n0.Send(Frame{To: 1, Tag: "x", Data: make([]byte, 1<<10)}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestDialTCPValidatesConfig(t *testing.T) {
	if _, err := DialTCP(TCPConfig{Self: 0, Peers: map[int]string{0: "a", 2: "b"}}); !errors.Is(err, ErrBadPeer) {
		t.Errorf("gap in ids: err = %v, want ErrBadPeer", err)
	}
	if _, err := DialTCP(TCPConfig{Self: 5, Peers: map[int]string{0: "a", 1: "b"}}); !errors.Is(err, ErrBadPeer) {
		t.Errorf("self outside cluster: err = %v, want ErrBadPeer", err)
	}
}
