package transport

// RunSync below the facade: one node driven over a scripted in-memory
// Transport (the test plays the peers frame by frame), and small
// clusters over the mesh compared against sched.SyncEngine.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"relaxedbvc/internal/sched"
)

// scriptProc replays fixed sends — outs[0] from Start, outs[r+1] from
// Step(r) — records every inbox it is stepped with, and is Done once it
// has no sends left.
type scriptProc struct {
	outs    [][]sched.Outgoing
	inboxes [][]sched.Message
}

func (p *scriptProc) Start() []sched.Outgoing { return p.outs[0] }

func (p *scriptProc) Step(round int, delivered []sched.Message) []sched.Outgoing {
	p.inboxes = append(p.inboxes, append([]sched.Message(nil), delivered...))
	return p.outs[round+1]
}

func (p *scriptProc) Done() bool { return len(p.inboxes) >= len(p.outs)-1 }

// silent is a scriptProc that steps `rounds` times and sends nothing.
func silent(rounds int) *scriptProc {
	return &scriptProc{outs: make([][]sched.Outgoing, rounds+1)}
}

// scriptTransport is node self of an n-node cluster whose peers are
// the test: Recv hands out the scripted frames in order, Send records.
type scriptTransport struct {
	self, n int
	script  []Frame
	sent    []Frame
}

func (t *scriptTransport) Self() int    { return t.self }
func (t *scriptTransport) N() int       { return t.n }
func (t *scriptTransport) Close() error { return nil }

func (t *scriptTransport) Send(f Frame) error {
	f.From = t.self
	t.sent = append(t.sent, f)
	return nil
}

func (t *scriptTransport) Recv(context.Context) (Frame, error) {
	if len(t.script) == 0 {
		return Frame{}, fmt.Errorf("%w: script exhausted", ErrClosed)
	}
	f := t.script[0]
	t.script = t.script[1:]
	return f, nil
}

type testMsg struct{ tag, data string }

// bundleFrame builds the round bundle a peer would send.
func bundleFrame(from, round int, chunk uint32, flags byte, msgs ...testMsg) Frame {
	data := appendBundleHeader(nil, bundleHeader{done: flags&bundleDone != 0, last: flags&bundleLast != 0, chunk: chunk})
	for _, m := range msgs {
		data = appendTagData(data, m.tag, []byte(m.data))
	}
	return Frame{From: from, Round: round, Tag: roundTag, Data: data}
}

// payloads flattens one inbox to "from/tag/data" strings.
func payloads(inbox []sched.Message) []string {
	out := make([]string, len(inbox))
	for i, m := range inbox {
		out[i] = fmt.Sprintf("%d/%s/%s", m.From, m.Tag, m.Data)
	}
	return out
}

const lastDone = bundleLast | bundleDone

// TestRunSyncDropsReplayedBundles: a bundle redelivered verbatim —
// while its round is being collected, or one round early — changes
// neither the inbox nor Delivered.
func TestRunSyncDropsReplayedBundles(t *testing.T) {
	r0 := bundleFrame(1, 0, 0, bundleLast, testMsg{"a", "p1r0"})
	r1 := bundleFrame(1, 1, 0, bundleLast, testMsg{"a", "p1r1"})
	tr := &scriptTransport{self: 0, n: 3, script: []Frame{
		r0, r0, // replay inside the current round
		r1, r1, // peer 1 runs one round ahead, and that bundle is replayed too
		bundleFrame(2, 0, 0, bundleLast, testMsg{"a", "p2r0"}),
		r0, r1, // replays of a past and of the current round
		bundleFrame(2, 1, 0, bundleLast, testMsg{"a", "p2r1"}),
		bundleFrame(1, 2, 0, lastDone), r1,
		bundleFrame(2, 2, 0, lastDone),
	}}
	proc := silent(2)
	stats, err := RunSync(context.Background(), tr, proc, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{{"1/a/p1r0", "2/a/p2r0"}, {"1/a/p1r1", "2/a/p2r1"}}
	for round, inbox := range proc.inboxes {
		if got := payloads(inbox); !reflect.DeepEqual(got, want[round]) {
			t.Errorf("round %d inbox = %v, want %v", round, got, want[round])
		}
	}
	if stats.Delivered != 4 || stats.Rounds != 2 {
		t.Errorf("stats = %+v, want 4 delivered in 2 rounds", stats)
	}
	if len(tr.script) != 0 {
		t.Errorf("%d scripted frames never read", len(tr.script))
	}
}

// TestRunSyncRoundWindow: a peer one round ahead is buffered, a bundle
// two rounds ahead is dropped — had it been kept, the real chunk 0 of
// that round would later read as its duplicate.
func TestRunSyncRoundWindow(t *testing.T) {
	tr := &scriptTransport{self: 0, n: 2, script: []Frame{
		bundleFrame(1, 1, 0, bundleLast, testMsg{"a", "ahead by one"}),
		bundleFrame(1, 2, 0, bundleLast, testMsg{"a", "ahead by two"}),
		bundleFrame(1, 1<<30, 0, bundleLast, testMsg{"a", "far future"}),
		bundleFrame(1, 0, 0, bundleLast, testMsg{"a", "on time"}),
		bundleFrame(1, 2, 0, bundleLast, testMsg{"a", "real round 2"}),
		bundleFrame(1, 3, 0, lastDone),
	}}
	proc := silent(3)
	if _, err := RunSync(context.Background(), tr, proc, 0, nil); err != nil {
		t.Fatal(err)
	}
	want := [][]string{{"1/a/on time"}, {"1/a/ahead by one"}, {"1/a/real round 2"}}
	for round, inbox := range proc.inboxes {
		if got := payloads(inbox); !reflect.DeepEqual(got, want[round]) {
			t.Errorf("round %d inbox = %v, want %v", round, got, want[round])
		}
	}
}

// TestRunSyncIgnoresForeignFrames: plain data frames, unknown control
// frames and bundles naming an impossible sender never reach the
// process and never fail the run.
func TestRunSyncIgnoresForeignFrames(t *testing.T) {
	tr := &scriptTransport{self: 0, n: 2, script: []Frame{
		{From: 1, Round: 0, Tag: "eig", Data: []byte("plain data frame")},
		{From: 1, Round: 0, Tag: "\x00future", Data: []byte{1}},
		{From: 1, Round: 0, Tag: helloTag},
		bundleFrame(7, 0, 0, bundleLast, testMsg{"a", "no such peer"}),
		bundleFrame(0, 0, 0, bundleLast, testMsg{"a", "from myself"}),
		bundleFrame(1, 0, 0, bundleLast, testMsg{"a", "real"}),
		bundleFrame(1, 1, 0, lastDone),
	}}
	proc := silent(1)
	stats, err := RunSync(context.Background(), tr, proc, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := payloads(proc.inboxes[0]); !reflect.DeepEqual(got, []string{"1/a/real"}) || stats.Delivered != 1 {
		t.Errorf("inbox = %v, delivered %d; want only the real bundle's message", got, stats.Delivered)
	}
}

// TestRunSyncRejectsMalformedBundles: a bundle inside the window that
// does not parse, skips a chunk or follows its round's barrier fails
// the run with ErrBadFrame naming the peer and the round, and the
// process is never stepped with part of it.
func TestRunSyncRejectsMalformedBundles(t *testing.T) {
	good := bundleFrame(2, 4, 0, 0, testMsg{"a", "x"}, testMsg{"b", "yy"})
	withData := func(data []byte) Frame { f := good; f.Data = data; return f }
	cases := map[string][]Frame{
		"short header":    {withData(good.Data[:3])},
		"reserved flag":   {withData(append([]byte{0x80}, good.Data[1:]...))},
		"truncated field": {withData(good.Data[:len(good.Data)-1])},
		"trailing bytes":  {withData(append(good.Data[:len(good.Data):len(good.Data)], 0, 0))},
		"skipped chunk":   {good, bundleFrame(2, 4, 2, bundleLast)},
		"after barrier":   {good, bundleFrame(2, 4, 1, bundleLast), bundleFrame(2, 4, 2, bundleLast)},
	}
	for name, frames := range cases {
		// Rounds 0..3 pass quietly, then the frames under test arrive for
		// round 4 while peer 1 is still missing.
		var script []Frame
		for round := 0; round < 4; round++ {
			script = append(script, bundleFrame(1, round, 0, bundleLast), bundleFrame(2, round, 0, bundleLast))
		}
		tr := &scriptTransport{self: 0, n: 3, script: append(script, frames...)}
		proc := silent(8)
		_, err := RunSync(context.Background(), tr, proc, 0, nil)
		if !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: err = %v, want ErrBadFrame", name, err)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, "peer 2") || !strings.Contains(msg, "round 4") {
			t.Errorf("%s: error %q does not name peer 2 and round 4", name, msg)
		}
		if len(proc.inboxes) != 4 {
			t.Errorf("%s: process stepped %d times, want 4 (never with the bad round)", name, len(proc.inboxes))
		}
	}
}

// TestRunSyncSendErrorSurfaces: what Send rejects (here a bundle above
// DefaultMaxFrame) is the run's error, and a process addressing
// itself or a node outside the cluster is ErrBadPeer.
func TestRunSyncSendErrorSurfaces(t *testing.T) {
	ln0, ln1 := listenLoopback(t), listenLoopback(t)
	defer ln1.Close()
	peers := map[int]string{0: ln0.Addr().String(), 1: ln1.Addr().String()}
	n0, err := DialTCP(TCPConfig{Self: 0, Peers: peers, Listener: ln0})
	if err != nil {
		t.Fatal(err)
	}
	defer n0.Close()
	big := &scriptProc{outs: [][]sched.Outgoing{{{To: 1, Tag: "a", Data: make([]byte, DefaultMaxFrame)}}, nil}}
	if _, err := RunSync(context.Background(), n0, big, 0, nil); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversize round: err = %v, want ErrFrameTooLarge", err)
	}
	for _, to := range []int{0, 5, -2} {
		tr := &scriptTransport{self: 0, n: 2}
		proc := &scriptProc{outs: [][]sched.Outgoing{{{To: to, Tag: "a"}}, nil}}
		if _, err := RunSync(context.Background(), tr, proc, 0, nil); !errors.Is(err, ErrBadPeer) {
			t.Errorf("send to %d: err = %v, want ErrBadPeer", to, err)
		}
		if len(tr.sent) != 0 {
			t.Errorf("send to %d: %d frames sent before the bad address was noticed", to, len(tr.sent))
		}
	}
}

// TestRunSyncSplitsOversizedRound: a round above bundleCap goes out in
// chunks numbered from 0 that each stay within bundleCap plus one
// message, only the last carries the barrier, and the receiver
// reassembles them in send order.
func TestRunSyncSplitsOversizedRound(t *testing.T) {
	const msgLen = 20 << 10
	var outs []sched.Outgoing
	var want []string
	for i := 0; i < 9; i++ {
		o := sched.Outgoing{To: 1, Tag: "big", Data: bytes.Repeat([]byte{byte('a' + i)}, msgLen)}
		if i%3 == 1 {
			o.To = sched.Broadcast
		}
		if i%4 == 3 {
			o.To = 2 // not for node 1: must take no room in its chunks
		}
		outs = append(outs, o)
		if o.To != 2 {
			want = append(want, fmt.Sprintf("0/big/%s", o.Data))
		}
	}
	sender := &scriptTransport{self: 0, n: 3, script: []Frame{
		bundleFrame(1, 0, 0, lastDone), bundleFrame(2, 0, 0, lastDone),
	}}
	if _, err := RunSync(context.Background(), sender, &scriptProc{outs: [][]sched.Outgoing{outs}}, 0, nil); err != nil {
		t.Fatal(err)
	}
	var toOne []Frame
	for _, f := range sender.sent {
		if f.To == 1 {
			toOne = append(toOne, f)
		}
	}
	if len(toOne) != 3 {
		t.Fatalf("%d chunks to node 1, want 3 (7 messages of 20 KiB under a 64 KiB cap)", len(toOne))
	}
	for i, f := range toOne {
		h, _, err := parseBundleHeader(f.Data)
		if err != nil {
			t.Fatal(err)
		}
		if h.chunk != uint32(i) || h.last != (i == len(toOne)-1) || !h.done {
			t.Errorf("chunk %d header = %+v", i, h)
		}
		if len(f.Data) > bundleCap+tagDataLen("big", make([]byte, msgLen)) {
			t.Errorf("chunk %d is %d bytes", i, len(f.Data))
		}
	}
	receiver := &scriptTransport{self: 1, n: 3, script: append(toOne,
		bundleFrame(2, 0, 0, lastDone), bundleFrame(0, 1, 0, lastDone), bundleFrame(2, 1, 0, lastDone))}
	proc := silent(1)
	stats, err := RunSync(context.Background(), receiver, proc, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := payloads(proc.inboxes[0]); !reflect.DeepEqual(got, want) || stats.Delivered != len(want) {
		t.Errorf("reassembled %d messages out of order or incomplete (want %d)", len(got), len(want))
	}
}

// floodProc broadcasts msgs messages of msgLen bytes in each of its
// first rounds rounds, every one stamped with (sender, round, index),
// and checks that each inbox holds exactly every peer's messages of the
// round before.
type floodProc struct {
	id, n, rounds, msgs, msgLen, stepped int
	err                                  error
}

func (p *floodProc) outs(round int) []sched.Outgoing {
	buf := make([]byte, p.msgs*p.msgLen)
	outs := make([]sched.Outgoing, p.msgs)
	for i := range outs {
		d := buf[i*p.msgLen : (i+1)*p.msgLen]
		binary.BigEndian.PutUint32(d, uint32(p.id))
		binary.BigEndian.PutUint32(d[4:], uint32(round))
		binary.BigEndian.PutUint32(d[8:], uint32(i))
		outs[i] = sched.Outgoing{To: sched.Broadcast, Tag: "flood", Data: d}
	}
	return outs
}

func (p *floodProc) Start() []sched.Outgoing { return p.outs(0) }

func (p *floodProc) Step(round int, inbox []sched.Message) []sched.Outgoing {
	p.stepped++
	seen := make([]int, p.n)
	for _, m := range inbox {
		d := m.Data
		if len(d) != p.msgLen || int(binary.BigEndian.Uint32(d)) != m.From || int(binary.BigEndian.Uint32(d[4:])) != round ||
			int(binary.BigEndian.Uint32(d[8:])) != seen[m.From] {
			p.err = fmt.Errorf("node %d round %d: message %d from %d is not the one sent next", p.id, round, seen[m.From], m.From)
			return nil
		}
		seen[m.From]++
	}
	for from, got := range seen {
		if from != p.id && got != p.msgs && p.err == nil {
			p.err = fmt.Errorf("node %d round %d: %d of %d messages from %d", p.id, round, got, p.msgs, from)
		}
	}
	if p.Done() {
		return nil
	}
	return p.outs(round + 1)
}

func (p *floodProc) Done() bool { return p.stepped >= p.rounds }

// TestTCPRunSyncFloodRounds: four loopback endpoints in lockstep, every
// node sending every peer 4 MiB a round (69 chunks) for three rounds.
// Every node sends its whole round before it receives anything, so this
// holds only while a link takes in what the run puts in flight: the
// inbox and the send buffers grow with it instead of capping it.
func TestTCPRunSyncFloodRounds(t *testing.T) {
	const n, rounds, msgs, msgLen = 4, 3, 1024, 4 << 10
	peers := make(map[int]string, n)
	lns := make([]net.Listener, n)
	for i := range lns {
		lns[i] = listenLoopback(t)
		peers[i] = lns[i].Addr().String()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	procs := make([]*floodProc, n)
	stats := make([]*SyncNodeStats, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range procs {
		procs[i] = &floodProc{id: i, n: n, rounds: rounds, msgs: msgs, msgLen: msgLen}
		ep, err := DialTCP(TCPConfig{Self: i, Peers: peers, Listener: lns[i]})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer ep.Close()
			stats[i], errs[i] = RunSync(ctx, ep, procs[i], 0, nil)
		}(i)
	}
	wg.Wait()
	for i, p := range procs {
		if err := errors.Join(errs[i], p.err); err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		if p.stepped != rounds {
			t.Errorf("node %d stepped %d times, want %d", i, p.stepped, rounds)
		}
		if min := (n - 1) * rounds * 64; stats[i].FramesSent < min {
			t.Errorf("node %d sent %d chunks, want at least %d", i, stats[i].FramesSent, min)
		}
	}
}

// mixedOuts is a three-round script for node id of a 3-node cluster
// mixing unicast, Broadcast and several tags, with one tag sent twice
// to the same peer in a round (copies must stay in send order).
func mixedOuts(id int) [][]sched.Outgoing {
	next, prev := (id+1)%3, (id+2)%3
	d := func(s string) []byte { return []byte(fmt.Sprintf("%s@%d", s, id)) }
	return [][]sched.Outgoing{
		{{To: next, Tag: "z", Data: d("s0")}, {To: sched.Broadcast, Tag: "m", Data: d("s1")}, {To: next, Tag: "a", Data: d("s2")}},
		{{To: sched.Broadcast, Tag: "m", Data: d("r0-0")}, {To: prev, Tag: "m", Data: d("r0-1")}, {To: sched.Broadcast, Tag: "m", Data: d("r0-2")}, {To: prev, Tag: "b"}},
		{},
		{{To: prev, Tag: "q", Data: d("r2")}},
		nil,
	}
}

// TestRunSyncInboxOrderMatchesSyncEngine: over the mesh, every node is
// stepped with exactly the inboxes sched.SyncEngine builds for the same
// processes.
func TestRunSyncInboxOrderMatchesSyncEngine(t *testing.T) {
	ref := make([]*scriptProc, 3)
	procs := make([]sched.SyncProcess, 3)
	for i := range ref {
		ref[i] = &scriptProc{outs: mixedOuts(i)}
		procs[i] = ref[i]
	}
	rounds, err := sched.NewSyncEngine(procs).Run()
	if err != nil {
		t.Fatal(err)
	}

	mesh := NewMesh(3)
	got := make([]*scriptProc, 3)
	stats := make([]*SyncNodeStats, 3)
	errs := make([]error, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for i := range got {
		got[i] = &scriptProc{outs: mixedOuts(i)}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			stats[i], errs[i] = RunSync(ctx, mesh.Node(i), got[i], 0, nil)
		}(i)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("node %d: %v", i, errs[i])
		}
		if stats[i].Rounds != rounds {
			t.Errorf("node %d ran %d rounds, engine %d", i, stats[i].Rounds, rounds)
		}
		if !reflect.DeepEqual(got[i].inboxes, ref[i].inboxes) {
			t.Errorf("node %d inboxes differ from the engine's:\n got %v\nwant %v", i, got[i].inboxes, ref[i].inboxes)
		}
		// One bundle per peer per round, Start included.
		if want := 2 * (rounds + 1); stats[i].FramesSent != want {
			t.Errorf("node %d sent %d bundles, want %d", i, stats[i].FramesSent, want)
		}
	}
}

// BenchmarkRunSyncRound: a 4-node mesh cluster in which every node
// broadcasts two small messages a round (the ACS shape); reported per
// cluster round.
func BenchmarkRunSyncRound(b *testing.B) {
	const n = 4
	b.ReportAllocs()
	mesh := NewMesh(n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := RunSync(context.Background(), mesh.Node(i), &benchProc{rounds: b.N}, b.N+1, nil); err != nil {
				b.Error(err)
			}
		}(i)
	}
	wg.Wait()
}

// benchProc broadcasts the same two messages for a fixed number of
// rounds.
type benchProc struct{ rounds, stepped int }

var benchOuts = []sched.Outgoing{
	{To: sched.Broadcast, Tag: "rbc", Data: make([]byte, 40)},
	{To: sched.Broadcast, Tag: "aba", Data: make([]byte, 12)},
}

func (p *benchProc) Start() []sched.Outgoing { return benchOuts }
func (p *benchProc) Step(int, []sched.Message) []sched.Outgoing {
	p.stepped++
	if p.Done() {
		return nil
	}
	return benchOuts
}
func (p *benchProc) Done() bool { return p.stepped >= p.rounds }
