package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	bvc "relaxedbvc"
	"relaxedbvc/internal/acs"
	"relaxedbvc/internal/broadcast"
	"relaxedbvc/internal/sched"
	"relaxedbvc/internal/transport"
	"relaxedbvc/internal/vec"
)

// rbcInitPhase is the phase byte that opens a Bracha INIT message; a
// node sends its own INIT exactly when it opens an epoch.
var rbcInitPhase = broadcast.EncodeInit(0, "", nil)[0]

// acsRunner generates ProtocolACS streams: n nodes, node n-1 a scripted
// equivocator, `epochs` back-to-back epochs per chunk of distinct
// proposals. An op is one epoch.
type acsRunner struct {
	seed, salt         uint64
	n, f, d            int
	p                  float64
	epochs, warmEpochs int
	tcp                bool
}

func (r *acsRunner) clients() (int, int) {
	if r.tcp {
		return r.n, r.n * (r.n - 1)
	}
	return 1, 0
}

func (r *acsRunner) prepare(i int) (*chunk, error) {
	l := newLCG(r.seed, r.salt, uint64(int64(i)))
	epochs := r.epochs
	if i < 0 {
		epochs = r.warmEpochs
	}
	spec := bvc.Spec{
		Protocol: bvc.ProtocolACS, N: r.n, F: r.f, D: r.d, NormP: r.p,
		ACSByzantine: map[int]bvc.ACSBehavior{r.n - 1: bvc.ACSEquivocate},
		Proposals:    make([][]bvc.Vector, epochs),
	}
	for e := range spec.Proposals {
		spec.Proposals[e] = l.vectors(r.n, r.d)
	}
	c := &chunk{index: i, specs: []bvc.Spec{spec}}
	if r.tcp {
		c.peers = make(map[int]string, r.n)
		for id := 0; id < r.n; id++ {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				c.closeListeners()
				return nil, fmt.Errorf("bind loopback listener: %w", err)
			}
			c.listeners = append(c.listeners, ln)
			c.peers[id] = ln.Addr().String()
		}
	}
	return c, nil
}

// openMarks returns a Spec.Trace hook that timestamps the delivery to
// node 1 of each epoch-opening INIT of node 0. Node 0 opens epoch e+1
// in the round that seals epoch e, so consecutive marks are one epoch
// apart; this is the only seal signal visible through Run.
func openMarks(marks *[]time.Time) func(bvc.Message) {
	return func(m bvc.Message) {
		if m.From == 0 && m.To == 1 && m.Tag == broadcast.BrachaTag && len(m.Data) > 0 && m.Data[0] == rbcInitPhase {
			*marks = append(*marks, time.Now())
		}
	}
}

// epochLatencies turns the opening marks and the end of the run into
// one latency per epoch.
func epochLatencies(marks []time.Time, end time.Time, epochs int) ([]float64, error) {
	if len(marks) != epochs {
		return nil, fmt.Errorf("saw %d epoch openings for %d epochs", len(marks), epochs)
	}
	lat := make([]float64, epochs)
	for e := range lat {
		next := end
		if e+1 < epochs {
			next = marks[e+1]
		}
		lat[e] = next.Sub(marks[e]).Seconds() * 1e3
	}
	return lat, nil
}

func (r *acsRunner) run(ctx context.Context, c *chunk) (*outcome, error) {
	spec := c.specs[0]
	epochs := len(spec.Proposals)
	var marks []time.Time
	if !r.tcp {
		spec.Trace = openMarks(&marks)
		res, err := bvc.Run(ctx, spec)
		end := time.Now()
		if err != nil {
			return nil, err
		}
		lat, err := epochLatencies(marks, end, epochs)
		if err != nil {
			return nil, err
		}
		return &outcome{latMs: lat, msgs: res.Messages, streams: res.ACS, digest: bvc.ACSFingerprint(res.ACS[0])}, nil
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make([]*bvc.Result, r.n)
	errs := make([]error, r.n)
	var wg sync.WaitGroup
	for i := 0; i < r.n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := spec
			if i == 1 {
				s.Trace = openMarks(&marks)
			}
			results[i], errs[i] = bvc.Run(ctx, s, bvc.WithTransport(bvc.Transport{
				Kind: bvc.TransportTCP, Self: i, Peers: c.peers, Listener: c.listeners[i],
			}))
			if errs[i] != nil {
				cancel() // unblock peers waiting at the round barrier
			}
		}(i)
	}
	wg.Wait()
	end := time.Now()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	lat, err := epochLatencies(marks, end, epochs)
	if err != nil {
		return nil, err
	}
	o := &outcome{latMs: lat, streams: make([][]bvc.ACSEpoch, r.n)}
	for i, res := range results {
		o.msgs += res.Messages
		o.streams[i] = res.ACS[i]
	}
	o.digest = bvc.ACSFingerprint(o.streams[0])
	return o, nil
}

// check verifies one ACS chunk: every honest node sealed the same
// stream of the full length, each epoch's subset has at least n-f
// slots and its output is (delta,p)-relaxed valid for the honest
// proposals; over TCP the stream must also equal a simulator reference
// run of the same spec.
func (r *acsRunner) check(ctx context.Context, c *chunk, o *outcome) (int, []string) {
	spec := c.specs[0]
	epochs := len(spec.Proposals)
	honest := spec.HonestIDs()
	failAll := func(format string, args ...any) (int, []string) {
		return epochs, []string{fmt.Sprintf(format, args...)}
	}
	for _, i := range honest[1:] {
		if fp := bvc.ACSFingerprint(o.streams[i]); fp != o.digest {
			return failAll("honest node %d sealed a different stream than node %d", i, honest[0])
		}
	}
	stream := o.streams[honest[0]]
	if len(stream) != epochs {
		return failAll("sealed %d of %d epochs", len(stream), epochs)
	}
	if r.tcp {
		ref, err := bvc.Run(ctx, spec)
		if err != nil {
			return failAll("simulator reference run: %v", err)
		}
		if bvc.ACSFingerprint(ref.ACS[honest[0]]) != o.digest {
			return failAll("tcp stream differs from the simulator reference")
		}
	}
	failed := 0
	var reasons []string
	for e, dec := range stream {
		nonFaulty := bvc.NewPointSet()
		for _, i := range honest {
			nonFaulty.Append(spec.Proposals[e][i])
		}
		switch {
		case len(dec.Subset) < r.n-r.f:
			reasons = append(reasons, fmt.Sprintf("epoch %d: subset of %d < n-f", e, len(dec.Subset)))
		case !bvc.CheckDeltaValidity(dec.Output, nonFaulty, dec.Delta, r.p, validityTol):
			reasons = append(reasons, fmt.Sprintf("epoch %d: output violates (delta,p)-relaxed validity", e))
		default:
			continue
		}
		failed++
	}
	return failed, reasons
}

// rbcEvent is one thing that happened to a node's reliable-broadcast
// component: a delivered rbc message, or the node opening an epoch.
type rbcEvent struct {
	open  bool
	epoch int // for open
	from  int
	data  []byte
}

// buildNodes rebuilds the stream's state machines from acs.NewNode the
// way the facade does.
func (r *acsRunner) buildNodes(spec *bvc.Spec) ([]*acs.Node, error) {
	nodes := make([]*acs.Node, r.n)
	for i := range nodes {
		own := make([]vec.V, len(spec.Proposals))
		for e := range own {
			own[e] = spec.Proposals[e][i]
		}
		behavior := acs.Honest
		if _, bad := spec.ACSByzantine[i]; bad {
			behavior = acs.Equivocate
		}
		var err error
		nodes[i], err = acs.NewNode(acs.Config{
			N: r.n, F: r.f, Self: i, D: r.d, NormP: r.p,
			Proposals: own, Behavior: behavior,
		})
		if err != nil {
			return nil, err
		}
	}
	return nodes, nil
}

func (r *acsRunner) trace(ctx context.Context, c *chunk, t *tracer, op0 int) (*outcome, error) {
	spec := &c.specs[0]
	epochs := len(spec.Proposals)
	nodes, err := r.buildNodes(spec)
	if err != nil {
		return nil, err
	}
	events := make([][]rbcEvent, r.n)
	procs := make([]*tracedProc, r.n)
	parents := make([]int, r.n)
	for i := range nodes {
		i := i
		opened, sealed := 0, 0
		procs[i] = &tracedProc{
			inner: nodes[i], rec: t.rec, name: "acs.step", parent: &parents[i],
			// The op in flight at node i is the epoch it has not sealed yet.
			op: func() int { return op0 + len(nodes[i].Decisions()) },
			capture: func(delivered []sched.Message, outs []sched.Outgoing) string {
				for _, m := range delivered {
					if m.Tag == broadcast.BrachaTag {
						events[i] = append(events[i], rbcEvent{from: m.From, data: m.Data})
					}
				}
				for _, o := range outs {
					if o.Tag == broadcast.BrachaTag && len(o.Data) > 0 && o.Data[0] == rbcInitPhase {
						events[i] = append(events[i], rbcEvent{open: true, epoch: opened})
						opened++
						break
					}
				}
				// A call that sealed an epoch contains the epoch's kernel
				// call; its span gets its own name so the kernel's time
				// inside the steps can be read off the spans.
				if n := len(nodes[i].Decisions()); n > sealed {
					sealed = n
					return "acs.step_seal"
				}
				return ""
			},
		}
	}

	o := &outcome{streams: make([][]bvc.ACSEpoch, r.n)}
	root := t.rec.open("chunk", op0, -1)
	if r.tcp {
		err = r.traceTCP(ctx, c, t, root, procs, parents, o)
	} else {
		err = r.traceSim(t, root, procs, parents, o)
	}
	o.wall = t.rec.close(root)
	if err != nil {
		return nil, err
	}
	o.latMs = make([]float64, epochs)
	for e := range o.latMs {
		o.latMs[e] = o.wall.Seconds() * 1e3 / float64(epochs) // the traced pass only needs the mean
	}

	for i, node := range nodes {
		decs := node.Decisions()
		o.streams[i] = make([]bvc.ACSEpoch, len(decs))
		for e, d := range decs {
			o.streams[i][e] = bvc.ACSEpoch{Epoch: d.Epoch, Subset: d.Subset, Values: d.Values, Output: d.Output, Delta: d.Delta}
		}
	}
	o.digest = acs.Fingerprint(nodes[0].Decisions())
	st := nodes[0].Stats()
	t.add("acs.aba_rounds", float64(st.ABARounds))
	t.add("acs.slots", float64(st.Slots))

	// Node 0's agreed value sets are the kernel's inputs; keep them for
	// the cold replay.
	kind := "deltastar2"
	if r.p != 2 {
		kind = "deltastarpoly"
	}
	for _, d := range nodes[0].Decisions() {
		t.sampleKernel(kernelCall{kind: kind, set: vec.NewSet(d.Values...), f: r.f, p: r.p})
	}

	// Replay every node's captured rbc traffic into a fresh BrachaState.
	replay := t.rec.open("replay.bracha", op0, -1)
	for i := range nodes {
		own := make([]vec.V, epochs)
		for e := range own {
			own[e] = spec.Proposals[e][i]
		}
		_, equivocator := spec.ACSByzantine[i]
		replayBracha(r.n, r.f, i, equivocator, own, events[i])
		t.add("broadcast.bracha_msgs", float64(countMessages(events[i])))
	}
	t.add("broadcast.bracha_ns", float64(t.rec.close(replay)))
	return o, nil
}

// traceSim drives the decorated nodes on sched.SyncEngine, as the
// facade's simulation backend does.
func (r *acsRunner) traceSim(t *tracer, root int, procs []*tracedProc, parents []int, o *outcome) error {
	sp := make([]sched.SyncProcess, len(procs))
	for i, p := range procs {
		sp[i] = p
	}
	eng := sched.NewSyncEngine(sp)
	engSpan := t.rec.open("sched.run", procs[0].op(), root)
	for i := range parents {
		parents[i] = engSpan
	}
	rounds, err := eng.Run()
	t.rec.close(engSpan)
	if err != nil {
		return err
	}
	o.msgs = eng.Messages
	t.add("sched.rounds", float64(rounds))
	t.add("sched.msgs", float64(eng.Messages))
	return nil
}

// traceTCP drives the decorated nodes over real loopback sockets with
// transport.DialTCP and transport.RunSync, one goroutine per node.
func (r *acsRunner) traceTCP(ctx context.Context, c *chunk, t *tracer, root int, procs []*tracedProc, parents []int, o *outcome) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	trs := make([]*tracedTransport, r.n)
	for i := range trs {
		tr, err := transport.DialTCP(transport.TCPConfig{Self: i, Peers: c.peers, Listener: c.listeners[i]})
		if err != nil {
			for _, open := range trs[:i] {
				open.Close() //nolint:errcheck // already failing
			}
			return err
		}
		trs[i] = &tracedTransport{Transport: tr, rec: t.rec, parent: &parents[i], op: procs[i].op}
	}
	stats := make([]*transport.SyncNodeStats, r.n)
	errs := make([]error, r.n)
	var wg sync.WaitGroup
	for i := 0; i < r.n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			parents[i] = t.rec.open("transport.run_sync", procs[i].op(), root)
			stats[i], errs[i] = transport.RunSync(ctx, trs[i], procs[i], 0, nil)
			t.rec.close(parents[i])
			if errs[i] != nil {
				cancel()
			}
			closing := t.rec.open("transport.close", procs[i].op(), root)
			if err := trs[i].Close(); err != nil && errs[i] == nil {
				errs[i] = err
			}
			t.rec.close(closing)
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	for i, tr := range trs {
		o.msgs += stats[i].Delivered
		t.add("sched.msgs", float64(stats[i].Delivered))
		if i == 0 {
			t.add("sched.rounds", float64(stats[i].Rounds))
		}
		if inst, ok := tr.Transport.(transport.Instrumented); ok {
			st := inst.Stats()
			t.add("transport.frames", float64(st.FramesSent))
			t.add("transport.wire_bytes", float64(st.BytesSent))
			t.add("transport.reconnects", float64(st.Reconnects))
		}
		if room := 4*maxFrameSample - len(t.frames); room > 0 {
			t.frames = append(t.frames, tr.sample[:min(room, len(tr.sample))]...)
		}
	}
	return nil
}

func (r *acsRunner) replay(t *tracer, budget time.Duration) {
	t.replayKernels(budget)
	t.replayFrameCodec()
}

func countMessages(events []rbcEvent) int {
	n := 0
	for _, ev := range events {
		if !ev.open {
			n++
		}
	}
	return n
}

// replayBracha feeds one node's captured rbc traffic, in order, into a
// fresh broadcast.BrachaState, opening and pruning epochs where the
// live node did.
func replayBracha(n, f, self int, equivocator bool, proposals []vec.V, events []rbcEvent) {
	bs := broadcast.NewBrachaState(n, f, self)
	pruneLo := 0
	for _, ev := range events {
		if !ev.open {
			bs.Handle(sched.Message{From: ev.from, To: self, Tag: broadcast.BrachaTag, Data: ev.data})
			bs.TakeDeliveries()
			continue
		}
		if lo := ev.epoch - 1; lo > pruneLo {
			old := pruneLo
			pruneLo = lo
			bs.PruneInstances(func(_ int, id string) bool {
				e, ok := broadcast.ParseEpochID(id)
				return ok && e >= old && e < lo
			})
		}
		id := broadcast.EpochID(ev.epoch)
		value := broadcast.EncodeVec(proposals[ev.epoch])
		if equivocator {
			// The equivocator hand-crafts its INITs and feeds only its
			// local instance.
			bs.Handle(sched.Message{From: self, To: self, Tag: broadcast.BrachaTag, Data: broadcast.EncodeInit(self, id, value)})
		} else {
			bs.Broadcast(id, value)
		}
		bs.TakeDeliveries()
	}
}
