package acs

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"relaxedbvc/internal/broadcast"
	"relaxedbvc/internal/sched"
	"relaxedbvc/internal/vec"
)

// tamper is a node whose inbox gets extra messages appended in one
// round — traffic a Byzantine peer (or a broken transport) could put on
// the wire. after, if set, runs right after that round's Step.
type tamper struct {
	*Node
	at    int
	extra []sched.Message
	after func()
}

func (p *tamper) Step(round int, delivered []sched.Message) []sched.Outgoing {
	if round != p.at {
		return p.Node.Step(round, delivered)
	}
	outs := p.Node.Step(round, append(delivered[:len(delivered):len(delivered)], p.extra...))
	if p.after != nil {
		p.after()
	}
	return outs
}

// newCluster is buildCluster for benchmarks and fuzz targets too: cfg
// gives N, F, D and NormP, props[e][i] is node i's epoch-e proposal.
func newCluster(tb testing.TB, cfg Config, props [][]vec.V, behaviors map[int]Behavior) ([]*Node, []sched.SyncProcess) {
	nodes := make([]*Node, cfg.N)
	procs := make([]sched.SyncProcess, cfg.N)
	if cfg.Lane == nil {
		cfg.Lane = NewLane() // one per cluster, as the facade does per run
	}
	for i := range nodes {
		cfg.Self, cfg.Behavior = i, behaviors[i]
		cfg.Proposals = make([]vec.V, len(props))
		for e := range props {
			cfg.Proposals[e] = props[e][i]
		}
		node, err := NewNode(cfg)
		if err != nil {
			tb.Fatal(err)
		}
		nodes[i], procs[i] = node, node
	}
	return nodes, procs
}

// runTampered runs a fresh n-node stream with extra delivered to node 0
// in round at, and returns the nodes.
func runTampered(t testing.TB, n, f int, props [][]vec.V, behaviors map[int]Behavior, at int, extra []sched.Message, after func(*Node)) []*Node {
	nodes, procs := newCluster(t, Config{N: n, F: f, D: len(props[0][0])}, props, behaviors)
	tp := &tamper{Node: nodes[0], at: at, extra: extra}
	if after != nil {
		tp.after = func() { after(nodes[0]) }
	}
	procs[0] = tp
	if _, err := sched.NewSyncEngine(procs).Run(); err != nil {
		t.Fatalf("engine: %v", err)
	}
	nodes[0].Decisions() // join the cluster's lane
	return nodes
}

// One 12-byte aba message naming round 2^31 must cost what any other
// message costs. With a dense round slice it allocated one state per
// round up to the one named: 450 MB for round 2 000 000, the process
// for 2^32-1. A far round is not an error — in the asynchronous engines
// a correct peer can be many rounds ahead — so it is stored, sparsely.
func TestABAFarRoundIsConstantCost(t *testing.T) {
	const n, f, d, epochs = 4, 1, 2, 3
	props := genProposals(rand.New(rand.NewSource(23)), epochs, n, d)
	far := sched.Message{From: 3, To: 0, Tag: ABATag, Data: encodeABA(0, 1, 1<<31, abaBval, 1)}

	clean := buildCluster(t, n, f, d, props, nil)
	runCluster(t, clean, nil)

	node := buildCluster(t, n, f, d, props, nil)[0]
	node.Start()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	node.handleABA(far.From, far.Data)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 4<<10 {
		t.Fatalf("far-round message allocated %d bytes, want < 4 KiB", got)
	}
	if elapsed > time.Second {
		t.Fatalf("far-round message took %v", elapsed)
	}

	nodes := runTampered(t, n, f, props, nil, 1, []sched.Message{far}, nil)
	for i, node := range nodes {
		if got, want := Fingerprint(node.Decisions()), Fingerprint(clean[i].Decisions()); got != want {
			t.Fatalf("node %d sealed %s after a far-round message, clean run %s", i, got, want)
		}
	}
}

// stateProbes are the streams the state tests tamper with: all honest,
// where one epoch is open at a time, and with node 3 equivocating, where
// node 0 holds epochs 0 and 1 open after round at (epoch 1 opens in round
// 5, when epoch 0 casts its 0-votes, and epoch 0 seals in round 9).
var stateProbes = []struct {
	name      string
	behaviors map[int]Behavior
	at, open  int // node 0 holds open unsealed epochs after round at
}{
	{"honest", nil, 3, 1},
	{"pipelined", map[int]Behavior{3: Equivocate}, 6, 2},
}

// DESIGN §13.3's bound — a node holds O(pipeline depth) protocol state —
// must survive Byzantine traffic: messages that name no live instance
// are dropped before any state exists for them. Before, every distinct
// garbage (sender, id) opened an RBC instance that pump never read and
// prune never matched.
func TestACSGarbageCreatesNoState(t *testing.T) {
	for _, probe := range stateProbes {
		t.Run(probe.name, func(t *testing.T) {
			checkNoState(t, 4, 1, genProposals(rand.New(rand.NewSource(29)), 4, 4, 2), probe.behaviors, probe.at, probe.open, garbage(4, 4))
		})
	}
}

// garbage is 10 000 messages node 3, or a process that is none, could
// send node 0 in an n-node stream of the given length: each names no
// live instance, or fails framing.
func garbage(n, epochs int) []sched.Message {
	rng := rand.New(rand.NewSource(31))
	var out []sched.Message
	for len(out) < 10000 {
		k := len(out)
		m := sched.Message{From: 3, To: 0, Tag: broadcast.BrachaTag}
		switch k % 10 {
		case 0: // an id of another subsystem
			m.Data = rbcMessage(1, k%n, "x"+broadcast.EpochID(k))
		case 1: // an epoch past the stream
			m.Data = rbcMessage(2, k%n, broadcast.EpochID(epochs+k))
		case 2: // an epoch already garbage-collected, or negative
			m.Data = rbcMessage(1, k%n, broadcast.EpochID(-k))
		case 3: // a second spelling of a live epoch
			m.Data = rbcMessage(1, k%n, "e0"+broadcast.EpochID(k % epochs)[1:])
		case 4: // a sender that is no process
			m.Data = rbcMessage(1, n+k, broadcast.EpochID(k%epochs))
		case 5: // an origin that is no process
			m.From, m.Data = n+k, rbcMessage(1, k%n, broadcast.EpochID(k%epochs))
			if k%20 == 5 {
				m.From = -1 - k
			}
		case 6: // no such phase (3 opens a body), or a body that fails
			// framing after a live vote: it is dropped whole
			m.Data = rbcMessage(4+byte(k%250), k%n, broadcast.EpochID(k%epochs))
			if k%20 == 16 {
				live := rbcMessage(1, k%n, broadcast.EpochID(1)) // opens an instance
				bad := [][]byte{
					rbcMessage(0, k%n, broadcast.EpochID(1)), // an INIT
					rbcMessage(2, n+k%7, broadcast.EpochID(1)),
					live[:1+rng.Intn(len(live)-1)],
					{0},
				}[k/20%4]
				m.Data = append(append([]byte{3}, live...), bad...)
				if k%100 == 96 {
					m.Data = []byte{3}
				}
			}
		case 7: // truncated
			full := rbcMessage(1, k%n, broadcast.EpochID(k%epochs))
			m.Data = full[:rng.Intn(len(full))]
		case 8: // aba: no such slot, epoch past the stream, a body that
			// fails framing after a live vote
			m.Tag, m.Data = ABATag, encodeABA(k%epochs, n+k%1000, k, abaBval, 1)
			switch k % 40 {
			case 18:
				m.Data = encodeABA(epochs+k, k%n, 0, abaAux, 0)
			case 28: // a live vote that opens epoch 1, then a vote for slot n
				m.Data = append(encodeABA(1, k%n, k%3, abaBval, 1), encodeABA(0, n, 0, abaAux, 0)...)
			case 38: // the same live vote, then half a vote or a trailing byte
				m.Data = append(encodeABA(1, k%n, k%3, abaBval, 1), make([]byte, 1+k%200/40*5)...)
			}
		case 9: // aba: an origin that is no process, no such phase
			m.Tag, m.From, m.Data = ABATag, n+k, encodeABA(1, k%n, k, abaBval, 1)
			if k%20 == 9 {
				m.From, m.Data = 3, encodeABA(1, k%n, k, 2+byte(k%250), 1)
			}
		}
		out = append(out, m)
	}
	return out
}

// A stream's future epochs are live only one epoch past the newest open
// one, the slack prune already assumes. Before that bound, one BVAL and
// one ECHO from a Byzantine peer naming each later epoch of a 200-epoch
// stream left node 0 holding 199 epoch states and 202 Bracha instances.
func TestACSFutureEpochsCreateNoState(t *testing.T) {
	const n, f, d, epochs = 4, 1, 2, 200
	props := genProposals(rand.New(rand.NewSource(37)), epochs, n, d)
	for _, probe := range stateProbes {
		t.Run(probe.name, func(t *testing.T) {
			var future []sched.Message
			for e := probe.open + 1; e < epochs; e++ { // past the window [0, open]
				future = append(future,
					sched.Message{From: 3, To: 0, Tag: ABATag, Data: encodeABA(e, e%n, 0, abaBval, 1)},
					sched.Message{From: 3, To: 0, Tag: broadcast.BrachaTag, Data: rbcMessage(1, e%n, broadcast.EpochID(e))})
			}
			checkNoState(t, n, f, props, probe.behaviors, probe.at, probe.open, future)
		})
	}
}

// rbcMessage is an rbc message of the given phase for instance (sender,
// id) carrying a fixed 2-vector.
func rbcMessage(phase byte, sender int, id string) []byte {
	data := broadcast.EncodeInit(sender, id, broadcast.EncodeVec(vec.Of(1, 2)))
	data[0] = phase
	return data
}

// holdings is the protocol state a node holds: Bracha instances, epoch
// states, ABA rounds past the inline two, and unsealed epochs.
type holdings struct{ insts, epochs, rounds, open int }

func measure(node *Node) holdings {
	h := holdings{epochs: len(node.epochs)}
	if !node.done {
		h.open = node.top - node.cur + 1
	}
	node.rbc.PruneInstances(func(int, string) bool { h.insts++; return false })
	for _, es := range node.epochs {
		for i := range es.abas {
			h.rounds += len(es.abas[i].later)
		}
	}
	return h
}

// checkNoState runs a stream twice, once with extra delivered to node 0
// in round at, and requires node 0 to hold open unsealed epochs after
// that round in the clean run and the clean run's state right after it
// and at the end, and every node to seal the clean stream.
func checkNoState(t *testing.T, n, f int, props [][]vec.V, behaviors map[int]Behavior, at, open int, extra []sched.Message) {
	t.Helper()
	var cleanAt, dirtyAt holdings
	clean := runTampered(t, n, f, props, behaviors, at, nil, func(node *Node) { cleanAt = measure(node) })
	dirty := runTampered(t, n, f, props, behaviors, at, extra, func(node *Node) { dirtyAt = measure(node) })
	if cleanAt.insts == 0 || cleanAt.epochs == 0 || cleanAt.open != open {
		t.Fatalf("round %d is a poor probe: clean node holds %+v", at, cleanAt)
	}
	if dirtyAt != cleanAt {
		t.Fatalf("after %d extra messages node 0 holds %+v, clean run %+v", len(extra), dirtyAt, cleanAt)
	}
	if got, want := measure(dirty[0]), measure(clean[0]); got != want {
		t.Fatalf("at the end node 0 holds %+v, clean run %+v", got, want)
	}
	for i := range dirty {
		if got, want := Fingerprint(dirty[i].Decisions()), Fingerprint(clean[i].Decisions()); got != want {
			t.Fatalf("node %d sealed %s with extra traffic, clean run %s", i, got, want)
		}
	}
}
