package acs

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"relaxedbvc/internal/broadcast"
	"relaxedbvc/internal/sched"
	"relaxedbvc/internal/vec"
)

// refNode is the per-message ACS node this package shipped before votes
// travelled as bodies: every ECHO/READY and every BVAL/AUX is its own
// message, each rbc message is routed by its id and handed to the
// per-message BrachaState.AppendHandle, and each 12-byte aba message
// finds its epoch on its own. Its ABA instances are the map-based
// refABAInst (which TestABAMatchesReference holds to the flat tallies),
// it builds a fresh state for every epoch, and its pump votes every open
// epoch on every pass. It opens and seals epochs by Node's rules, and is
// kept as the referee of TestACSNodeMatchesReference.
type refNode struct {
	cfg     Config
	rbc     *broadcast.BrachaState
	epochs  map[int]*refEpochState
	cur     int
	top     int
	done    bool
	sealed  []EpochDecision
	stats   Stats
	pruneLo int
}

type refEpochState struct {
	abas         []*refABAInst
	delivered    []vec.V
	rawDelivered []bool
	zeroCast     bool
}

// encodeABA is one vote as a message of its own.
func encodeABA(epoch, slot, round int, phase, value byte) []byte {
	return appendABA(nil, epoch, slot, round, phase, value)
}

func newRefNode(cfg Config) *refNode {
	return &refNode{cfg: cfg, rbc: broadcast.NewBrachaState(cfg.N, cfg.F, cfg.Self), epochs: make(map[int]*refEpochState), top: -1}
}

func (n *refNode) epoch(e int) *refEpochState {
	es := n.epochs[e]
	if es == nil {
		es = &refEpochState{delivered: make([]vec.V, n.cfg.N), rawDelivered: make([]bool, n.cfg.N)}
		for s := 0; s < n.cfg.N; s++ {
			es.abas = append(es.abas, newRefABAInst(n.cfg.N, n.cfg.F, n.cfg.Self, e, s))
		}
		n.epochs[e] = es
	}
	return es
}

func (n *refNode) Start() []sched.Outgoing {
	if n.cfg.Behavior == Mute || len(n.cfg.Proposals) == 0 {
		n.done = true
		return nil
	}
	return n.pump(nil)
}

func (n *refNode) Done() bool { return n.done }

func (n *refNode) Step(round int, delivered []sched.Message) []sched.Outgoing {
	if n.done {
		return nil
	}
	var outs []sched.Outgoing
	for _, m := range delivered {
		switch m.Tag {
		case broadcast.BrachaTag:
			outs = n.handleRBC(outs, m)
		case ABATag:
			outs = n.handleABA(outs, m)
		}
	}
	return n.pump(outs)
}

func (n *refNode) open(outs []sched.Outgoing, e int) []sched.Outgoing {
	id := broadcast.EpochID(e)
	own := sched.Message{
		From: n.cfg.Self, To: n.cfg.Self, Tag: broadcast.BrachaTag,
		Data: broadcast.EncodeInit(n.cfg.Self, id, broadcast.EncodeVec(n.cfg.Proposals[e])),
	}
	if n.cfg.Behavior == Equivocate {
		for j := 0; j < n.cfg.N; j++ {
			if j == n.cfg.Self {
				continue
			}
			lie := n.cfg.Proposals[e].Clone()
			for k := range lie {
				lie[k] += float64(j + 1)
			}
			outs = append(outs, sched.Outgoing{
				To: j, Tag: broadcast.BrachaTag,
				Data: broadcast.EncodeInit(n.cfg.Self, id, broadcast.EncodeVec(lie)),
			})
		}
	} else {
		outs = append(outs, sched.Outgoing{To: sched.Broadcast, Tag: broadcast.BrachaTag, Data: own.Data})
	}
	return n.rbc.AppendHandle(outs, own)
}

func (n *refNode) liveEpoch(e int) bool {
	return e >= n.pruneLo && e <= windowThreshold(n.cur) && e < len(n.cfg.Proposals)
}

func (n *refNode) handleRBC(outs []sched.Outgoing, m sched.Message) []sched.Outgoing {
	var id []byte
	if len(m.Data) >= 3 {
		id, _, _ = broadcast.ReadField(m.Data[3:])
	}
	if e, ok := broadcast.ParseEpochID(string(id)); !ok || !n.liveEpoch(e) {
		return outs
	}
	return n.rbc.AppendHandle(outs, m)
}

func (n *refNode) handleABA(outs []sched.Outgoing, m sched.Message) []sched.Outgoing {
	if len(m.Data) != abaVoteLen {
		return outs
	}
	epoch, slot, round, phase, value := decodeABA(m.Data)
	if slot >= n.cfg.N || !n.liveEpoch(epoch) || phase > abaTerm || m.From < 0 || m.From >= n.cfg.N {
		return outs
	}
	return append(outs, n.epoch(epoch).abas[slot].handle(m.From, round, phase, value)...)
}

func (n *refNode) pump(outs []sched.Outgoing) []sched.Outgoing {
	opened := 0
	for {
		progress := false
		for _, d := range n.rbc.TakeDeliveries() {
			e, ok := broadcast.ParseEpochID(d.ID)
			if !ok || !n.liveEpoch(e) {
				continue
			}
			if es := n.epoch(e); !es.rawDelivered[d.Sender] {
				es.rawDelivered[d.Sender] = true
				es.delivered[d.Sender] = n.decodeValue(d.Value)
				progress = true
			}
		}
		if n.cur >= len(n.cfg.Proposals) {
			if !progress {
				break
			}
			continue
		}
		for e := n.cur; e <= n.top; e++ {
			es := n.epoch(e)
			for s := 0; s < n.cfg.N; s++ {
				if es.rawDelivered[s] && !es.abas[s].haveInput {
					outs = append(outs, es.abas[s].input(1)...)
					progress = true
				}
			}
			ones := 0
			for _, a := range es.abas {
				if a.decided && a.decision == 1 {
					ones++
				}
			}
			if !es.zeroCast && ones >= auxQuorum(n.cfg.N, n.cfg.F) {
				es.zeroCast = true
				for _, a := range es.abas {
					if !a.haveInput {
						outs = append(outs, a.input(0)...)
					}
				}
				progress = true
			}
		}
		es := n.epochs[n.cur] // voted above when it is open
		ready := n.cur <= n.top && es.zeroCast
		for s := 0; ready && s < n.cfg.N; s++ {
			if a := es.abas[s]; !a.decided || (a.decision == 1 && !es.rawDelivered[s]) {
				ready = false
			}
		}
		if ready {
			var subset []int
			var values []vec.V
			for s, a := range es.abas {
				if a.decision == 1 {
					subset = append(subset, s)
					values = append(values, es.delivered[s])
				}
			}
			output, delta := decideEpoch(values, n.cfg.F, n.cfg.NormP)
			n.sealed = append(n.sealed, EpochDecision{Epoch: n.cur, Subset: subset, Values: values, Output: output, Delta: delta})
			n.stats.Epochs++
			n.stats.Slots += len(subset)
			for _, a := range es.abas {
				if a.decided {
					n.stats.ABARounds += a.decidedRound + 1
				}
			}
			n.cur++
			n.prune()
			n.done = n.cur >= len(n.cfg.Proposals)
			progress = true
		}
		if next, depth := n.top+1, n.top-n.cur+1; opened < opensPerStep && next < len(n.cfg.Proposals) && depth < pipelineDepth {
			n.top = next
			outs = n.open(outs, next)
			opened++
			progress = true
		}
		if !progress {
			break
		}
	}
	return outs
}

func (n *refNode) decodeValue(b []byte) vec.V {
	v, err := broadcast.DecodeVec(b)
	if err == nil && len(v) == n.cfg.D {
		return v
	}
	if n.cfg.Default != nil {
		return n.cfg.Default.Clone()
	}
	return vec.New(n.cfg.D)
}

func (n *refNode) prune() {
	lo := n.cur - 1
	if lo <= n.pruneLo {
		return
	}
	for e := n.pruneLo; e < lo; e++ {
		delete(n.epochs, e)
	}
	old := n.pruneLo
	n.pruneLo = lo
	n.rbc.PruneInstances(func(_ int, id string) bool {
		e, ok := broadcast.ParseEpochID(id)
		return ok && e >= old && e < lo
	})
}

// refScript is one seeded referee run: a stream shape, a scripted
// adversary on node n-1, duplication, and garbage for node 0's inbox.
type refScript struct {
	n, f, epochs int
	behavior     Behavior
	dup          float64
	at           int
	extra        []sched.Message
}

func newRefScript(seed int64) refScript {
	rng := rand.New(rand.NewSource(seed))
	n := []int{4, 7, 10}[seed%3]
	s := refScript{
		n: n, f: (n - 1) / 3, epochs: 1 + rng.Intn(4),
		behavior: Behavior(seed / 3 % 3), dup: []float64{0, 0.2}[seed/9%2],
		at: rng.Intn(12),
	}
	for k := rng.Intn(4); k > 0; k-- {
		s.extra = append(s.extra, garbageMessage(rng, s.n, s.epochs))
	}
	return s
}

// garbageMessage is one message a faulty node n-1, or a process that is
// no process, could put on node 0's links: a well-formed or damaged
// single vote of either layer. Both nodes must read it the same way.
func garbageMessage(rng *rand.Rand, n, epochs int) sched.Message {
	m := sched.Message{From: n - 1, To: 0}
	if rng.Intn(8) == 0 {
		m.From = n + rng.Intn(3)
	}
	epoch, sender := rng.Intn(epochs+2), rng.Intn(n+1)
	if rng.Intn(2) == 0 {
		m.Tag = ABATag
		m.Data = encodeABA(epoch, sender, rng.Intn(4), byte(rng.Intn(3)), byte(rng.Intn(2)))
	} else {
		m.Tag = broadcast.BrachaTag
		m.Data = broadcast.EncodeInit(sender, broadcast.EpochID(epoch), broadcast.EncodeVec(vec.Of(float64(rng.Intn(3)), 1)))
		m.Data[0] = byte(rng.Intn(3))
	}
	if rng.Intn(6) == 0 {
		m.Data = m.Data[:rng.Intn(len(m.Data))]
	}
	return m
}

// refRun is what a referee run must reproduce.
type refRun struct {
	Decisions [][]EpochDecision
	Stats     []Stats
	Rounds    int
}

func (s refScript) run(t *testing.T, build func(cfg Config) sched.SyncProcess, inspect func(sched.SyncProcess) ([]EpochDecision, Stats)) refRun {
	rng := rand.New(rand.NewSource(int64(1000*s.n + s.epochs)))
	props := genProposals(rng, s.epochs, s.n, 2)
	procs := make([]sched.SyncProcess, s.n)
	for i := range procs {
		cfg := Config{N: s.n, F: s.f, Self: i, D: 2, Proposals: make([]vec.V, s.epochs)}
		for e := range props {
			cfg.Proposals[e] = props[e][i]
		}
		if i == s.n-1 {
			cfg.Behavior = s.behavior
		}
		procs[i] = build(cfg)
	}
	inner := procs[0]
	procs[0] = &refTamper{SyncProcess: inner, at: s.at, extra: s.extra}
	eng := sched.NewSyncEngine(procs)
	if s.dup > 0 {
		eng.Faults = &sched.LinkFaults{Seed: 42, LinkProfile: sched.LinkProfile{DupProb: s.dup}}
	}
	rounds, err := eng.Run()
	if err != nil {
		t.Fatalf("%+v: engine: %v", s, err)
	}
	procs[0] = inner
	r := refRun{Rounds: rounds}
	for _, p := range procs {
		d, st := inspect(p)
		r.Decisions = append(r.Decisions, d)
		r.Stats = append(r.Stats, st)
	}
	return r
}

// refTamper appends extra to the inbox of round at.
type refTamper struct {
	sched.SyncProcess
	at    int
	extra []sched.Message
}

func (p *refTamper) Step(round int, delivered []sched.Message) []sched.Outgoing {
	if round == p.at {
		delivered = append(delivered[:len(delivered):len(delivered)], p.extra...)
	}
	return p.SyncProcess.Step(round, delivered)
}

// TestACSNodeMatchesReference runs every script on body-sending nodes and
// on per-message refNodes — n ∈ {4, 7, 10}, an honest, equivocating or
// mute node n-1, duplication 0 or 0.2, garbage votes in node 0's inbox —
// and requires the same decisions, subsets and fingerprints at every
// node, the same Stats and the same round count.
func TestACSNodeMatchesReference(t *testing.T) {
	scripts := 1008
	if testing.Short() {
		scripts = 108
	}
	garbage, late := 0, 0
	for seed := int64(0); seed < int64(scripts); seed++ {
		s := newRefScript(seed)
		got := s.run(t, func(cfg Config) sched.SyncProcess {
			node, err := NewNode(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return node
		}, func(p sched.SyncProcess) ([]EpochDecision, Stats) {
			return p.(*Node).Decisions(), p.(*Node).Stats()
		})
		want := s.run(t, func(cfg Config) sched.SyncProcess { return newRefNode(cfg) },
			func(p sched.SyncProcess) ([]EpochDecision, Stats) {
				return p.(*refNode).sealed, p.(*refNode).stats
			})
		label := fmt.Sprintf("seed %d (n=%d behavior=%d dup=%g epochs=%d, %d garbage at round %d)",
			seed, s.n, s.behavior, s.dup, s.epochs, len(s.extra), s.at)
		if got.Rounds != want.Rounds || !reflect.DeepEqual(got.Stats, want.Stats) {
			t.Fatalf("%s: %d rounds, stats %+v; reference %d rounds, stats %+v", label, got.Rounds, got.Stats, want.Rounds, want.Stats)
		}
		for i := range got.Decisions {
			if g, w := Fingerprint(got.Decisions[i]), Fingerprint(want.Decisions[i]); g != w || !reflect.DeepEqual(got.Decisions[i], want.Decisions[i]) {
				t.Fatalf("%s: node %d sealed %s, reference %s", label, i, g, w)
			}
		}
		garbage += len(s.extra)
		if got.Stats[0].ABARounds > s.n*s.epochs { // some slot decided past round 0
			late++
		}
	}
	if garbage < scripts || late < scripts/4 {
		t.Fatalf("scripts too weak: %d garbage messages, %d of %d runs with a late ABA decision", garbage, late, scripts)
	}
	t.Logf("%d scripts, %d garbage messages, %d runs with a late ABA decision", scripts, garbage, late)
}
