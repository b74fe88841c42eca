package broadcast

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"relaxedbvc/internal/sched"
)

// refDSProcess is the single-instance Dolev-Strong machine this package
// ran before DSNode, one sched.SyncEngine per commander, kept with the
// sequential loop below as the referee of TestDSNodeMatchesSequential:
// its wire is the bare chain, one message per chain and recipient.
type refDSProcess struct {
	n, f, self, commander int
	scheme                *SigScheme
	input                 []byte
	behavior              DSBehavior
	accepted              map[string]dsChain
	forwarded             map[string]bool
	decided, defaultVal   []byte
	done                  bool
	drops                 int
}

func (p *refDSProcess) extendChain(c dsChain) dsChain {
	payload := dsPayload(c.value, c.signers)
	return dsChain{
		value:   c.value,
		signers: append(append([]int(nil), c.signers...), p.self),
		sigs:    append(append([][]byte(nil), c.sigs...), p.scheme.Sign(p.self, payload)),
	}
}

func (p *refDSProcess) emit(round int, chains []dsChain) []sched.Outgoing {
	var outs []sched.Outgoing
	for to := 0; to < p.n; to++ {
		if to == p.self {
			continue
		}
		send := chains
		if p.behavior != nil {
			send = p.behavior.Send(round, to, chains, func(v []byte, signers []int) dsChain {
				base := dsChain{value: v, signers: signers}
				if len(signers) == 0 {
					return dsChain{value: v, signers: []int{p.self}, sigs: [][]byte{p.scheme.Sign(p.self, dsPayload(v, nil))}}
				}
				return p.extendChain(base)
			})
			if len(send) < len(chains) {
				p.drops += len(chains) - len(send)
			}
		}
		for _, c := range send {
			outs = append(outs, sched.Outgoing{To: to, Tag: "ds", Data: appendChain(nil, c)})
		}
	}
	return outs
}

func (p *refDSProcess) Start() []sched.Outgoing {
	if p.self != p.commander {
		if p.behavior != nil {
			return p.emit(0, nil)
		}
		return nil
	}
	c := dsChain{value: p.input, signers: []int{p.self}, sigs: [][]byte{p.scheme.Sign(p.self, dsPayload(p.input, nil))}}
	p.accepted[string(p.input)] = c
	p.forwarded[string(p.input)] = true
	return p.emit(0, []dsChain{c})
}

func (p *refDSProcess) Step(round int, delivered []sched.Message) []sched.Outgoing {
	var fresh []dsChain
	for _, m := range delivered {
		if m.Tag != "ds" {
			continue
		}
		c, err := decodeChain(m.Data, p.n)
		if err != nil || len(c.signers) < round+1 || !validChain(p.scheme, p.commander, c) {
			continue
		}
		key := string(c.value)
		if p.forwarded[key] {
			continue
		}
		p.accepted[key] = c
		p.forwarded[key] = true
		if !pathContains(c.signers, p.self) && len(c.signers) <= p.f {
			fresh = append(fresh, p.extendChain(c))
		}
	}
	if round < p.f {
		return p.emit(round+1, fresh)
	}
	if len(p.accepted) == 1 {
		for _, c := range p.accepted {
			p.decided = c.value
		}
	} else {
		p.decided = p.defaultVal
	}
	p.done = true
	return nil
}

func (p *refDSProcess) Done() bool { return p.done }

// dsRun is what TestDSNodeMatchesSequential compares: per process the
// decisions and drops, and the run's rounds and messages less the
// injected duplicates (whose rolls differ between one engine and n).
type dsRun struct {
	decided         [][][]byte
	drops           []int
	rounds, payload int
}

// refDolevStrong is the sequential per-commander loop: n engines, one
// instance each, sharing the scheme and the behaviours.
func refDolevStrong(t *testing.T, f int, inputs [][]byte, scheme *SigScheme, byz map[int]DSBehavior, def []byte, faults *sched.LinkFaults) dsRun {
	n := len(inputs)
	run := dsRun{decided: make([][][]byte, n), drops: make([]int, n)}
	for i := range run.decided {
		run.decided[i] = make([][]byte, n)
	}
	for c := 0; c < n; c++ {
		procs := make([]sched.SyncProcess, n)
		refs := make([]*refDSProcess, n)
		for i := range procs {
			refs[i] = &refDSProcess{n: n, f: f, self: i, commander: c, scheme: scheme, behavior: byz[i], defaultVal: def,
				accepted: make(map[string]dsChain), forwarded: make(map[string]bool)}
			if i == c {
				refs[i].input = inputs[c]
			}
			procs[i] = refs[i]
		}
		eng := sched.NewSyncEngine(procs)
		eng.Faults = faults
		rounds, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		run.rounds = max(run.rounds, rounds)
		run.payload += eng.Messages - eng.FaultStats.Duplicated
		for i, ref := range refs {
			run.decided[i][c] = ref.decided
			run.drops[i] += ref.drops
		}
	}
	return run
}

// TestDSNodeMatchesSequential drives DSNode (n instances, one engine)
// and the sequential loop it replaced through the same seeded scripts —
// n in 3..10, any f < n, up to f equivocators (a Byzantine commander
// when its map is not empty, a relay that falls silent either way),
// random, repeated, empty and nil inputs, duplication faults on and off
// — and requires per process the same decisions (bytes and nil-ness)
// and drops, and the same rounds and messages.
func TestDSNodeMatchesSequential(t *testing.T) {
	scripts, commanders := 1000, 0
	if testing.Short() {
		scripts = 200
	}
	for seed := 0; seed < scripts; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		n := 3 + rng.Intn(8)
		f := rng.Intn(n)
		inputs := make([][]byte, n)
		for i := range inputs {
			switch r := rng.Intn(10); {
			case r == 0: // nil
			case r == 1:
				inputs[i] = []byte{}
			case r < 4 && i > 0:
				inputs[i] = inputs[rng.Intn(i)]
			default:
				inputs[i] = make([]byte, 1+rng.Intn(12))
				rng.Read(inputs[i])
			}
		}
		byz := make(map[int]DSBehavior)
		for _, id := range rng.Perm(n)[:rng.Intn(f+1)] {
			values := make(map[int][]byte)
			for to := 0; to < n; to++ {
				if to != id && rng.Intn(3) == 0 {
					values[to] = []byte{byte(rng.Intn(3))}
				}
			}
			if len(values) > 0 {
				commanders++
			}
			byz[id] = NewDSEquivocator(values)
		}
		var faults *sched.LinkFaults
		if rng.Intn(2) == 0 {
			faults = &sched.LinkFaults{Seed: rng.Int63(), LinkProfile: sched.LinkProfile{DupProb: 0.3}}
		}
		scheme, def := NewSigScheme(n, int64(seed)), []byte("def")
		want := refDolevStrong(t, f, inputs, scheme, byz, def, faults)
		nodes := make([]*DSNode, n)
		for i := range nodes {
			nodes[i] = NewDSNode(n, f, i, inputs[i], scheme, byz[i], def)
		}
		eng := runEngine(t, nodes, faults, nil)
		label := fmt.Sprintf("seed %d n=%d f=%d byzantine %d dup %v", seed, n, f, len(byz), faults != nil)
		if eng.RoundsRun != want.rounds || eng.Messages-eng.FaultStats.Duplicated != want.payload {
			t.Fatalf("%s: %d rounds %d messages, referee %d and %d", label, eng.RoundsRun, eng.Messages-eng.FaultStats.Duplicated, want.rounds, want.payload)
		}
		for i, node := range nodes {
			if node.Drops() != want.drops[i] {
				t.Fatalf("%s: process %d drops %d, referee %d", label, i, node.Drops(), want.drops[i])
			}
			for c, v := range want.decided[i] {
				if got := node.Decided()[c]; !bytes.Equal(got, v) || (got == nil) != (v == nil) {
					t.Fatalf("%s: process %d commander %d: decided %x, referee %x", label, i, c, got, v)
				}
			}
		}
	}
	if commanders < scripts/4 {
		t.Fatalf("scripts too weak: %d Byzantine commanders in %d scripts", commanders, scripts)
	}
}
