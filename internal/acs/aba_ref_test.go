package acs

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"relaxedbvc/internal/sched"
)

// refABAInst is the map-based binary agreement this package shipped
// before the flat tallies — three maps per round state, a dense round
// slice grown up to any round a message names, sends returned and
// re-appended at every level of the cascade. It is kept verbatim as the
// referee of TestABAMatchesReference.

// refABARound is the per-round message state of one instance.
type refABARound struct {
	bvalSent  [2]bool         // we broadcast BVAL(b) this round
	bval      [2]map[int]bool // senders of BVAL(b)
	binValues [2]bool         // values with 2f+1 BVALs
	auxSent   bool
	aux       map[int]byte // sender -> AUX value
	advanced  bool         // we moved past this round
}

// refABAInst is one binary-agreement instance — MMR-style BVAL/AUX rounds
// with the deterministic common coin. It is driven purely by handle()
// and input(); a decided instance stops emitting (all correct processes
// decide in the same lockstep round, so nobody is left waiting).
type refABAInst struct {
	n, f, self  int
	epoch, slot int

	haveInput bool
	est       byte
	round     int

	decided      bool
	decision     byte
	decidedRound int

	rounds []*refABARound
}

func newRefABAInst(n, f, self, epoch, slot int) *refABAInst {
	return &refABAInst{n: n, f: f, self: self, epoch: epoch, slot: slot}
}

func (a *refABAInst) roundState(r int) *refABARound {
	for len(a.rounds) <= r {
		a.rounds = append(a.rounds, &refABARound{
			bval: [2]map[int]bool{make(map[int]bool), make(map[int]bool)},
			aux:  make(map[int]byte),
		})
	}
	return a.rounds[r]
}

// input sets this process's vote (once) and starts round 0.
func (a *refABAInst) input(v byte) []sched.Outgoing {
	if a.haveInput {
		return nil
	}
	a.haveInput = true
	a.est = v & 1
	outs := a.castBval(0, a.est)
	return append(outs, a.tryAdvance()...)
}

// castBval broadcasts BVAL(r, b) once and feeds the local copy back.
func (a *refABAInst) castBval(r int, b byte) []sched.Outgoing {
	rd := a.roundState(r)
	if rd.bvalSent[b] {
		return nil
	}
	rd.bvalSent[b] = true
	data := encodeABA(a.epoch, a.slot, r, abaBval, b)
	outs := []sched.Outgoing{{To: sched.Broadcast, Tag: ABATag, Data: data}}
	return append(outs, a.handle(a.self, r, abaBval, b)...)
}

// handle processes one BVAL/AUX message (messages for any round are
// accepted; thresholds are round-local, so early traffic simply
// accumulates). It returns protocol sends, including cascades from
// locally fed-back copies.
func (a *refABAInst) handle(from, round int, phase, value byte) []sched.Outgoing {
	value &= 1
	rd := a.roundState(round)
	var outs []sched.Outgoing
	switch phase {
	case abaBval:
		if rd.bval[value][from] {
			return nil
		}
		rd.bval[value][from] = true
		cnt := len(rd.bval[value])
		// Relay on f+1 (at least one correct process voted value).
		if cnt >= relayQuorum(a.f) && !rd.bvalSent[value] {
			outs = append(outs, a.castBval(round, value)...)
		}
		// bin_values admission on 2f+1.
		if cnt >= admitQuorum(a.f) && !rd.binValues[value] {
			rd.binValues[value] = true
			if !rd.auxSent {
				rd.auxSent = true
				data := encodeABA(a.epoch, a.slot, round, abaAux, value)
				outs = append(outs, sched.Outgoing{To: sched.Broadcast, Tag: ABATag, Data: data})
				outs = append(outs, a.handle(a.self, round, abaAux, value)...)
			}
			outs = append(outs, a.tryAdvance()...)
		}
	case abaAux:
		if _, dup := rd.aux[from]; dup {
			return nil
		}
		rd.aux[from] = value
		outs = append(outs, a.tryAdvance()...)
	}
	return outs
}

// tryAdvance closes the current round when n-f AUX values, all inside
// bin_values, have arrived: unanimous AUX matching the coin decides;
// unanimous AUX against the coin adopts the value; a mixed AUX set
// adopts the coin. A decided instance stops advancing — in lockstep
// delivery every correct process holds the identical instance state, so
// all of them decide in the same round and none is left behind.
func (a *refABAInst) tryAdvance() []sched.Outgoing {
	var outs []sched.Outgoing
	for !a.decided && a.haveInput {
		r := a.round
		rd := a.roundState(r)
		if rd.advanced {
			a.round++
			continue
		}
		if !rd.binValues[0] && !rd.binValues[1] {
			return outs
		}
		var vals [2]bool
		valid := 0
		for _, v := range rd.aux {
			if rd.binValues[v] {
				valid++
				vals[v] = true
			}
		}
		if valid < auxQuorum(a.n, a.f) {
			return outs
		}
		rd.advanced = true
		c := coin(a.epoch, a.slot, r)
		var next byte
		switch {
		case vals[0] != vals[1]: // unanimous AUX value
			b := byte(0)
			if vals[1] {
				b = 1
			}
			if b == c {
				a.decided = true
				a.decision = b
				a.decidedRound = r
			}
			next = b
		default: // both values seen: adopt the coin
			next = c
		}
		a.est = next
		a.round = r + 1
		if !a.decided {
			outs = append(outs, a.castBval(a.round, next)...)
		}
	}
	return outs
}

// sameVotes reports whether body holds, vote by vote, the broadcast aba
// messages outs.
func sameVotes(body []byte, outs []sched.Outgoing) bool {
	if len(body) != abaVoteLen*len(outs) {
		return false
	}
	for i, o := range outs {
		if o.To != sched.Broadcast || o.Tag != ABATag || !bytes.Equal(body[abaVoteLen*i:abaVoteLen*(i+1)], o.Data) {
			return false
		}
	}
	return true
}

// TestABAMatchesReference drives the flat-tally abaInst and the
// map-based reference with the same seeded scripts — duplicates,
// arbitrary sender order, both values from the same sender, traffic for
// rounds ahead of the instance, traffic after the decision, the input
// arriving early, late or never — and requires every call's body to be
// the reference's sends (bytes, order), one 12-byte vote per message,
// and the same decided/decision/decidedRound, round and estimate after
// each.
func TestABAMatchesReference(t *testing.T) {
	scripts, sends, decided, lateRounds, afterDecision := 0, 0, 0, 0, 0
	for _, n := range []int{4, 7, 10} {
		f := (n - 1) / 3
		for seed := int64(0); seed < 400; seed++ {
			rng := rand.New(rand.NewSource(seed*37 + int64(n)))
			self, epoch, slot := rng.Intn(n), rng.Intn(5), rng.Intn(n)
			got := &newABAInsts(n, f, self, epoch)[slot]
			want := newRefABAInst(n, f, self, epoch, slot)
			// Most senders vote the majority value so quorums form; the
			// spread decides how often a round sees both values.
			major, spread := byte(rng.Intn(2)), rng.Intn(4)
			inputAt := rng.Intn(6 * n) // some scripts end before it
			steps := 30*n + rng.Intn(30*n)
			for step := 0; step < steps; step++ {
				label := fmt.Sprintf("n=%d seed=%d step=%d", n, seed, step)
				var g []byte
				var w []sched.Outgoing
				if step == inputAt {
					v := byte(rng.Intn(2))
					g, w = got.input(nil, v), want.input(v)
				} else {
					value := major
					if rng.Intn(4) < spread {
						value ^= 1
					}
					// Rounds near the instance's own, sometimes ahead of it.
					round := want.round + rng.Intn(3) - 1
					if round < 0 || rng.Intn(8) == 0 {
						round = rng.Intn(want.round + 4)
					}
					from, phase := rng.Intn(n), byte(rng.Intn(2))
					if want.decided {
						afterDecision++
					}
					g, w = got.handle(nil, from, round, phase, value), want.handle(from, round, phase, value)
				}
				if !sameVotes(g, w) {
					t.Fatalf("%s: sends differ\n got %v\nwant %v", label, g, w)
				}
				if got.decided != want.decided || got.decision != want.decision || got.decidedRound != want.decidedRound ||
					got.round != want.round || got.est != want.est || got.haveInput != want.haveInput {
					t.Fatalf("%s: state differs: got decided=%v/%d@%d round=%d est=%d, want decided=%v/%d@%d round=%d est=%d", label,
						got.decided, got.decision, got.decidedRound, got.round, got.est,
						want.decided, want.decision, want.decidedRound, want.round, want.est)
				}
				sends += len(w)
			}
			if got.decided {
				decided++
				if got.decidedRound > 0 {
					lateRounds++
				}
			}
			scripts++
		}
	}
	if scripts < 1000 || sends == 0 || decided < scripts/4 || lateRounds < scripts/20 || afterDecision == 0 {
		t.Fatalf("scripts too weak: %d scripts, %d sends, %d decided (%d past round 0), %d post-decision messages",
			scripts, sends, decided, lateRounds, afterDecision)
	}
}
