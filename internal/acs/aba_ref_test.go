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
// re-appended at every level of the cascade. It is kept as the referee
// of TestABAMatchesReference, with the coin schedule and TERM votes
// added as maps: a set of TERM senders per value and the first round
// each sender's TERM counts in.

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
// with the deterministic common coin, plus TERM votes. It is driven
// purely by handle() and input(); a decided instance sends TERM once and
// stops advancing.
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

	termFrom  [2]map[int]bool // senders of TERM(v)
	termStart [2]map[int]int  // sender -> first round its TERM(v) counts in
}

func newRefABAInst(n, f, self, epoch, slot int) *refABAInst {
	return &refABAInst{n: n, f: f, self: self, epoch: epoch, slot: slot,
		termFrom:  [2]map[int]bool{make(map[int]bool), make(map[int]bool)},
		termStart: [2]map[int]int{make(map[int]int), make(map[int]int)}}
}

// refCoin is the common coin written out on its own: 1 in round 0, 0 in
// round 1, a SplitMix64 bit of (epoch, slot, round) after that.
func refCoin(epoch, slot, round int) byte {
	if round < 2 {
		return byte(1 - round)
	}
	x := uint64(epoch)*0x9e3779b97f4a7c15 + uint64(slot)<<32 + uint64(round)
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return byte(x & 1)
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
	if phase == abaTerm {
		return a.term(from, round, value)
	}
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

// term processes TERM(v) decided in round r: f+1 senders decide v;
// otherwise the sender's TERM counts as its BVAL(v) and AUX(v) in every
// round from max(current, r+1) on, cast now if that is the current round.
func (a *refABAInst) term(from, r int, v byte) []sched.Outgoing {
	if a.decided || a.termFrom[v][from] {
		return nil
	}
	a.termFrom[v][from] = true
	if len(a.termFrom[v]) >= a.f+1 {
		return a.decide(v, a.round)
	}
	start := a.round
	if r+1 > start {
		start = r + 1
	}
	a.termStart[v][from] = start
	if start != a.round {
		return nil
	}
	outs := a.handle(from, start, abaBval, v)
	return append(outs, a.handle(from, start, abaAux, v)...)
}

// decide records the decision and broadcasts TERM(v).
func (a *refABAInst) decide(v byte, r int) []sched.Outgoing {
	a.decided, a.decision, a.decidedRound = true, v, r
	return []sched.Outgoing{{To: sched.Broadcast, Tag: ABATag, Data: encodeABA(a.epoch, a.slot, r, abaTerm, v)}}
}

// enter opens round r: BVAL(est), then each TERM counting in r (senders
// ascending, value 0 first) as its sender's BVAL and AUX, while r is
// still the open round.
func (a *refABAInst) enter(r int, est byte) []sched.Outgoing {
	outs := a.castBval(r, est)
	for from := 0; from < a.n; from++ {
		for v := byte(0); v < 2; v++ {
			start, ok := a.termStart[v][from]
			if !ok || start > r || a.decided || a.round != r {
				continue
			}
			outs = append(outs, a.handle(from, r, abaBval, v)...)
			outs = append(outs, a.handle(from, r, abaAux, v)...)
		}
	}
	return outs
}

// tryAdvance closes the current round when n-f AUX values, all inside
// bin_values, have arrived: unanimous AUX matching the coin decides;
// unanimous AUX against the coin adopts the value; a mixed AUX set
// adopts the coin. A decided instance stops advancing.
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
		c := refCoin(a.epoch, a.slot, r)
		var next byte
		switch {
		case vals[0] != vals[1]: // unanimous AUX value
			b := byte(0)
			if vals[1] {
				b = 1
			}
			if b == c {
				outs = append(outs, a.decide(b, r)...)
			}
			next = b
		default: // both values seen: adopt the coin
			next = c
		}
		a.est = next
		a.round = r + 1
		if !a.decided {
			outs = append(outs, a.enter(a.round, next)...)
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
func TestABAMatchesReference(t *testing.T) { checkABAScripts(t, false) }

// TestABATermMatchesReference runs the same kind of scripts with one vote
// in forty a TERM: duplicates, both values from one sender, self-origin,
// rounds behind, at and ahead of the instance and far ones, before and
// after the decision. Some scripts must decide on f+1 TERMs.
func TestABATermMatchesReference(t *testing.T) { checkABAScripts(t, true) }

func checkABAScripts(t *testing.T, terms bool) {
	scripts, sends, decided, lateRounds, afterDecision, termDecided := 0, 0, 0, 0, 0, 0
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
					if terms && rng.Intn(40) == 0 {
						phase = abaTerm
						switch rng.Intn(4) {
						case 0:
							round = 1<<32 - 1 - rng.Intn(2)
						case 1:
							from = self
						}
					}
					if want.decided {
						afterDecision++
					}
					g, w = got.handle(nil, from, round, phase, value), want.handle(from, round, phase, value)
				}
				if !sameVotes(g, w) {
					t.Fatalf("%s: sends differ\n got %v\nwant %v", label, g, w)
				}
				if got.decided != want.decided || got.decision != want.decision || int(got.decidedRound) != want.decidedRound ||
					int(got.round) != want.round || got.est != want.est || got.haveInput != want.haveInput {
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
				if int(got.termCnt[got.decision]) >= termQuorum(f) {
					termDecided++
				}
			}
			scripts++
		}
	}
	if scripts < 1000 || sends == 0 || decided < scripts/4 || lateRounds < scripts/20 || afterDecision == 0 || terms && termDecided == 0 {
		t.Fatalf("scripts too weak: %d scripts, %d sends, %d decided (%d past round 0, %d on TERMs), %d post-decision messages",
			scripts, sends, decided, lateRounds, termDecided, afterDecision)
	}
	t.Logf("%d scripts, %d decided (%d past round 0, %d on TERMs)", scripts, decided, lateRounds, termDecided)
}

// silentNet runs one binary agreement among n correct processes under a
// seeded random delivery order: each process gets a random input at a
// random moment, and every vote reaches every peer. A process that has
// decided falls silent — of what it sends from then on only its TERM
// leaves, and that only when terms is set — which is harsher than abaInst
// itself, whose decided instances still relay. It returns each process's
// instance and whether two processes decided in round 0 while the others
// were still undecided (random seed 7's pattern in TestACSAsyncSchedules).
func silentNet(n int, seed int64, terms bool) ([]*abaInst, bool) {
	type vote struct {
		from, to int
		data     []byte
	}
	f := (n - 1) / 3
	rng := rand.New(rand.NewSource(seed))
	insts := make([]*abaInst, n)
	inputs := make([]int, n) // -1 once given
	for p := range insts {
		insts[p] = &newABAInsts(n, f, p, 4)[0]
		inputs[p] = rng.Intn(2)
	}
	var queue []vote
	pattern := false
	step := func(p int, act func(a *abaInst) []byte) {
		silent := insts[p].decided
		for body := act(insts[p]); len(body) > 0; body = body[abaVoteLen:] {
			_, _, _, phase, _ := decodeABA(body)
			term := phase == abaTerm
			send := term && terms || !term && !silent
			silent = silent || term
			if !send {
				continue
			}
			for to := 0; to < n; to++ {
				if to != p {
					queue = append(queue, vote{p, to, body[:abaVoteLen]})
				}
			}
		}
		round0, undecided := 0, 0
		for _, a := range insts {
			switch {
			case !a.decided:
				undecided++
			case a.decidedRound == 0:
				round0++
			}
		}
		pattern = pattern || round0 == 2 && undecided == n-2
	}
	for {
		var waiting []int
		for p, v := range inputs {
			if v >= 0 {
				waiting = append(waiting, p)
			}
		}
		if len(queue) == 0 && len(waiting) == 0 {
			return insts, pattern
		}
		if k := rng.Intn(len(queue) + len(waiting)); k >= len(queue) {
			p := waiting[k-len(queue)]
			v := byte(inputs[p])
			inputs[p] = -1
			step(p, func(a *abaInst) []byte { return a.input(nil, v) })
		} else {
			m := queue[k]
			queue = append(queue[:k], queue[k+1:]...)
			_, _, round, phase, value := decodeABA(m.data)
			step(m.to, func(a *abaInst) []byte { return a.handle(nil, m.from, round, phase, value) })
		}
	}
}

// TestABATermUnblocksSilentDeciders replays random seed 7's stall at one
// instance: two of four processes decide in round 0 and go silent. With
// TERM votes the other two still decide, and the same value; without
// them (the deciders then send nothing at all) runs stall. Over seeded
// random schedules and inputs, at n = 4 and 7, every run with TERMs
// decides everywhere, agrees, and keeps validity; the pattern occurs, and
// so do stalls once the TERMs are withheld.
func TestABATermUnblocksSilentDeciders(t *testing.T) {
	patterns, stalls := 0, 0
	for _, n := range []int{4, 7} {
		for seed := int64(0); seed < 400; seed++ {
			insts, pattern := silentNet(n, seed, true)
			inputs := rand.New(rand.NewSource(seed))
			unanimous, first := true, byte(inputs.Intn(2))
			for p := 1; p < n; p++ {
				unanimous = unanimous && byte(inputs.Intn(2)) == first
			}
			for p, a := range insts {
				switch {
				case !a.decided:
					t.Fatalf("n=%d seed %d: process %d never decided", n, seed, p)
				case a.decision != insts[0].decision:
					t.Fatalf("n=%d seed %d: process %d decided %d, process 0 %d", n, seed, p, a.decision, insts[0].decision)
				case unanimous && a.decision != first:
					t.Fatalf("n=%d seed %d: every input was %d, process %d decided %d", n, seed, first, p, a.decision)
				}
			}
			if pattern {
				patterns++
			}
			without, _ := silentNet(n, seed, false)
			for _, a := range without {
				if !a.decided {
					stalls++
					break
				}
			}
		}
	}
	if patterns == 0 || stalls == 0 {
		t.Fatalf("scripts too weak: %d runs with two silent round-0 deciders, %d stalls without TERMs", patterns, stalls)
	}
	t.Logf("%d runs had two round-0 deciders go silent; without TERMs %d runs stall", patterns, stalls)
}

// TestABATermsBelowQuorumNeverDecide: TERMs from at most f senders —
// duplicates, both values, any round, the instance's own id among the
// senders — never decide an instance, whether its input arrived or not,
// while f+1 senders of one value always do.
func TestABATermsBelowQuorumNeverDecide(t *testing.T) {
	for _, n := range []int{4, 7, 10} {
		f := (n - 1) / 3
		for seed := int64(0); seed < 300; seed++ {
			rng := rand.New(rand.NewSource(seed))
			self := rng.Intn(n)
			a := &newABAInsts(n, f, self, rng.Intn(3))[rng.Intn(n)]
			senders := rng.Perm(n)[:f]
			if rng.Intn(2) == 0 {
				a.input(nil, byte(rng.Intn(2)))
			}
			for k := rng.Intn(20 * f); k >= 0; k-- {
				round := rng.Intn(4)
				if rng.Intn(5) == 0 {
					round = 1<<32 - 1 - rng.Intn(1<<10)
				}
				a.handle(nil, senders[rng.Intn(f)], round, abaTerm, byte(rng.Intn(2)))
				if a.decided {
					t.Fatalf("n=%d seed %d: TERMs from %v decided the instance", n, seed, senders)
				}
			}
			v := byte(rng.Intn(2))
			for _, from := range rng.Perm(n)[:f+1] {
				a.handle(nil, from, rng.Intn(3), abaTerm, v)
			}
			if !a.decided || a.decision != v {
				t.Fatalf("n=%d seed %d: TERM(%d) from f+1 senders left decided=%v decision=%d", n, seed, v, a.decided, a.decision)
			}
		}
	}
}
