// Package acs implements Agreement on a Common Subset (ACS) in the
// style of Ben-Or, Kelmer and Rabin: n parallel Bracha reliable
// broadcasts (one slot per proposer) plus one binary Byzantine
// agreement instance per slot. A slot enters the common subset when its
// binary agreement decides 1; the BKR voting rule (vote 1 on reliable
// delivery, vote 0 everywhere else once n-f slots have decided 1)
// guarantees the subset has at least n-f members and contains every
// slot all correct processes delivered in time.
//
// The epoch engine on top (see node.go) runs one ACS instance per
// epoch, up to pipelineDepth of them at once with two new ones opening
// every round, commits decisions strictly in epoch order, and reduces each
// epoch's agreed subset of vector proposals to a single decided vector
// through the paper's relaxed-BVC kernel (delta*_p minimization over
// the subset multiset) — HoneyBadger-style batching with the
// relaxed-consensus decision rule.
//
// Per-vote work is O(1): an ABA round is a flag byte per sender plus
// BVAL/AUX counters, rounds exist only once a vote names them, and the
// handlers append their votes to one buffer threaded through a Step,
// which leaves as one body per round.
//
// Every component is a deterministic message-driven state machine with
// no clocks and no randomness beyond a deterministic common coin, so a
// lockstep execution (sched.SyncEngine in-process, transport.RunSync
// over the channel mesh or TCP) is one admissible asynchronous
// schedule and every backend decides bit-for-bit identically.
package acs

import (
	"encoding/binary"
)

// ABATag is the sched/transport message tag of all binary-agreement
// traffic; BrachaTag carries the reliable broadcasts.
const ABATag = "aba"

// The phases of a vote. TERM(v) announces a decision of v; its round
// field is the round the sender decided in.
const (
	abaBval = byte(0)
	abaAux  = byte(1)
	abaTerm = byte(2)
)

// coin is the deterministic common coin: 1 in round 0, 0 in round 1,
// and from round 2 on a SplitMix64 avalanche of (epoch, slot, round),
// identical at every process. MMR agreement holds for any common coin,
// and BKR inputs are unanimous on every slot all correct processes
// delivered (1) or zero-filled (0), so the fixed first two coins decide
// those instances in round 0 or round 1. Against the repository's
// scripted, non-adaptive adversaries a public deterministic coin is
// sound (the classic FLP-style adversary that predicts the coin must
// adapt its schedule to it, which scripted fault patterns and lockstep
// delivery cannot), and it is what keeps every run bit-for-bit
// replayable.
func coin(epoch, slot, round int) byte {
	switch round {
	case 0:
		return 1
	case 1:
		return 0
	}
	x := uint64(epoch)*0x9e3779b97f4a7c15 + uint64(slot)<<32 + uint64(round)
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return byte(x & 1)
}

// abaVoteLen is the wire size of one vote: epoch u32 | slot u16 |
// round u32 | phase u8 | value u8. An aba message is a body of one or
// more votes back to back, in send order.
const abaVoteLen = 12

// appendABA appends the vote (epoch, slot, round, phase, value).
func appendABA(dst []byte, epoch, slot, round int, phase, value byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(epoch))
	dst = binary.BigEndian.AppendUint16(dst, uint16(slot))
	dst = binary.BigEndian.AppendUint32(dst, uint32(round))
	return append(dst, phase, value&1)
}

// decodeABA reads the vote at the front of b (at least abaVoteLen bytes).
func decodeABA(b []byte) (epoch, slot, round int, phase, value byte) {
	return int(binary.BigEndian.Uint32(b)), int(binary.BigEndian.Uint16(b[4:])),
		int(binary.BigEndian.Uint32(b[6:])), b[10], b[11] & 1
}

// abaFramed reports whether an aba body is one or more whole votes, each
// with a known phase and a slot that names a process.
func abaFramed(body []byte, procs int) bool {
	if len(body) == 0 || len(body)%abaVoteLen != 0 {
		return false
	}
	for ; len(body) > 0; body = body[abaVoteLen:] {
		if _, slot, _, phase, _ := decodeABA(body); slot >= procs || phase > abaTerm {
			return false
		}
	}
	return true
}

// abaRound is the per-round message state of one instance: a flag byte
// per sender (the duplicate check) and the counts the thresholds read.
type abaRound struct {
	seen      []byte   // per sender: bit b = BVAL(b) received, then the flag bits below
	bvalCnt   [2]int32 // senders of BVAL(b)
	auxCnt    [2]int32 // senders of AUX(b)
	bvalSent  [2]bool  // we broadcast BVAL(b) this round
	binValues [2]bool  // values with 2f+1 BVALs
	auxSent   bool
}

// Bits of a round's per-sender flag byte past the two BVAL bits.
const (
	seenAux  = 2 // AUX received this round
	termSeen = 3 // bit termSeen+v, round 0's byte only: TERM(v) received
	termLive = 5 // bit termLive+v: the sender's TERM(v) counts in this round
)

// abaInst is one binary-agreement instance — MMR-style BVAL/AUX rounds
// with the common coin, plus TERM votes. It is driven purely by handle()
// and input(), which append their votes to the caller's buffer. A
// decided instance appends TERM(v) once and stops advancing: a peer's
// TERM(v) stands for that peer's BVAL(v) and AUX(v) in every later
// round, and f+1 of them decide v, so nobody waits on a decided
// instance (DESIGN §13.2).
type abaInst struct {
	// The fields are narrow, 144 bytes an instance, because a node holds
	// n of them for each of its up to 2·pipelineDepth+2 epochs: n is at
	// most MaxProcesses, the wire carries an epoch in 32 bits and a slot
	// in 16, and the round advances by one per coin.
	n, f, self, slot int32
	epoch            uint32

	haveInput bool
	est       byte
	decided   bool
	decision  byte

	round        int32
	decidedRound int32

	termCnt [2]int32 // senders of TERM(v)

	// Round states are sparse: a message for round r creates that
	// round's state and nothing else, so a peer that names a far round —
	// a correct one many rounds ahead, or a Byzantine one naming 2^32-1 —
	// costs O(1). BKR's inputs are unanimous on every slot all correct
	// processes delivered or zero-filled, and the first two coins are 1
	// then 0, so nearly every instance decides within the first two
	// rounds, which sit inline; the rest go to later.
	near  [2]abaRound
	later map[int]*abaRound
}

// newABAInsts builds the n instances of one epoch in two allocations.
func newABAInsts(n, f, self, epoch int) []abaInst {
	insts := make([]abaInst, n)
	seen := make([]byte, len(insts[0].near)*n*n)
	for s := range insts {
		a := &insts[s]
		*a = abaInst{n: int32(n), f: int32(f), self: int32(self), slot: int32(s), epoch: uint32(epoch)}
		for r := range a.near {
			a.near[r].seen, seen = seen[:n:n], seen[n:]
		}
	}
	return insts
}

// reset makes the instance equal to a fresh one of the given epoch,
// keeping the inline rounds' flag bytes and dropping the later rounds.
func (a *abaInst) reset(epoch int) {
	near := a.near
	for r := range near {
		clear(near[r].seen)
		near[r] = abaRound{seen: near[r].seen}
	}
	*a = abaInst{n: a.n, f: a.f, self: a.self, slot: a.slot, epoch: uint32(epoch), near: near}
}

func (a *abaInst) roundState(r int) *abaRound {
	if r < len(a.near) {
		return &a.near[r]
	}
	rd := a.later[r]
	if rd == nil {
		if a.later == nil {
			a.later = make(map[int]*abaRound)
		}
		rd = &abaRound{seen: make([]byte, a.n)}
		a.later[r] = rd
	}
	return rd
}

// input sets this process's vote (once) and starts round 0.
func (a *abaInst) input(buf []byte, v byte) []byte {
	if a.haveInput {
		return buf
	}
	a.haveInput = true
	a.est = v & 1
	return a.tryAdvance(a.castBval(buf, 0, a.est))
}

// castBval broadcasts BVAL(r, b) once and counts the local copy.
func (a *abaInst) castBval(buf []byte, r int, b byte) []byte {
	rd := a.roundState(r)
	if rd.bvalSent[b] {
		return buf
	}
	rd.bvalSent[b] = true
	return a.handle(appendABA(buf, int(a.epoch), int(a.slot), r, abaBval, b), int(a.self), r, abaBval, b)
}

// handle processes one vote (BVAL/AUX votes for any round are accepted;
// thresholds are round-local, so early traffic simply accumulates). It
// appends this process's votes, including cascades from locally counted
// copies. The caller has checked that from is a process and phase a
// phase (Node.handleABA, before it creates any state).
func (a *abaInst) handle(buf []byte, from, round int, phase, value byte) []byte {
	value &= 1
	if phase == abaTerm {
		return a.term(buf, from, round, value)
	}
	rd := a.roundState(round)
	switch phase {
	case abaBval:
		if rd.seen[from]&(1<<value) != 0 {
			return buf
		}
		rd.seen[from] |= 1 << value
		rd.bvalCnt[value]++
		cnt := int(rd.bvalCnt[value])
		// Relay on f+1 (at least one correct process voted value).
		if cnt >= relayQuorum(int(a.f)) && !rd.bvalSent[value] {
			buf = a.castBval(buf, round, value)
		}
		// bin_values admission on 2f+1.
		if cnt >= admitQuorum(int(a.f)) && !rd.binValues[value] {
			rd.binValues[value] = true
			if !rd.auxSent {
				rd.auxSent = true
				buf = a.handle(appendABA(buf, int(a.epoch), int(a.slot), round, abaAux, value), int(a.self), round, abaAux, value)
			}
			buf = a.tryAdvance(buf)
		}
	case abaAux:
		if rd.seen[from]&(1<<seenAux) != 0 {
			return buf
		}
		rd.seen[from] |= 1 << seenAux
		rd.auxCnt[value]++
		buf = a.tryAdvance(buf)
	}
	return buf
}

// term processes TERM(v) from a peer that decided v in round r. A
// decided instance drops it before touching any state. f+1 senders of
// TERM(v) include a correct one, so v is the decision. Short of that, the
// sender's TERM(v) counts as its BVAL(v) and AUX(v) in every round this
// instance runs from now on that is later than r — the votes it would
// cast there, since its estimate stays v once it decided.
func (a *abaInst) term(buf []byte, from, r int, v byte) []byte {
	if a.decided {
		return buf
	}
	flags := &a.near[0].seen[from]
	if *flags&(1<<(termSeen+v)) != 0 {
		return buf
	}
	*flags |= 1 << (termSeen + v)
	a.termCnt[v]++
	if int(a.termCnt[v]) >= termQuorum(int(a.f)) {
		return a.decide(buf, v, int(a.round))
	}
	start := max(int(a.round), r+1)
	a.roundState(start).seen[from] |= 1 << (termLive + v)
	if start > int(a.round) {
		return buf // enter casts it there
	}
	buf = a.handle(buf, from, start, abaBval, v)
	return a.handle(buf, from, start, abaAux, v)
}

// enter opens round r with estimate est. Every TERM that counted in
// round r-1 counts in round r too; that carry completes before any vote
// is cast, because a cast can advance the instance past r. Then the
// instance casts BVAL(est), and each counted TERM as its sender's BVAL
// and AUX of round r while r is still the open round.
func (a *abaInst) enter(buf []byte, r int, est byte) []byte {
	if a.termCnt == [2]int32{} {
		return a.castBval(buf, r, est)
	}
	const live = 3 << termLive
	prev, rd := a.roundState(r-1), a.roundState(r)
	for from := range rd.seen {
		rd.seen[from] |= prev.seen[from] & live
	}
	buf = a.castBval(buf, r, est)
	for from := range rd.seen {
		for v := byte(0); v < 2; v++ {
			if rd.seen[from]&(1<<(termLive+v)) == 0 || a.decided || int(a.round) != r {
				continue
			}
			buf = a.handle(buf, from, r, abaBval, v)
			buf = a.handle(buf, from, r, abaAux, v)
		}
	}
	return buf
}

// decide records the decision v in round r and appends TERM(v), once.
func (a *abaInst) decide(buf []byte, v byte, r int) []byte {
	a.decided, a.decision, a.decidedRound = true, v, int32(r)
	return appendABA(buf, int(a.epoch), int(a.slot), r, abaTerm, v)
}

// tryAdvance closes the current round when n-f AUX values, all inside
// bin_values, have arrived: unanimous AUX matching the coin decides;
// unanimous AUX against the coin adopts the value; a mixed AUX set
// adopts the coin. A decided instance stops advancing; its TERM stands
// for its later rounds.
func (a *abaInst) tryAdvance(buf []byte) []byte {
	for !a.decided && a.haveInput {
		r := int(a.round)
		rd := a.roundState(r)
		// AUX votes count only for values inside bin_values.
		var vals [2]bool
		valid := 0
		for v := range vals {
			if rd.binValues[v] {
				valid += int(rd.auxCnt[v])
				vals[v] = rd.auxCnt[v] > 0
			}
		}
		if valid < auxQuorum(int(a.n), int(a.f)) {
			return buf
		}
		c := coin(int(a.epoch), int(a.slot), r)
		var next byte
		switch {
		case vals[0] != vals[1]: // unanimous AUX value
			b := byte(0)
			if vals[1] {
				b = 1
			}
			if b == c {
				buf = a.decide(buf, b, r)
			}
			next = b
		default: // both values seen: adopt the coin
			next = c
		}
		a.est = next
		a.round = int32(r + 1)
		if !a.decided {
			buf = a.enter(buf, r+1, next)
		}
	}
	return buf
}
