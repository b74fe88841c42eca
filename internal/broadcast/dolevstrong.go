package broadcast

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"

	"relaxedbvc/internal/sched"
)

// SigScheme simulates a PKI with per-process HMAC keys. Honest processes
// sign only with their own key; a Byzantine process cannot forge another
// process's signature because it never sees that key. (The simulation
// keeps all keys in one struct, but behaviors are only handed Sign
// closures for their own id.)
type SigScheme struct {
	keys [][]byte
}

// NewSigScheme creates keys for n processes from the seed.
func NewSigScheme(n int, seed int64) *SigScheme {
	rng := rand.New(rand.NewSource(seed))
	keys := make([][]byte, n)
	for i := range keys {
		k := make([]byte, 32)
		for j := range k {
			k[j] = byte(rng.Intn(256))
		}
		keys[i] = k
	}
	return &SigScheme{keys: keys}
}

// Sign returns the signature of msg by process id.
func (s *SigScheme) Sign(id int, msg []byte) []byte {
	mac := hmac.New(sha256.New, s.keys[id])
	mac.Write(msg)
	return mac.Sum(nil)
}

// Verify reports whether sig is id's signature of msg.
func (s *SigScheme) Verify(id int, msg, sig []byte) bool {
	return hmac.Equal(s.Sign(id, msg), sig)
}

// dsChain is a value plus a chain of (signer, signature) pairs. The
// signed payload of the k-th signer is value || signer ids so far, which
// binds the chain order.
type dsChain struct {
	value   []byte
	signers []int
	sigs    [][]byte
}

func dsPayload(value []byte, signers []int) []byte {
	out := AppendField(nil, value)
	return append(out, encodePath(signers)...)
}

// appendChain appends c's wire form: value field | signer path |
// count u32 | signature field*count.
func appendChain(dst []byte, c dsChain) []byte {
	dst = AppendField(dst, c.value)
	dst = append(dst, encodePath(c.signers)...)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(c.sigs)))
	for _, s := range c.sigs {
		dst = AppendField(dst, s)
	}
	return dst
}

// decodeChain parses a chain of at most n signers. Every count is checked
// against n and the bytes left before anything is allocated, so a
// crafted length cannot make a receiver allocate more than it was sent.
func decodeChain(b []byte, n int) (dsChain, error) {
	var c dsChain
	val, rest, err := ReadField(b)
	if err != nil {
		return c, err
	}
	signers, rest, err := decodePath(rest, n)
	if err != nil {
		return c, err
	}
	if len(rest) < 4 {
		return c, fmt.Errorf("broadcast: short sig count")
	}
	nsig := binary.BigEndian.Uint32(rest)
	rest = rest[4:]
	if uint64(nsig) > uint64(n) || uint64(nsig) > uint64(len(rest)/4) {
		return c, fmt.Errorf("broadcast: %d signatures in a chain of n=%d with %d bytes left", nsig, n, len(rest))
	}
	sigs := make([][]byte, nsig)
	for i := range sigs {
		sigs[i], rest, err = ReadField(rest)
		if err != nil {
			return c, err
		}
	}
	c.value, c.signers, c.sigs = val, signers, sigs
	return c, nil
}

// validChain verifies a signature chain: distinct signers starting with
// the commander, each signature valid over the value and the chain prefix.
// The shape — at most one signer per key, every id a key's — is checked
// before any HMAC.
func validChain(s *SigScheme, commander int, c dsChain) bool {
	if len(c.signers) == 0 || len(c.signers) != len(c.sigs) {
		return false
	}
	for _, id := range c.signers {
		if id < 0 || id >= len(s.keys) {
			return false
		}
	}
	if c.signers[0] != commander || hasDuplicates(c.signers) {
		return false
	}
	for k, id := range c.signers {
		payload := dsPayload(c.value, c.signers[:k])
		if !s.Verify(id, payload, c.sigs[k]) {
			return false
		}
	}
	return true
}

// DSBehavior lets a Byzantine process replace its outgoing Dolev-Strong
// messages. It receives the honest chains the process would send to the
// recipient and returns the chains actually sent (which it can only build
// from chains it has seen plus its own signature — enforced by the
// signature checks at receivers, not by this interface).
type DSBehavior interface {
	Send(round, to int, honest []dsChain, sign func([]byte, []int) dsChain) []dsChain
}

// dsEquivocator is the canonical Byzantine commander: it sends different
// signed values to different recipients in round 0.
type dsEquivocator struct {
	values map[int][]byte // per-recipient round-0 value
}

func (e *dsEquivocator) Send(round, to int, honest []dsChain, sign func([]byte, []int) dsChain) []dsChain {
	if round != 0 {
		return nil // silent afterwards
	}
	if v, ok := e.values[to]; ok {
		return []dsChain{sign(v, nil)}
	}
	return honest
}

// NewDSEquivocator builds a DSBehavior that sends value values[to] to
// each recipient in round 0 and nothing later.
func NewDSEquivocator(values map[int][]byte) DSBehavior { return &dsEquivocator{values: values} }

const dsTag = "ds"

// dsProcess is one Dolev-Strong instance at one process: a chain with k
// valid signatures received in round k-1 (0-based: delivered at Step(k))
// is accepted, countersigned and forwarded. After f+1 rounds a process
// decides the unique accepted value, or the default when zero or several
// values were accepted.
type dsProcess struct {
	n, f, self, commander int
	scheme                *SigScheme
	input                 []byte // commander only
	behavior              DSBehavior
	accepted              map[string]dsChain // by value
	fresh                 []dsChain          // accepted this round, countersigned
	decided               []byte
	defaultVal            []byte
	drops                 int // chains the behavior suppressed relative to honest forwarding
}

// extendChain appends self's signature to a chain (a fresh one when c
// has no signers).
func (p *dsProcess) extendChain(c dsChain) dsChain {
	return dsChain{
		value:   c.value,
		signers: append(append([]int(nil), c.signers...), p.self),
		sigs:    append(append([][]byte(nil), c.sigs...), p.scheme.Sign(p.self, dsPayload(c.value, c.signers))),
	}
}

// emit appends this instance's round sends: each chain as one "ds"
// message, commander u32 | chain, to every peer in recipient order.
func (p *dsProcess) emit(outs []sched.Outgoing, round int, chains []dsChain) []sched.Outgoing {
	encode := func(c dsChain) []byte {
		return appendChain(binary.BigEndian.AppendUint32(nil, uint32(p.commander)), c)
	}
	if p.behavior == nil {
		for _, c := range chains {
			outs = append(outs, sched.Outgoing{To: sched.Broadcast, Tag: dsTag, Data: encode(c)})
		}
		return outs
	}
	sign := func(v []byte, signers []int) dsChain { return p.extendChain(dsChain{value: v, signers: signers}) }
	for to := 0; to < p.n; to++ {
		if to == p.self {
			continue
		}
		send := p.behavior.Send(round, to, chains, sign)
		if len(send) < len(chains) {
			p.drops += len(chains) - len(send)
		}
		for _, c := range send {
			outs = append(outs, sched.Outgoing{To: to, Tag: dsTag, Data: encode(c)})
		}
	}
	return outs
}

func (p *dsProcess) start(outs []sched.Outgoing) []sched.Outgoing {
	if p.self != p.commander {
		return p.emit(outs, 0, nil)
	}
	c := p.extendChain(dsChain{value: p.input})
	p.accepted[string(p.input)] = c
	return p.emit(outs, 0, []dsChain{c})
}

// receive takes one chain delivered at round: it needs round+1 valid
// signatures (the Dolev-Strong round rule) and a value not yet accepted.
func (p *dsProcess) receive(round int, b []byte) {
	c, err := decodeChain(b, p.n)
	if err != nil || len(c.signers) < round+1 || !validChain(p.scheme, p.commander, c) {
		return
	}
	key := string(c.value)
	if _, seen := p.accepted[key]; seen {
		return
	}
	p.accepted[key] = c
	if !pathContains(c.signers, p.self) && len(c.signers) <= p.f {
		p.fresh = append(p.fresh, p.extendChain(c))
	}
}

// step ends round: forward what was accepted in it, or decide.
func (p *dsProcess) step(outs []sched.Outgoing, round int) []sched.Outgoing {
	if round < p.f {
		outs = p.emit(outs, round+1, p.fresh)
		p.fresh = nil
		return outs
	}
	p.decided = p.defaultVal
	if len(p.accepted) == 1 {
		for _, c := range p.accepted {
			p.decided = c.value
		}
	}
	return outs
}

// DSNode is the signed twin of EIGNode: one process's machine of the
// all-to-all Dolev-Strong broadcast, the n instances (one per commander)
// over one SigScheme. It tolerates any f < n in f+1 rounds, at the cost
// of the simulated PKI. Instances emit in commander order, so after the
// (From, Tag) inbox sort each sees its messages in the order a run of it
// alone would deliver them.
type DSNode struct {
	inst    []dsProcess
	decided [][]byte
}

// NewDSNode builds the machine of process self out of n tolerating
// f < n faults, broadcasting input, optionally scripted by behavior (nil
// = honest), with defaultVal as the decision of an instance that
// accepted zero or several values.
func NewDSNode(n, f, self int, input []byte, scheme *SigScheme, behavior DSBehavior, defaultVal []byte) *DSNode {
	p := &DSNode{inst: make([]dsProcess, n)}
	for c := range p.inst {
		p.inst[c] = dsProcess{n: n, f: f, self: self, commander: c, scheme: scheme,
			behavior: behavior, defaultVal: defaultVal, accepted: make(map[string]dsChain)}
	}
	p.inst[self].input = input
	return p
}

// Start implements sched.SyncProcess.
func (p *DSNode) Start() []sched.Outgoing {
	var outs []sched.Outgoing
	for c := range p.inst {
		outs = p.inst[c].start(outs)
	}
	return outs
}

// Step implements sched.SyncProcess: hand every chain to its instance
// (a body too short for the commander prefix, or naming none, is
// dropped), then step the instances in commander order.
func (p *DSNode) Step(round int, delivered []sched.Message) []sched.Outgoing {
	for i := range delivered {
		m := &delivered[i]
		if m.Tag == dsTag && len(m.Data) >= 4 {
			if c := binary.BigEndian.Uint32(m.Data); uint64(c) < uint64(len(p.inst)) {
				p.inst[c].receive(round, m.Data[4:])
			}
		}
	}
	var outs []sched.Outgoing
	for c := range p.inst {
		outs = p.inst[c].step(outs, round)
	}
	if round >= p.inst[0].f {
		p.decided = make([][]byte, len(p.inst))
		for c := range p.inst {
			p.decided[c] = p.inst[c].decided
		}
	}
	return outs
}

// Done implements sched.SyncProcess.
func (p *DSNode) Done() bool { return p.decided != nil }

// Decided returns, after Done, this node's decided value per commander.
func (p *DSNode) Decided() [][]byte { return p.decided }

// Drops returns the chains this node's Byzantine behavior suppressed.
func (p *DSNode) Drops() int {
	drops := 0
	for c := range p.inst {
		drops += p.inst[c].drops
	}
	return drops
}
