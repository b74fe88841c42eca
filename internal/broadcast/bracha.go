package broadcast

import (
	"bytes"
	"encoding/binary"
	"errors"

	"relaxedbvc/internal/sched"
)

// Bracha reliable broadcast (asynchronous, n >= 3f+1): if any non-faulty
// process delivers (sender, id, v), every non-faulty process eventually
// delivers exactly (sender, id, v); if the sender is non-faulty, everyone
// delivers its value.
//
// BrachaState is a protocol component embedded in an asynchronous
// process: the owner feeds incoming "rbc" messages to Handle (or
// AppendHandle) and passes the returned outgoing messages to the
// engine; Deliveries accumulate.
//
// An instance is a flat tally, so a received message costs O(1) and
// allocates nothing unless it opens an instance or makes this process
// send: one flag byte per process (has it echoed, has it readied — the
// duplicate check) and the list of distinct values voted for with their
// ECHO and READY counts. Every correct process votes for the sender's
// one value, so the list has a single entry in every fault-free run and
// at most 2n entries under any traffic. The modal value of a phase is
// the entry with the highest count, ties going to the lexicographically
// smallest value.

const (
	rbcInit  = byte(0)
	rbcEcho  = byte(1)
	rbcReady = byte(2)
)

// Delivery is a reliably-delivered broadcast. Value is shared with the
// instance that delivered it and must not be modified.
type Delivery struct {
	Sender int
	ID     string
	Value  []byte
}

// rbcTally is one distinct value of an instance with its vote counts,
// indexed by phase (rbcEcho, rbcReady).
type rbcTally struct {
	value []byte
	count [3]int
}

type brachaInst struct {
	sender    int
	id        string
	haveInit  bool // the sender's INIT arrived and was echoed
	readied   bool
	delivered bool
	voted     []byte // per process: bit rbcEcho / rbcReady set once it voted in that phase
	tallies   []rbcTally
}

// BrachaState holds all reliable-broadcast instances of one process.
type BrachaState struct {
	N, F, Self int
	// insts is keyed by the instance's name as it stands in every one of
	// its messages — the bytes from the sender id through the id field —
	// so a lookup is one hash over a slice of the received message.
	insts      map[string]*brachaInst
	deliveries []Delivery
}

// NewBrachaState creates the component for process self.
func NewBrachaState(n, f, self int) *BrachaState {
	return &BrachaState{N: n, F: f, Self: self, insts: make(map[string]*brachaInst)}
}

// rbcHeader is the length of an rbc message up to its id bytes: phase,
// sender (2 bytes), id length (4 bytes).
const rbcHeader = 7

// encodeRBC packs (phase, sender, id, value).
func encodeRBC(phase byte, sender int, id string, value []byte) []byte {
	out := make([]byte, rbcHeader+len(id)+4+len(value))
	out[0], out[1], out[2] = phase, byte(sender>>8), byte(sender)
	binary.BigEndian.PutUint32(out[3:], uint32(len(id)))
	copy(out[rbcHeader:], id)
	binary.BigEndian.PutUint32(out[rbcHeader+len(id):], uint32(len(value)))
	copy(out[rbcHeader+len(id)+4:], value)
	return out
}

var errShortRBC = errors.New("broadcast: short rbc message")

// decodeRBC splits an rbc message; id and value alias data.
func decodeRBC(data []byte) (phase byte, sender int, id, value []byte, err error) {
	if len(data) < 3 {
		return 0, 0, nil, nil, errShortRBC
	}
	id, rest, err := ReadField(data[3:])
	if err != nil {
		return 0, 0, nil, nil, err
	}
	if value, _, err = ReadField(rest); err != nil {
		return 0, 0, nil, nil, err
	}
	return data[0], int(data[1])<<8 | int(data[2]), id, value, nil
}

// RBCInstanceID reads the instance id an rbc message names (nil if it
// has none) without touching any state, so an owner multiplexing
// instances can refuse ids it will never use before an instance exists.
// The id aliases data.
func RBCInstanceID(data []byte) []byte {
	if len(data) < 3 {
		return nil
	}
	id, _, _ := ReadField(data[3:]) // nil on error
	return id
}

// Tag is the sched message tag used by the component.
const BrachaTag = "rbc"

// Broadcast initiates a reliable broadcast of (id, value) from this
// process. It returns the messages to send; the local state machine also
// processes its own INIT immediately (self-delivery without network).
func (b *BrachaState) Broadcast(id string, value []byte) []sched.Outgoing {
	init := encodeRBC(rbcInit, b.Self, id, value)
	outs := append(make([]sched.Outgoing, 0, 3), sched.Outgoing{To: sched.Broadcast, Tag: BrachaTag, Data: init})
	return b.AppendHandle(outs, sched.Message{From: b.Self, To: b.Self, Tag: BrachaTag, Data: init})
}

// Handle processes one incoming rbc message, returning protocol messages
// to send. Deliveries accumulate (drain with TakeDeliveries).
func (b *BrachaState) Handle(m sched.Message) []sched.Outgoing {
	return b.AppendHandle(nil, m)
}

// AppendHandle is Handle writing its sends onto outs. Malformed
// messages, unknown phases and process ids outside [0,N) — as the
// message's origin or as the named sender — are dropped before any
// state is created.
func (b *BrachaState) AppendHandle(outs []sched.Outgoing, m sched.Message) []sched.Outgoing {
	phase, sender, id, value, err := decodeRBC(m.Data)
	if err != nil || phase > rbcReady || sender >= b.N || m.From < 0 || m.From >= b.N {
		return outs
	}
	// Only the claimed sender may originate its INIT.
	if phase == rbcInit && m.From != sender {
		return outs
	}
	name := m.Data[1 : rbcHeader+len(id)]
	in := b.insts[string(name)] // the lookup does not allocate the string
	if in == nil {
		key := string(name)
		in = &brachaInst{sender: sender, id: key[rbcHeader-1:], voted: make([]byte, b.N)}
		b.insts[key] = in
	}
	if phase != rbcInit {
		return b.vote(outs, in, m.From, phase, value)
	}
	if in.haveInit {
		return outs // duplicate/equivocating INIT ignored (first wins)
	}
	in.haveInit = true
	outs = append(outs, sched.Outgoing{To: sched.Broadcast, Tag: BrachaTag, Data: encodeRBC(rbcEcho, sender, in.id, value)})
	return b.vote(outs, in, b.Self, rbcEcho, value)
}

// vote counts from's ECHO or READY for value (one per process and
// phase) and acts on the thresholds it crosses: READY on an echo quorum
// or on f+1 READYs, delivery on 2f+1 READYs. This process's own votes
// are counted by a direct call instead of a message to itself.
func (b *BrachaState) vote(outs []sched.Outgoing, in *brachaInst, from int, phase byte, value []byte) []sched.Outgoing {
	if in.voted[from]&(1<<phase) != 0 {
		return outs
	}
	in.voted[from] |= 1 << phase
	t := 0
	for t < len(in.tallies) && !bytes.Equal(in.tallies[t].value, value) {
		t++
	}
	if t == len(in.tallies) {
		in.tallies = append(in.tallies, rbcTally{value: append([]byte{}, value...)})
	}
	in.tallies[t].count[phase]++

	if !in.readied {
		v, n := in.modal(rbcEcho)
		ok := echoQuorum(n, b.N, b.F)
		if !ok {
			v, n = in.modal(rbcReady)
			ok = n >= amplifyQuorum(b.F)
		}
		if ok {
			in.readied = true
			outs = append(outs, sched.Outgoing{To: sched.Broadcast, Tag: BrachaTag, Data: encodeRBC(rbcReady, in.sender, in.id, v)})
			outs = b.vote(outs, in, b.Self, rbcReady, v)
		}
	}
	if phase == rbcReady && !in.delivered {
		if v, n := in.modal(rbcReady); n >= deliverQuorum(b.F) {
			in.delivered = true
			b.deliveries = append(b.deliveries, Delivery{Sender: in.sender, ID: in.id, Value: v})
		}
	}
	return outs
}

// modal returns the value with the most votes in phase and its count;
// ties go to the lexicographically smallest value.
func (in *brachaInst) modal(phase byte) ([]byte, int) {
	var best []byte
	bestN := 0
	for i := range in.tallies {
		t := &in.tallies[i]
		if n := t.count[phase]; n > bestN || (n == bestN && n > 0 && bytes.Compare(t.value, best) < 0) {
			best, bestN = t.value, n
		}
	}
	return best, bestN
}

// TakeDeliveries returns and clears the accumulated deliveries.
func (b *BrachaState) TakeDeliveries() []Delivery {
	d := b.deliveries
	b.deliveries = nil
	return d
}

// EncodeInit builds a raw INIT message for (sender, id, value). It is
// the hook scripted adversaries use to equivocate: a Byzantine sender
// crafts per-recipient INITs with different values instead of calling
// Broadcast. Honest processes never need it.
func EncodeInit(sender int, id string, value []byte) []byte {
	return encodeRBC(rbcInit, sender, id, value)
}

// PruneInstances removes every reliable-broadcast instance whose
// (sender, id) matches the predicate, releasing its echo/ready state.
// Callers multiplexing many instances over one BrachaState (e.g. the
// ACS stream, one instance per epoch and slot) use it to garbage-collect
// epochs that can no longer receive traffic. Undelivered pruned
// instances are gone for good — only prune instances the caller has
// sealed past.
func (b *BrachaState) PruneInstances(match func(sender int, id string) bool) int {
	pruned := 0
	for k, in := range b.insts {
		if match(in.sender, in.id) {
			delete(b.insts, k)
			pruned++
		}
	}
	return pruned
}
