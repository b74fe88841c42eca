package broadcast

import (
	"bytes"
	"encoding/binary"

	"relaxedbvc/internal/sched"
	"relaxedbvc/internal/vec"
)

// Bracha reliable broadcast (asynchronous, n >= 3f+1): if any non-faulty
// process delivers (sender, id, v), every non-faulty process eventually
// delivers exactly (sender, id, v); if the sender is non-faulty, everyone
// delivers its value.
//
// BrachaState is a protocol component embedded in a process. The owner
// feeds incoming "rbc" messages to Receive, which queues this process's
// ECHO/READYs as one vote body (TakeVotes), or to Handle/AppendHandle,
// which return them one message each; Deliveries accumulate.
//
// An instance is a flat tally, so a received message costs O(1): one
// flag byte per process (has it echoed, has it readied — the duplicate
// check) and the list of distinct values voted for with their ECHO and
// READY counts. Every correct process votes for the sender's one value,
// so the list has a single entry in every fault-free run and at most 2n
// entries under any traffic. The modal value of a phase is the entry
// with the highest count, ties going to the lexicographically smallest
// value.
//
// A stream of instances runs allocation-light: PruneInstances keeps the
// instances and emptied rows it removes on spare lists, at most
// brachaSpareRows rows' worth, and opening an instance reuses one; the
// grown tally lists of pruned instances go on a spare list of their own,
// which an instance that meets its second value draws from; a tally
// copies its value into an append-only arena that is never overwritten.
// A received message allocates only when it opens a row (its id string),
// opens an instance or grows a tally list with no spare left, or fills
// the arena's chunk, and the pending votes it causes grow their buffer.

const (
	rbcInit  = byte(0)
	rbcEcho  = byte(1)
	rbcReady = byte(2)
	// rbcBody opens a vote body: ECHO/READY messages back to back, each
	// in its own encoding (an INIT always travels alone).
	rbcBody = byte(3)
)

// Delivery is a reliably-delivered broadcast. Value lies in the
// component's value arena, which is never overwritten: it keeps its
// bytes after the instance is pruned and its memory reused, but it is
// shared and must not be modified.
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
	first     [1]rbcTally // tallies' backing until a second value arrives
}

// rbcRow holds the instances of one id, indexed by sender (nil until a
// message names it).
type rbcRow struct {
	id    string
	insts []*brachaInst
}

// rbcVote is one decoded vote of the message being received; id and
// value alias the message.
type rbcVote struct {
	phase     byte
	sender    int
	id, value []byte
}

// BrachaState holds all reliable-broadcast instances of one process.
type BrachaState struct {
	N, F, Self int
	// insts is keyed by instance id, then indexed by sender, so a run of
	// body votes naming one id costs one hash and then a slice index per
	// vote; a lookup by the received id bytes allocates nothing.
	insts      map[string]rbcRow
	deliveries []Delivery
	// votes is the pending vote body: rbcBody, then this process's
	// ECHO/READYs since the last TakeVotes, in send order.
	votes []byte
	body  []rbcVote // scratch: the votes of the message being received
	// values is the tallies' value arena: an append-only chunk, never
	// reused, each new one twice the last up to maxValueChunk.
	values []byte
	// spareInsts and spareRows hold pruned instances, reset, and the
	// emptied rows' sender slices, all nil, for Receive to reuse;
	// spareTallies holds pruned instances' grown tally lists, emptied.
	spareInsts   []*brachaInst
	spareRows    [][]*brachaInst
	spareTallies [][]rbcTally
}

// brachaSpareRows bounds the spare lists: that many rows and their N
// instances and tally lists each. A stream that prunes one epoch and
// opens the next reuses all of it (DESIGN §13.3).
const brachaSpareRows = 4

// maxValueChunk caps the value arena's chunk doubling.
const maxValueChunk = 2 << 10

// NewBrachaState creates the component for process self.
func NewBrachaState(n, f, self int) *BrachaState {
	return &BrachaState{N: n, F: f, Self: self, insts: make(map[string]rbcRow)}
}

// VoteLen is the wire size of one ECHO or READY naming an id of idLen
// bytes with a value of valueLen bytes.
func VoteLen(idLen, valueLen int) int { return 3 + 4 + idLen + 4 + valueLen }

// AppendEpochInit appends EncodeInit(sender, EpochID(epoch),
// EncodeVec(v)) to dst, without building the id and the value first.
func AppendEpochInit(dst []byte, sender, epoch int, v vec.V) []byte {
	dst = append(dst, rbcInit, byte(sender>>8), byte(sender))
	at := len(dst)
	dst = AppendEpochID(append(dst, 0, 0, 0, 0), epoch)
	binary.BigEndian.PutUint32(dst[at:], uint32(len(dst)-at-4))
	dst = binary.BigEndian.AppendUint32(dst, uint32(VecWireLen(len(v))))
	return appendVec(dst, v)
}

// Reserve gives the instance map room for rows ids, and the receive
// scratch and the pending vote body room for votes votes of voteLen
// bytes, so that a stream that holds that many ids at once and whose
// rounds carry that many votes does not grow them as it fills.
func (b *BrachaState) Reserve(rows, votes, voteLen int) {
	b.insts = make(map[string]rbcRow, rows)
	b.body = make([]rbcVote, 0, votes)
	b.votes = make([]byte, 0, 1+votes*voteLen)
}

// appendRBC appends the encoding of (phase, sender, id, value): phase,
// sender (2 bytes), then id and value as length-prefixed fields.
func appendRBC(dst []byte, phase byte, sender int, id string, value []byte) []byte {
	dst = append(dst, phase, byte(sender>>8), byte(sender))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(id)))
	dst = append(dst, id...)
	return AppendField(dst, value)
}

// encodeRBC packs (phase, sender, id, value) into an exact-size message.
func encodeRBC(phase byte, sender int, id string, value []byte) []byte {
	return appendRBC(make([]byte, 0, 3+4+len(id)+4+len(value)), phase, sender, id, value)
}

// decodeRBC splits the rbc message at the front of data; id and value
// alias data, rest is what follows the message.
func decodeRBC(data []byte) (phase byte, sender int, id, value, rest []byte, err error) {
	if len(data) < 3 {
		return 0, 0, nil, nil, nil, errShortField
	}
	id, rest, err = ReadField(data[3:])
	if err != nil {
		return 0, 0, nil, nil, nil, err
	}
	if value, rest, err = ReadField(rest); err != nil {
		return 0, 0, nil, nil, nil, err
	}
	return data[0], int(data[1])<<8 | int(data[2]), id, value, rest, nil
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

// AppendHandle is Handle writing its sends onto outs, one message per
// ECHO/READY: it is Receive with every id live, the pending votes then
// split into messages.
func (b *BrachaState) AppendHandle(outs []sched.Outgoing, m sched.Message) []sched.Outgoing {
	if b.Receive(m.From, m.Data, nil); len(b.votes) == 0 {
		return outs
	}
	rest := bytes.Clone(b.votes[1:]) // the votes, without the body marker
	for b.votes = b.votes[:0]; len(rest) > 0; {
		_, _, _, _, next, _ := decodeRBC(rest)
		k := len(rest) - len(next)
		outs = append(outs, sched.Outgoing{To: sched.Broadcast, Tag: BrachaTag, Data: rest[:k:k]})
		rest = next
	}
	return outs
}

// Receive is the one vote path: it processes the rbc message data from
// process from — an INIT, ECHO or READY, or a body of ECHO/READYs, whose
// votes it walks in send order — and appends this process's resulting
// ECHO/READYs to the pending votes (TakeVotes). live, when not nil, is
// asked once per run of equal ids whether that id can still receive
// traffic; votes for an id it refuses are skipped. What no correct
// process sends is dropped, before any state is created: an origin or
// named sender outside [0,N), an unknown phase, malformed fields, an
// impersonated INIT, and any body that comes from this process or does
// not split exactly into ECHO/READYs — such a body is dropped whole.
func (b *BrachaState) Receive(from int, data []byte, live func(id []byte) bool) {
	if from < 0 || from >= b.N || !b.frame(from, data) {
		return
	}
	var row rbcRow
	for i := range b.body {
		v := &b.body[i]
		if i == 0 || !bytes.Equal(v.id, b.body[i-1].id) {
			row = rbcRow{}
			if live == nil || live(v.id) {
				var open bool
				if row, open = b.insts[string(v.id)]; !open { // the lookup does not allocate
					row = rbcRow{id: string(v.id), insts: b.newRow()}
					b.insts[row.id] = row
				}
			}
		}
		if row.insts == nil {
			continue
		}
		in := row.insts[v.sender]
		if in == nil {
			in = b.newInst(v.sender, row.id)
			row.insts[v.sender] = in
		}
		switch {
		case v.phase != rbcInit:
			b.vote(in, from, v.phase, v.value)
		case !in.haveInit: // a duplicate/equivocating INIT is ignored (first wins)
			in.haveInit = true
			b.appendVote(rbcEcho, in, v.value)
			b.vote(in, b.Self, rbcEcho, v.value)
		}
	}
}

// newRow returns an all-nil sender slice for a new row, a spare one if
// any.
func (b *BrachaState) newRow() []*brachaInst {
	if k := len(b.spareRows); k > 0 {
		row := b.spareRows[k-1]
		b.spareRows = b.spareRows[:k-1]
		return row
	}
	return make([]*brachaInst, b.N)
}

// newInst returns a fresh instance (sender, id), a spare one if any.
func (b *BrachaState) newInst(sender int, id string) *brachaInst {
	k := len(b.spareInsts)
	if k == 0 {
		in := &brachaInst{sender: sender, id: id, voted: make([]byte, b.N)}
		in.tallies = in.first[:0]
		return in
	}
	in := b.spareInsts[k-1]
	b.spareInsts = b.spareInsts[:k-1]
	in.sender, in.id = sender, id
	return in
}

// park resets a pruned instance to a fresh one's state and keeps it and
// its grown tally list, each while its spare list has room. Its tallies
// empty; their values stay in the arena for deliveries that still alias
// them, and a new tally overwrites an old entry whole.
func (b *BrachaState) park(in *brachaInst) {
	bound := brachaSpareRows * b.N
	if cap(in.tallies) > len(in.first) && len(b.spareTallies) < bound {
		b.spareTallies = append(b.spareTallies, in.tallies[:0])
	}
	if len(b.spareInsts) >= bound {
		return
	}
	clear(in.voted)
	in.tallies = in.first[:0]
	in.haveInit, in.readied, in.delivered = false, false, false
	b.spareInsts = append(b.spareInsts, in)
}

// grow returns in's full tally list with room for another entry: a spare
// list, or room for one value per process, when the inline first entry
// fills; twice the room when a list fills.
func (b *BrachaState) grow(in *brachaInst) []rbcTally {
	if k := len(b.spareTallies); k > 0 && cap(in.tallies) == len(in.first) {
		spare := b.spareTallies[k-1]
		b.spareTallies = b.spareTallies[:k-1]
		return append(spare, in.tallies...)
	}
	return append(make([]rbcTally, 0, max(2*cap(in.tallies), b.N)), in.tallies...)
}

// keep copies value into the value arena. The first chunk holds one
// row of values like it, each next one twice the last.
func (b *BrachaState) keep(value []byte) []byte {
	if free := cap(b.values) - len(b.values); free < len(value) {
		size := min(max(2*cap(b.values), b.N*len(value)), maxValueChunk)
		b.values = make([]byte, 0, max(size, len(value)))
	}
	start := len(b.values)
	b.values = append(b.values, value...)
	return b.values[start:len(b.values):len(b.values)]
}

// frame decodes data into b.body, each vote once, and reports whether it
// is well framed: one message with a known phase (bytes after it are
// ignored), or a body from a peer that splits exactly into ECHO/READYs.
// Every vote must name a process, and only the claimed sender may
// originate its INIT.
func (b *BrachaState) frame(from int, data []byte) bool {
	b.body = b.body[:0]
	body := len(data) > 0 && data[0] == rbcBody
	if body {
		data = data[1:]
	}
	for len(data) > 0 || len(b.body) == 0 {
		phase, sender, id, value, rest, err := decodeRBC(data)
		if err != nil || phase > rbcReady || sender >= b.N || (phase == rbcInit && (body || from != sender)) || (body && from == b.Self) {
			return false
		}
		b.body = append(b.body, rbcVote{phase: phase, sender: sender, id: id, value: value})
		if !body {
			return true
		}
		data = rest
	}
	return true
}

// appendVote adds this process's ECHO or READY for value in instance in
// to the pending votes.
func (b *BrachaState) appendVote(phase byte, in *brachaInst, value []byte) {
	if len(b.votes) == 0 {
		b.votes = append(b.votes, rbcBody)
	}
	b.votes = appendRBC(b.votes, phase, in.sender, in.id, value)
}

// TakeVotes returns this process's ECHO/READYs since the last call as
// one rbc message — the bare message for one vote, a body for more, nil
// for none — and clears them. The message aliases a buffer the next vote
// overwrites: copy it before it leaves the process.
func (b *BrachaState) TakeVotes() []byte {
	if len(b.votes) == 0 {
		return nil
	}
	msg := b.votes
	if _, _, _, _, rest, _ := decodeRBC(msg[1:]); len(rest) == 0 {
		msg = msg[1:]
	}
	b.votes = b.votes[:0]
	return msg
}

// vote counts from's ECHO or READY for value (one per process and
// phase) and acts on the thresholds it crosses: READY on an echo quorum
// or on f+1 READYs, delivery on 2f+1 READYs. This process's own votes
// are counted by a direct call instead of a message to itself.
func (b *BrachaState) vote(in *brachaInst, from int, phase byte, value []byte) {
	if in.voted[from]&(1<<phase) != 0 {
		return
	}
	in.voted[from] |= 1 << phase
	t := 0
	for t < len(in.tallies) && !bytes.Equal(in.tallies[t].value, value) {
		t++
	}
	if t == len(in.tallies) {
		if t == cap(in.tallies) {
			in.tallies = b.grow(in)
		}
		in.tallies = append(in.tallies, rbcTally{value: b.keep(value)})
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
			b.appendVote(rbcReady, in, v)
			b.vote(in, b.Self, rbcReady, v)
		}
	}
	if phase == rbcReady && !in.delivered {
		if v, n := in.modal(rbcReady); n >= deliverQuorum(b.F) {
			in.delivered = true
			b.deliveries = append(b.deliveries, Delivery{Sender: in.sender, ID: in.id, Value: v})
		}
	}
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

// TakeDeliveries returns and clears the accumulated deliveries, in a
// slice that is valid until the next Receive, Handle or Broadcast.
func (b *BrachaState) TakeDeliveries() []Delivery {
	d := b.deliveries
	b.deliveries = d[:0]
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
// sealed past; a later message naming one opens it afresh. It walks the
// ids, dropping a row once it is empty, and keeps the removed instances
// and rows for reuse within the spare bound (deliveries already made
// keep their values).
func (b *BrachaState) PruneInstances(match func(sender int, id string) bool) int {
	pruned := 0
	for id, row := range b.insts {
		left := 0
		for s, in := range row.insts {
			switch {
			case in == nil:
			case match(s, id):
				row.insts[s] = nil
				b.park(in)
				pruned++
			default:
				left++
			}
		}
		if left == 0 {
			b.drop(row)
		}
	}
	return pruned
}

// PruneID removes every instance of one id, as PruneInstances does with
// a predicate that names that id alone, without walking the other ids.
func (b *BrachaState) PruneID(id []byte) int {
	row, ok := b.insts[string(id)]
	if !ok {
		return 0
	}
	pruned := 0
	for s, in := range row.insts {
		if in != nil {
			row.insts[s] = nil
			b.park(in)
			pruned++
		}
	}
	b.drop(row)
	return pruned
}

// drop deletes an emptied row and keeps its sender slice within the
// spare bound.
func (b *BrachaState) drop(row rbcRow) {
	delete(b.insts, row.id)
	if len(b.spareRows) < brachaSpareRows {
		b.spareRows = append(b.spareRows, row.insts)
	}
}
