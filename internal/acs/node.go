package acs

import (
	"errors"
	"fmt"

	"relaxedbvc/internal/broadcast"
	"relaxedbvc/internal/minimax"
	"relaxedbvc/internal/sched"
	"relaxedbvc/internal/vec"
)

// Behavior scripts a node's adversary class. The adversaries act at the
// proposal layer (the strongest lever in ACS: what, if anything, a slot
// proposes) and follow the protocol elsewhere, which keeps every
// execution deterministic on all transports.
type Behavior int

const (
	// Honest follows the protocol.
	Honest Behavior = iota
	// Equivocate sends per-recipient INIT values for its own slot each
	// epoch (a classic equivocating proposer; Bracha's echo quorum then
	// refuses to deliver the slot and the subset excludes it).
	Equivocate
	// Mute crashes at start: the node never sends anything.
	Mute
)

// Config describes one ACS stream node.
type Config struct {
	// N, F, Self are the cluster size, fault bound and this node's id.
	N, F, Self int
	// D is the proposal vector dimension.
	D int
	// NormP is the Lp norm of the epoch decision kernel: 1, 2 or +Inf
	// (0 means 2), matching ComputeDeltaStar's dispatch.
	NormP float64
	// Proposals holds this node's per-epoch proposal vectors; their
	// count is the stream length (every node must agree on it).
	Proposals []vec.V
	// Behavior optionally scripts an adversary.
	Behavior Behavior
	// Default substitutes for garbage subset values (nil: zero vector
	// of dimension D).
	Default vec.V
	// Lane runs the sealed epochs' kernels (nil: a lane of the node's
	// own). Nodes of one run share a lane, so that an epoch's kernel runs
	// once for all of them and different epochs' kernels overlap.
	Lane *Lane
}

// EpochDecision is one epoch's sealed outcome.
type EpochDecision struct {
	// Epoch is the epoch index (decisions commit strictly in order).
	Epoch int
	// Subset holds the agreed slot ids, ascending (at least N-F).
	Subset []int
	// Values are the reliably-delivered proposals of the subset slots,
	// in Subset order (garbage decodes replaced by the default vector).
	Values []vec.V
	// Output and Delta are the relaxed-BVC reduction of Values: the
	// delta*_p minimizer over the subset multiset with fault bound F,
	// computed on the node's lane (Node.Decisions joins it).
	Output vec.V
	Delta  float64
}

// Stats counts a node's protocol work for Result.Metrics.
type Stats struct {
	// Epochs is the number of sealed epochs.
	Epochs int
	// Slots is the total number of subset slots across sealed epochs.
	Slots int
	// ABARounds is the summed per-slot binary-agreement decision rounds
	// (a round-complexity measure of the agreement layer).
	ABARounds int
}

// epochState is the per-epoch protocol state of a node.
type epochState struct {
	// abas, delivered and rawDelivered are indexed by slot.
	abas         []abaInst
	delivered    []vec.V // decoded proposal
	rawDelivered []bool  // the slot's proposal was reliably delivered
	zeroCast     bool
	sealed       bool
}

// Node is one ACS stream participant: a deterministic state machine
// implementing sched.SyncProcess, runnable on the in-process lockstep
// engine and — via transport.RunSync — over the channel mesh and TCP
// with bit-identical decisions. Epochs run back to back: epoch e+1's
// broadcasts start in the round that seals epoch e, and messages that
// arrive ahead of the receiver's current epoch accumulate in their
// instances until the receiver catches up.
type Node struct {
	cfg Config
	// outs is the send buffer every Start/Step fills and returns; the
	// driver is done with it by the next Step (sched.SyncProcess).
	outs []sched.Outgoing
	// votes is the Step's ABA body; it and the pending Bracha votes leave
	// as copies carved from arena, an append-only chunk that is never
	// reused, because receivers may keep a delivered message's Data.
	votes   []byte
	arena   []byte
	rbc     *broadcast.BrachaState
	epochs  map[int]*epochState
	spare   []*epochState // pruned states, reset when an epoch reuses one
	cur     int
	done    bool
	sealed  []EpochDecision
	lane    *Lane
	stats   Stats
	pruneLo int // epochs below this are garbage-collected
}

// MaxProcesses bounds N: the wire names a process (an rbc sender, an
// aba slot) in 16 bits, so a larger id would alias a smaller one.
const MaxProcesses = 1 << 16

// ErrTooManyProcesses refuses a cluster of more than MaxProcesses.
var ErrTooManyProcesses = errors.New("acs: more processes than 16-bit wire ids can name")

// CheckProcesses refuses n > MaxProcesses with ErrTooManyProcesses.
func CheckProcesses(n int) error {
	if n > MaxProcesses {
		return fmt.Errorf("%w: n=%d > %d", ErrTooManyProcesses, n, MaxProcesses)
	}
	return nil
}

// NewNode validates cfg and builds the node.
func NewNode(cfg Config) (*Node, error) {
	if cfg.F < 1 {
		return nil, fmt.Errorf("acs: need f >= 1, got f=%d", cfg.F)
	}
	if cfg.N < minProcesses(cfg.F) {
		return nil, fmt.Errorf("acs: reliable broadcast requires n >= 3f+1 (n=%d, f=%d)", cfg.N, cfg.F)
	}
	if err := CheckProcesses(cfg.N); err != nil {
		return nil, err
	}
	if cfg.Self < 0 || cfg.Self >= cfg.N {
		return nil, fmt.Errorf("acs: self %d out of range [0,%d)", cfg.Self, cfg.N)
	}
	if cfg.D < 1 {
		return nil, fmt.Errorf("acs: need d >= 1, got d=%d", cfg.D)
	}
	for e, p := range cfg.Proposals {
		if len(p) != cfg.D {
			return nil, fmt.Errorf("acs: epoch %d proposal dimension %d != %d", e, len(p), cfg.D)
		}
	}
	lane := cfg.Lane
	if lane == nil {
		lane = NewLane()
	}
	return &Node{
		cfg:    cfg,
		rbc:    broadcast.NewBrachaState(cfg.N, cfg.F, cfg.Self),
		epochs: make(map[int]*epochState),
		lane:   lane,
	}, nil
}

// Decisions returns the sealed epoch decisions, in epoch order, once the
// kernel jobs queued on the node's lane have finished. A panic in one of
// them is re-raised here, on the caller's goroutine.
func (n *Node) Decisions() []EpochDecision {
	n.lane.Wait()
	return n.sealed
}

// Stats reports the node's protocol-work counters.
func (n *Node) Stats() Stats { return n.stats }

func (n *Node) epoch(e int) *epochState {
	es := n.epochs[e]
	if es != nil {
		return es
	}
	if k := len(n.spare); k > 0 {
		es, n.spare = n.spare[k-1], n.spare[:k-1]
		es.reset(e)
	} else {
		es = &epochState{
			abas:         newABAInsts(n.cfg.N, n.cfg.F, n.cfg.Self, e),
			delivered:    make([]vec.V, n.cfg.N),
			rawDelivered: make([]bool, n.cfg.N),
		}
	}
	n.epochs[e] = es
	return es
}

// reset makes a pruned state equal to a fresh one for epoch e. The
// delivered vectors live on in sealed decisions, so only the slice's
// references are cleared.
func (es *epochState) reset(e int) {
	for s := range es.abas {
		es.abas[s].reset(e)
	}
	clear(es.delivered)
	clear(es.rawDelivered)
	es.zeroCast, es.sealed = false, false
}

// Start implements sched.SyncProcess: open epoch 0.
func (n *Node) Start() []sched.Outgoing {
	if n.cfg.Behavior == Mute || len(n.cfg.Proposals) == 0 {
		n.done = true
		return nil
	}
	return n.flush(n.pump(n.open(n.outs[:0], 0)))
}

// Done implements sched.SyncProcess.
func (n *Node) Done() bool { return n.done }

// Step implements sched.SyncProcess: walk the round's inbox into the
// RBC and ABA layers, pump the BKR vote/seal logic to fixpoint, then
// send this round's INITs, Bracha vote body and ABA body, in that order.
func (n *Node) Step(round int, delivered []sched.Message) []sched.Outgoing {
	if n.done {
		return nil
	}
	for _, m := range delivered {
		switch m.Tag {
		case broadcast.BrachaTag:
			n.rbc.Receive(m.From, m.Data, n.liveRBC)
		case ABATag:
			n.handleABA(m.From, m.Data)
		}
	}
	return n.flush(n.pump(n.outs[:0]))
}

// Receive implements sched.AsyncProcess with the identical transition
// function, so the state machine is engine-agnostic.
func (n *Node) Receive(m sched.Message) []sched.Outgoing {
	return n.Step(m.SentRound, []sched.Message{m})
}

// flush appends the pending Bracha votes and the ABA body to outs, each
// as one broadcast copied into the arena.
func (n *Node) flush(outs []sched.Outgoing) []sched.Outgoing {
	if body := n.rbc.TakeVotes(); body != nil {
		outs = append(outs, sched.Outgoing{To: sched.Broadcast, Tag: broadcast.BrachaTag, Data: n.carve(body)})
	}
	if len(n.votes) > 0 {
		outs = append(outs, sched.Outgoing{To: sched.Broadcast, Tag: ABATag, Data: n.carve(n.votes)})
		n.votes = n.votes[:0]
	}
	n.outs = outs
	return outs
}

// arenaChunk is the arena's allocation unit, a few epochs of one node's
// votes at the benchmark shapes.
const arenaChunk = 4 << 10

// carve copies b into an exact-size slice of the arena.
func (n *Node) carve(b []byte) []byte {
	if free := cap(n.arena) - len(n.arena); free < len(b) {
		n.arena = make([]byte, 0, max(arenaChunk, len(b)))
	}
	start := len(n.arena)
	n.arena = append(n.arena, b...)
	return n.arena[start:len(n.arena):len(n.arena)]
}

// open broadcasts this node's epoch-e proposal on its RBC slot.
func (n *Node) open(outs []sched.Outgoing, e int) []sched.Outgoing {
	id := broadcast.EpochID(e)
	// The node's own instance always gets the true proposal.
	own := broadcast.EncodeInit(n.cfg.Self, id, broadcast.EncodeVec(n.cfg.Proposals[e]))
	if n.cfg.Behavior == Equivocate {
		// Per-recipient INITs with distinct values: recipient j sees the
		// proposal shifted by j+1 in every coordinate.
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
		outs = append(outs, sched.Outgoing{To: sched.Broadcast, Tag: broadcast.BrachaTag, Data: own})
	}
	n.rbc.Receive(n.cfg.Self, own, nil)
	return outs
}

// liveEpoch reports whether epoch e can still receive traffic: not yet
// garbage-collected, inside the stream, and at most one epoch ahead of
// this node. That is prune's slack seen from the other side: in lockstep
// delivery no correct peer runs further ahead, so only a Byzantine one
// could make the node hold state for a later epoch.
func (n *Node) liveEpoch(e int) bool {
	ahead := e - n.cur
	return e >= n.pruneLo && ahead <= 1 && e < len(n.cfg.Proposals)
}

// liveRBC reports whether an rbc instance id is the canonical id of a
// live epoch: an instance no live epoch owns would never be read by pump
// nor matched by prune.
func (n *Node) liveRBC(id []byte) bool {
	e, ok := broadcast.ParseEpochID(string(id))
	return ok && n.liveEpoch(e)
}

// handleABA walks an aba body's votes, in send order, into their (epoch,
// slot) instances, with one liveness check and one epoch lookup per run
// of equal epochs; votes outside the epoch window are skipped. A body
// from no peer, or one that is not whole votes with known phases and
// process slots, is dropped whole before any state is created.
func (n *Node) handleABA(from int, body []byte) {
	if from < 0 || from >= n.cfg.N || from == n.cfg.Self || !abaFramed(body, n.cfg.N) {
		return
	}
	var es *epochState
	run := -1
	for ; len(body) > 0; body = body[abaVoteLen:] {
		epoch, slot, round, phase, value := decodeABA(body)
		if epoch != run {
			run, es = epoch, nil
			if n.liveEpoch(epoch) {
				es = n.epoch(epoch)
			}
		}
		if es != nil {
			n.votes = es.abas[slot].handle(n.votes, from, round, phase, value)
		}
	}
}

// pump drives the BKR decision logic to a fixpoint: fold reliable
// deliveries into votes, cast the 0-votes once n-f slots decided 1,
// seal the epoch when every slot's agreement decided and every accepted
// slot's proposal is locally delivered, queue its kernel on the lane,
// then open the next epoch. Nothing in the protocol reads a decision's
// Output, so the next epochs' rounds go on while the kernel runs.
func (n *Node) pump(outs []sched.Outgoing) []sched.Outgoing {
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
		es := n.epoch(n.cur)
		// BKR rule 1: vote 1 for every reliably delivered slot.
		for s := 0; s < n.cfg.N; s++ {
			if es.rawDelivered[s] && !es.abas[s].haveInput {
				n.votes = es.abas[s].input(n.votes, 1)
				progress = true
			}
		}
		// BKR rule 2: once n-f slots decided 1, vote 0 everywhere else.
		ones := 0
		for s := 0; s < n.cfg.N; s++ {
			if es.abas[s].decided && es.abas[s].decision == 1 {
				ones++
			}
		}
		if !es.zeroCast && ones >= auxQuorum(n.cfg.N, n.cfg.F) {
			es.zeroCast = true
			for s := 0; s < n.cfg.N; s++ {
				if !es.abas[s].haveInput {
					n.votes = es.abas[s].input(n.votes, 0)
					progress = true
				}
			}
		}
		// Seal: every agreement decided, every accepted slot delivered.
		if !es.sealed {
			ready := true
			for s := range es.abas {
				if a := &es.abas[s]; !a.decided || (a.decision == 1 && !es.rawDelivered[s]) {
					ready = false
					break
				}
			}
			if ready {
				es.sealed = true
				subset := make([]int, 0, n.cfg.N)
				values := make([]vec.V, 0, n.cfg.N)
				for s := range es.abas {
					if es.abas[s].decision == 1 {
						subset = append(subset, s)
						values = append(values, es.delivered[s])
					}
				}
				// Room for the whole stream, so that appends never move a
				// decision whose kernel job is still pending.
				if n.sealed == nil {
					n.sealed = make([]EpochDecision, 0, len(n.cfg.Proposals))
				}
				n.sealed = append(n.sealed, EpochDecision{Epoch: n.cur, Subset: subset, Values: values})
				n.lane.push(&n.sealed[len(n.sealed)-1], n.cfg.F, n.cfg.NormP)
				n.stats.Epochs++
				n.stats.Slots += len(subset)
				for s := range es.abas {
					if a := &es.abas[s]; a.decided {
						n.stats.ABARounds += a.decidedRound + 1
					}
				}
				n.cur++
				n.prune()
				if n.cur < len(n.cfg.Proposals) {
					outs = n.open(outs, n.cur)
				} else {
					n.done = true
				}
				progress = true
			}
		}
		if !progress {
			break
		}
	}
	return outs
}

// prune garbage-collects epochs the whole cluster has sealed past. One
// epoch of slack is kept for peers a round behind; in lockstep delivery
// nobody ever lags further.
func (n *Node) prune() {
	lo := n.cur - 1
	if lo <= n.pruneLo {
		return
	}
	for e := n.pruneLo; e < lo; e++ {
		if es := n.epochs[e]; es != nil { // sealed decisions live on n.sealed
			delete(n.epochs, e)
			n.spare = append(n.spare, es)
		}
	}
	old := n.pruneLo
	n.pruneLo = lo
	n.rbc.PruneInstances(func(_ int, id string) bool {
		e, ok := broadcast.ParseEpochID(id)
		return ok && e >= old && e < lo
	})
}

// decodeValue parses a subset proposal, substituting the default vector
// for garbage (wrong dimension or malformed encoding).
func (n *Node) decodeValue(b []byte) vec.V {
	v, err := broadcast.DecodeVec(b)
	if err == nil && len(v) == n.cfg.D {
		return v
	}
	if n.cfg.Default != nil {
		return n.cfg.Default.Clone()
	}
	return vec.New(n.cfg.D)
}

// decideEpoch reduces the agreed subset multiset to the epoch's decided
// vector with the paper's delta*_p kernel — minimax.DeltaStarP, the
// dispatch behind the public ComputeDeltaStar, so the oracle can
// recompute it bit-for-bit. p = 0 means 2.
func decideEpoch(values []vec.V, f int, p float64) (vec.V, float64) {
	if p == 0 {
		p = 2
	}
	r := minimax.DeltaStarP(vec.NewSet(values...), f, p)
	return r.Point, r.Delta
}
