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
	epoch int
	// abas, delivered and rawDelivered are indexed by slot.
	abas         []abaInst
	delivered    []vec.V // decoded proposal
	rawDelivered []bool  // the slot's proposal was reliably delivered
	zeroCast     bool    // BKR rule 2 fired: the 0-votes are cast
	dirty        bool    // on Node.dirty: a delivery or decision awaits vote
}

// Node is one ACS stream participant: a deterministic state machine
// implementing sched.SyncProcess, runnable on the in-process lockstep
// engine and — via transport.RunSync — over the channel mesh and TCP
// with bit-identical decisions. Epochs run pipelineDepth deep: every
// Start and Step that finds fewer than pipelineDepth epochs unsealed
// opens the next one, the open epochs' broadcasts and agreements run
// side by side, and epochs seal strictly in order. Messages that arrive
// ahead of the receiver's newest epoch accumulate in their instances
// until the receiver catches up.
type Node struct {
	cfg Config
	// outs is the send buffer every Start/Step fills and returns; the
	// driver is done with it by the next Step (sched.SyncProcess).
	outs []sched.Outgoing
	// votes is the Step's ABA body; it and the pending Bracha votes leave
	// as copies carved from arena, an append-only chunk that is never
	// reused, because receivers may keep a delivered message's Data.
	votes []byte
	arena []byte
	// coords holds the decoded proposals the same way: an append-only
	// chunk cut into cap-limited vectors, because sealed decisions and
	// the lane's kernels keep them.
	coords  []float64
	rbc     *broadcast.BrachaState
	epochs  [epochWindow]*epochState // the live epochs' states, epoch e at e % epochWindow
	spare   []*epochState            // pruned states, reset when an epoch reuses one
	cur     int                      // the oldest unsealed epoch, the next to seal
	top     int                      // the newest open epoch, cur-1 when none is open
	dirty   []int                    // open epochs whose deliveries or decisions changed
	done    bool
	sealed  []EpochDecision
	lane    *Lane
	stats   Stats
	pruneLo int // epochs below this are garbage-collected
}

// pipelineDepth is how many epochs a node keeps unsealed at once. In
// lockstep delivery an all-honest epoch seals in the fifth Step after it
// opens, and one with a faulty proposer in the ninth, so nine open
// epochs let a new one open in every round. Swept on the 40-epoch n = 7
// transcript rows, depths 2, 3, 4, 6, 8 and 9 took 181, 126, 93, 66, 52
// and 48 rounds with an equivocator (48 from 9 on; 204 when two epochs
// overlapped), and 101, 70, 53 and 44 from depth 6 on when all are
// honest (DESIGN §13.1).
const pipelineDepth = 9

// windowThreshold is the newest epoch a node whose oldest unsealed epoch
// is cur accepts traffic for: two pipelines past cur, its own open epochs
// and the ones a peer that sealed them first may open (DESIGN §13.3).
func windowThreshold(cur int) int { return cur + 2*pipelineDepth }

// epochWindow is the most epochs the window [pruneLo, windowThreshold(cur)]
// spans: pruneLo is at least cur-1.
const epochWindow = 2*pipelineDepth + 2

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
		cfg:  cfg,
		rbc:  broadcast.NewBrachaState(cfg.N, cfg.F, cfg.Self),
		top:  -1,
		lane: lane,
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

// held returns the state of epoch e >= 0, nil if the node holds none.
func (n *Node) held(e int) *epochState {
	if es := n.epochs[e%epochWindow]; es != nil && es.epoch == e {
		return es
	}
	return nil
}

// epoch returns the state of live epoch e, creating it if need be. Live
// epochs lie in a window of at most epochWindow, and prune clears the
// slots below it, so e's slot is free.
func (n *Node) epoch(e int) *epochState {
	if es := n.held(e); es != nil {
		return es
	}
	var es *epochState
	if k := len(n.spare); k > 0 {
		es, n.spare = n.spare[k-1], n.spare[:k-1]
		es.reset(e)
	} else {
		es = &epochState{
			epoch:        e,
			abas:         newABAInsts(n.cfg.N, n.cfg.F, n.cfg.Self, e),
			delivered:    make([]vec.V, n.cfg.N),
			rawDelivered: make([]bool, n.cfg.N),
		}
	}
	n.epochs[e%epochWindow] = es
	return es
}

// reset makes a pruned state equal to a fresh one for epoch e. The
// delivered vectors live on in sealed decisions, so only the slice's
// references are cleared.
func (es *epochState) reset(e int) {
	es.epoch = e
	for s := range es.abas {
		es.abas[s].reset(e)
	}
	clear(es.delivered)
	clear(es.rawDelivered)
	es.zeroCast, es.dirty = false, false
}

// unsealed is the number of open epochs, cur through top.
func (n *Node) unsealed() int { return n.top - n.cur + 1 }

// touch queues open epoch e for pump's next vote; other epochs are left
// alone, since opening an epoch touches it.
func (n *Node) touch(e int, es *epochState) {
	if e >= n.cur && e <= n.top && !es.dirty {
		es.dirty = true
		n.dirty = append(n.dirty, e)
	}
}

// Start implements sched.SyncProcess: open epoch 0.
func (n *Node) Start() []sched.Outgoing {
	if n.cfg.Behavior == Mute || len(n.cfg.Proposals) == 0 {
		n.done = true
		return nil
	}
	return n.flush(n.pump(n.outs[:0]))
}

// Done implements sched.SyncProcess.
func (n *Node) Done() bool { return n.done }

// Step implements sched.SyncProcess: walk the round's inbox into the
// RBC and ABA layers, pump the BKR vote/seal/open logic to fixpoint,
// then send this round's INITs, Bracha vote body and ABA body, in that
// order.
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
// garbage-collected, inside the stream, and at most windowThreshold(cur).
// The window [pruneLo, cur+2W], for W = pipelineDepth, spans at most 2W+2
// epochs: a sealed one kept as slack, then cur and the 2W after it.
func (n *Node) liveEpoch(e int) bool {
	return e >= n.pruneLo && e <= windowThreshold(n.cur) && e < len(n.cfg.Proposals)
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
			a := &es.abas[slot]
			decided := a.decided
			n.votes = a.handle(n.votes, from, round, phase, value)
			if a.decided && !decided {
				n.touch(epoch, es)
			}
		}
	}
}

// pump drives the BKR decision logic to a fixpoint: fold reliable
// deliveries into votes and, in every open epoch, cast the 0-votes once
// n-f slots decided 1; seal epochs strictly in order, each once every
// slot's agreement decided and every accepted slot's proposal is locally
// delivered, and queue its kernel on the lane; then open the next epoch
// if fewer than pipelineDepth are unsealed, one per call. Only the open
// epochs on n.dirty, whose deliveries or decisions changed, are voted
// again. Nothing in the protocol reads a decision's Output, so the next
// epochs' rounds go on while the kernel runs.
func (n *Node) pump(outs []sched.Outgoing) []sched.Outgoing {
	opened := false
	for {
		progress := false
		for _, d := range n.rbc.TakeDeliveries() {
			e, ok := broadcast.ParseEpochID(d.ID)
			if !ok || !n.liveEpoch(e) {
				continue
			}
			if es := n.epoch(e); !es.rawDelivered[d.Sender] {
				es.rawDelivered[d.Sender] = true
				es.delivered[d.Sender] = n.decodeValue(e, d.Value)
				n.touch(e, es)
			}
		}
		if n.done {
			break
		}
		for _, e := range n.dirty {
			es := n.held(e)
			es.dirty = false
			if n.vote(es) {
				progress = true
			}
		}
		n.dirty = n.dirty[:0]
		// A decided epoch has n-f slots decided 1 and so has cast its
		// 0-votes; requiring that keeps cur <= top however votes arrive.
		if es := n.held(n.cur); es != nil && es.zeroCast && es.ready() {
			n.seal(es)
			progress = true
		}
		if next := n.top + 1; !opened && next < len(n.cfg.Proposals) && n.unsealed() < pipelineDepth {
			n.top = next
			outs = n.open(outs, next)
			n.touch(next, n.epoch(next))
			opened, progress = true, true
		}
		if !progress {
			break
		}
	}
	return outs
}

// vote applies the BKR voting rules to one open epoch and reports whether
// a rule fired.
func (n *Node) vote(es *epochState) bool {
	fired := false
	// BKR rule 1: vote 1 for every reliably delivered slot.
	for s := 0; s < n.cfg.N; s++ {
		if es.rawDelivered[s] && !es.abas[s].haveInput {
			n.votes = es.abas[s].input(n.votes, 1)
			fired = true
		}
	}
	// BKR rule 2: once n-f slots decided 1, vote 0 everywhere else.
	if es.zeroCast {
		return fired
	}
	ones := 0
	for s := 0; s < n.cfg.N; s++ {
		if es.abas[s].decided && es.abas[s].decision == 1 {
			ones++
		}
	}
	if ones >= auxQuorum(n.cfg.N, n.cfg.F) {
		es.zeroCast = true
		for s := 0; s < n.cfg.N; s++ {
			if !es.abas[s].haveInput {
				n.votes = es.abas[s].input(n.votes, 0)
			}
		}
		fired = true
	}
	return fired
}

// ready reports whether every agreement decided and every accepted slot
// is delivered.
func (es *epochState) ready() bool {
	for s := range es.abas {
		if a := &es.abas[s]; !a.decided || (a.decision == 1 && !es.rawDelivered[s]) {
			return false
		}
	}
	return true
}

// seal commits epoch n.cur, whose state es is ready: its subset and values
// go onto n.sealed, its kernel onto the lane, and the epoch window moves
// on. The node is done once the last epoch sealed.
func (n *Node) seal(es *epochState) {
	k := 0 // the subset's size: every agreement decided 0 or 1
	for s := range es.abas {
		k += int(es.abas[s].decision)
	}
	subset := make([]int, 0, k)
	values := make([]vec.V, 0, k)
	for s := range es.abas {
		if es.abas[s].decision == 1 {
			subset = append(subset, s)
			values = append(values, es.delivered[s])
		}
	}
	// Room for the whole stream, so that appends never move a decision
	// whose kernel job is still pending.
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
	n.done = n.cur >= len(n.cfg.Proposals)
}

// prune garbage-collects epochs the whole cluster has sealed past. One
// epoch of slack is kept for peers a round behind; in lockstep delivery
// nobody ever lags further.
func (n *Node) prune() {
	lo := n.cur - 1
	var id [24]byte
	for e := n.pruneLo; e < lo; e++ {
		if es := n.held(e); es != nil { // sealed decisions live on n.sealed
			n.epochs[e%epochWindow] = nil
			n.spare = append(n.spare, es)
		}
		n.rbc.PruneID(broadcast.AppendEpochID(id[:0], e))
	}
	n.pruneLo = max(n.pruneLo, lo)
}

// coordsChunk caps a chunk of coords.
const coordsChunk = 512

// decodeValue parses a subset proposal of epoch e into coords,
// substituting the default vector for garbage (wrong dimension or
// malformed encoding). A new chunk holds what the rest of the stream
// can deliver, at most coordsChunk coordinates, so a short stream
// allocates no more than its proposals.
func (n *Node) decodeValue(e int, b []byte) vec.V {
	if free := cap(n.coords) - len(n.coords); free < n.cfg.D {
		rest := (len(n.cfg.Proposals) - e) * n.cfg.N * n.cfg.D
		n.coords = make([]float64, 0, max(min(rest, coordsChunk), n.cfg.D))
	}
	start := len(n.coords)
	if c, err := broadcast.AppendDecodedVec(n.coords, b, n.cfg.D); err == nil {
		n.coords = c
		return c[start:len(c):len(c)]
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
